// The RDBMS integration layer (paper Sections 2.1 and B.1): base tables in
// the storage engine, insert/delete triggers monitoring the entity and
// example tables, and a registry of managed classification views. This is
// the in-process analogue of Hazy's PostgreSQL deployment (triggers + a
// Hazy process reached over IPC).

#ifndef HAZY_ENGINE_DATABASE_H_
#define HAZY_ENGINE_DATABASE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/classifier_view.h"
#include "core/epoch.h"
#include "core/view_factory.h"
#include "features/feature_function.h"
#include "ml/loss.h"
#include "persist/checkpoint_daemon.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/statement_lock.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace hazy::persist {
class ViewCheckpointer;
}  // namespace hazy::persist

namespace hazy::engine {

/// \brief Declarative description of a classification view — the SQL DDL of
/// Example 2.1 in struct form.
struct ClassificationViewDef {
  std::string view_name;

  std::string entity_table;      ///< ENTITIES FROM <table>
  std::string entity_key;        ///< ... KEY <col>
  /// Column(s) fed to the feature function. Empty = all TEXT columns.
  std::vector<std::string> entity_text_columns;

  std::string label_table;       ///< LABELS FROM <table>
  std::string label_column;      ///< ... LABEL <col>

  std::string example_table;     ///< EXAMPLES FROM <table>
  std::string example_key;       ///< ... KEY <col>
  std::string example_label;     ///< ... LABEL <col>

  std::string feature_function = "tf_bag_of_words";  ///< FEATURE FUNCTION <f>
  ml::LossKind method = ml::LossKind::kHinge;        ///< USING SVM | ...
  bool method_specified = false;  ///< false: Hazy model-selects (§2.1)

  core::Architecture architecture = core::Architecture::kHazyMM;
  core::Mode mode = core::Mode::kEager;
};

class Database;

/// \brief A live classification view: feature function + core view +
/// label-string mapping + the replay log used for delete-triggered retrain.
class ManagedView {
 public:
  const std::string& name() const { return def_.view_name; }
  const ClassificationViewDef& def() const { return def_; }
  core::ClassificationView* view() { return view_.get(); }
  const core::ClassificationView* view() const { return view_.get(); }

  /// The live core view as a shared handle, for snapshot readers that
  /// attribute stats/trace to it concurrently with the write side: the
  /// handle keeps the object alive across a racing retrain swap.
  std::shared_ptr<core::ClassificationView> SharedView() const {
    return std::atomic_load(&view_);
  }

  /// Label string of one entity under the current model.
  StatusOr<std::string> LabelOf(int64_t id);

  /// All entity ids whose current label string is `label`.
  StatusOr<std::vector<int64_t>> MembersOf(const std::string& label);

  /// Count of entities with the given label string.
  StatusOr<uint64_t> CountOf(const std::string& label);

  /// The label strings, positive class first.
  const std::vector<std::string>& labels() const { return labels_; }

  /// Maps +1/-1 to the label string.
  const std::string& LabelString(int sign) const {
    return sign > 0 ? labels_[0] : labels_[1];
  }

  /// Maps a label string to +1/-1 (InvalidArgument otherwise).
  StatusOr<int> LabelSign(const std::string& label) const;

  /// Applies queued trigger updates (accumulated while the database is in
  /// an update batch) as one UpdateBatch. No-op when nothing is queued.
  /// Reads flush implicitly, so batching never changes query answers.
  Status Flush();

  /// Trigger updates queued and not yet applied to the core view.
  size_t pending_updates() const { return pending_.size(); }

  /// Pins the latest published epoch for lock-free snapshot reads — the
  /// only way SQL reads a view. Never empty for an adopted view.
  core::SnapshotPin PinSnapshot() { return epochs_.Pin(); }

  /// The view's epoch machinery (tests and introspection).
  const core::EpochManager& epochs() const { return epochs_; }

 private:
  friend class Database;
  friend class persist::ViewCheckpointer;

  /// Publishes the current (model, entity set) as a new read epoch. Called
  /// by the write side at batch boundaries — after Flush, a non-batched
  /// trigger update, or a retrain. Inside an update batch it only records
  /// the request (epoch_publish_pending_); the outermost EndUpdateBatch
  /// performs the actual publish so readers never observe a partially
  /// applied statement. No-op until the view is adopted: AdoptView
  /// publishes the first epoch itself.
  Status PublishEpoch();

  /// Publishes now, batch or not (PublishEpoch's unconditional half).
  /// Re-seeds the store builder from the core view when a reset is pending.
  Status SealEpoch();

  ClassificationViewDef def_;
  std::unique_ptr<features::FeatureFunction> feature_fn_;
  /// Shared (not unique) so SharedView readers survive the swap a
  /// retrain-from-scratch performs; the swap itself uses std::atomic_store.
  std::shared_ptr<core::ClassificationView> view_;
  std::vector<std::string> labels_;  // [0] = positive, [1] = negative
  /// Replay log of (entity id, label sign) training examples, kept so
  /// deletes can retrain from scratch (paper footnote 2).
  std::vector<std::pair<int64_t, int>> example_log_;
  /// Example-insert triggers queued while the database is in a batch;
  /// drained by Flush() as one UpdateBatch.
  std::vector<ml::LabeledExample> pending_;
  Database* db_ = nullptr;
  /// Epoch publication state (write side only; readers touch epochs_ alone).
  core::EpochManager epochs_;
  core::EpochStoreBuilder store_builder_;
  /// True when the builder must be re-seeded from the core view (initial
  /// adoption, retrain-from-scratch, checkpoint restore) before sealing.
  bool store_reset_pending_ = true;
  /// Set when PublishEpoch is requested inside an update batch: publishing
  /// mid-batch would let snapshot readers observe a partially applied
  /// statement, so the publish defers to the outermost EndUpdateBatch.
  bool epoch_publish_pending_ = false;
  /// Set by Database::AdoptView once the first epoch is published;
  /// publications before adoption are skipped (creation replays one
  /// trigger per pre-existing example — per-example full exports there
  /// would be quadratic, and no reader can see the view yet).
  bool adopted_ = false;
};

/// \brief Configuration for a Database instance.
struct DatabaseOptions {
  /// Backing file; empty = a fresh temp file.
  std::string path;
  /// Buffer-pool frames (x 8 KiB).
  size_t buffer_pool_pages = 4096;
  /// Defaults applied to classification views.
  core::ViewOptions view_defaults;
  /// Write-ahead-log durability policy (fsync per commit vs group commit).
  storage::WalOptions wal;
  /// Asynchronous eviction write-back (storage/bg_writer.h). On by default;
  /// turning it off restores the synchronous per-eviction fsync path (the
  /// micro_outofcore_ingest baseline).
  bool background_writer = true;
  storage::BgWriterOptions writer;
  /// Background checkpointer (persist/checkpoint_daemon.h); off by default,
  /// also switchable at runtime via PRAGMA checkpoint_daemon.
  persist::CheckpointDaemonOptions checkpointer;
};

/// \brief An embedded database: catalog + triggers + classification views.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  /// Opens the backing file. A fresh file (or a fresh temp file when no path
  /// is configured) is formatted with the persist header page; an existing
  /// database file is recovered to an *exact* point: the write-ahead log
  /// first rolls the file back to the last checkpoint the views were saved
  /// at, tables attach to their heap chains, every classification view is
  /// rebuilt from its checkpointed state with zero retraining (triggers
  /// rewired), and then every committed post-checkpoint operation is
  /// replayed through the trigger machinery so the views re-train on the
  /// redone rows exactly as they did live. Pages orphaned by the crash (the
  /// pre-restart view structures, rolled-back allocations) are swept into
  /// the free list, so the file does not grow across restart cycles. On
  /// failure the database is left closed and reusable, and a temp file it
  /// created is removed.
  Status Open();

  /// Checkpoints the full state of all tables and classification views to
  /// the backing file (see persist/checkpoint.h for the on-disk scheme) and
  /// rebases the write-ahead log on the new epoch. Returns the new epoch.
  StatusOr<uint64_t> Checkpoint();

  /// VACUUM: checkpoints, then rewrites every live page into a fresh
  /// compacted file (tables copied row-by-row, views carried over
  /// bit-identically through their serialized state) and atomically swaps it
  /// in, truncating away all fragmentation. Invalidates any Table* /
  /// ManagedView* pointers previously handed out. The checkpoint epoch
  /// restarts at 1 in the compacted lineage.
  Status Compact();

  /// Epoch of the last durable checkpoint (0 = never checkpointed).
  uint64_t checkpoint_epoch() const {
    return checkpoint_epoch_.load(std::memory_order_relaxed);
  }

  /// Path of the backing file.
  const std::string& path() const { return path_; }

  /// True between a successful Open and teardown (close, or a failed VACUUM
  /// swap that could not recover). Atomic so statement dispatch can answer
  /// "database is not open" without the statement mutex — the lock-free
  /// snapshot-read path must not race ResetHandles by peeking at catalog().
  bool is_open() const { return open_.load(std::memory_order_acquire); }

  storage::Catalog* catalog() { return catalog_.get(); }
  storage::BufferPool* buffer_pool() { return pool_.get(); }
  storage::Wal* wal() { return wal_.get(); }
  const storage::Wal* wal() const { return wal_.get(); }

  /// The background checkpointer, when one is running (nullptr otherwise).
  persist::CheckpointDaemon* checkpoint_daemon() { return ckpt_daemon_.get(); }

  /// The statement lock's mutex (storage/statement_lock.h). The engine is
  /// single-writer (triggers mutate shared view state), so the server layer
  /// holds this for the duration of each statement; in-process callers that
  /// never share a Database across threads can ignore it, since every
  /// mutating entry point takes the lock itself. Recursive because those
  /// entry points (and Compact) re-enter it inside a held statement.
  std::recursive_mutex* statement_mutex() { return stmt_lock_.mutex(); }

  /// Starts/stops the background checkpointer at runtime (PRAGMA
  /// checkpoint_daemon = on|off). Thresholds come from (and persist in)
  /// options().checkpointer.
  Status SetCheckpointDaemonEnabled(bool enabled);

  /// Starts/stops the asynchronous write-back thread at runtime (PRAGMA
  /// bg_writer = on|off).
  Status SetBackgroundWriterEnabled(bool enabled);

  /// Live option state (reflects runtime PRAGMA changes).
  const DatabaseOptions& options() const { return options_; }

  /// Checkpoint-daemon thresholds (PRAGMA wal_checkpoint_bytes/_seconds);
  /// applied to a running daemon immediately, remembered otherwise.
  void SetWalCheckpointBytes(uint64_t bytes);
  void SetWalCheckpointSeconds(double seconds);

  /// Write-back batch size (PRAGMA writer_batch_pages).
  void SetWriterBatchPages(size_t pages);

  /// Slow-statement log threshold in milliseconds (PRAGMA
  /// slow_statement_ms). Statements whose traced wall clock meets the
  /// threshold dump their span tree to the log. Negative = disabled.
  int64_t slow_statement_ms() const {
    return slow_statement_ms_.load(std::memory_order_relaxed);
  }
  void set_slow_statement_ms(int64_t ms) {
    slow_statement_ms_.store(ms, std::memory_order_relaxed);
  }

  /// Creates and populates a classification view over existing tables,
  /// and wires the triggers that keep it maintained.
  StatusOr<ManagedView*> CreateClassificationView(const ClassificationViewDef& def);

  /// Looks up a view by name (case-insensitive).
  StatusOr<ManagedView*> GetView(const std::string& name) const
      EXCLUDES(views_mu_);
  bool HasView(const std::string& name) const EXCLUDES(views_mu_);
  std::vector<std::string> ViewNames() const EXCLUDES(views_mu_);

  /// Enters batched-trigger mode: example-insert triggers queue their
  /// maintenance work instead of applying it per row, and the queue is
  /// flushed to each view as one amortized UpdateBatch. Nestable; only the
  /// outermost EndUpdateBatch flushes. Reads against a view always flush
  /// its queue first, so answers are identical to unbatched execution.
  /// The WAL groups the batch's mutations under one commit marker so replay
  /// reproduces the batched fold boundaries bit-exactly.
  void BeginUpdateBatch();

  /// Leaves batched-trigger mode, flushing every view's queue when the
  /// outermost batch ends. When the WAL tail has passed the background
  /// checkpointer's byte threshold, the batch boundary requests a
  /// checkpoint itself (checkpoints are refused inside a batch).
  Status EndUpdateBatch();

  /// Checkpoint hand-off: the writer holding the statement lock commits a
  /// checkpoint as its outermost statement Scope exits outside an update
  /// batch. The background checkpointer posts this instead of waiting for
  /// the lock; a checkpoint that completes answers every request posted
  /// before it finished.
  void RequestCheckpoint() {
    checkpoint_requested_.store(true, std::memory_order_relaxed);
  }

  bool in_update_batch() const {
    return batch_depth_.load(std::memory_order_relaxed) > 0;
  }

  /// Registers a snapshot read that runs without the statement mutex.
  /// Returns false while a VACUUM swap is in progress — the caller must
  /// fall back to the serialized path (Compact invalidates the ManagedView
  /// pointers a snapshot read holds, and it drains registered readers
  /// before doing so). Prefer SnapshotReadScope.
  bool TryEnterSnapshotRead();
  void LeaveSnapshotRead();

 private:
  friend class ManagedView;
  friend class persist::ViewCheckpointer;

  /// Open() body; Open() wraps it with failure cleanup.
  Status OpenImpl();

  /// Brings up the async write-back thread and (when enabled) the
  /// checkpoint daemon once recovery has the database consistent.
  Status StartBackgroundServices();

  /// Publishes the WAL/pool/pager stats and every live view's stats to the
  /// global metrics registry (obs/stats_collectors.h). Idempotent per open.
  void RegisterStatsCollectors();

  /// Withdraws all registry collectors before their subsystems die;
  /// lifetime counters fold into the registry's retired totals.
  void UnregisterStatsCollectors();

  /// Replays the WAL's committed logical records through the normal table /
  /// trigger entry points (recovery redo; logical logging paused).
  Status ReplayWal();
  Status ApplyWalOp(std::string_view payload);

  /// Compact() helper: copies every user table and view into `fresh` and
  /// checkpoints it (the compacted image).
  Status CopyCompactInto(Database* fresh);

  /// Closes every handle (pager, wal, pool, catalog, views) without touching
  /// any file — the in-place teardown Compact() uses before swapping files.
  void ResetHandles();

  /// The statement lock's exit hook: commits a requested checkpoint unless
  /// an update batch is still open.
  void CommitRequestedCheckpoint();

  /// Registers the insert/update/delete triggers that keep `mv` maintained
  /// (shared by view creation and checkpoint recovery).
  Status ArmTriggers(ManagedView* mv);

  /// Publishes a fully built view's first read epoch, then installs it
  /// into views_ (under views_mu_, so lock-free readers resolving names
  /// never race the vector growing). Every registered view therefore
  /// answers SQL reads from an epoch; a failed publish registers nothing.
  /// Returns the stable raw pointer.
  StatusOr<ManagedView*> AdoptView(std::unique_ptr<ManagedView> mv)
      EXCLUDES(views_mu_);

  /// Stable raw pointers to every installed view, copied under views_mu_.
  /// Callers iterate the copy so callees may resolve names (GetView) without
  /// self-deadlock; safe because DDL is statement-serialized and ManagedView
  /// objects live until close.
  std::vector<ManagedView*> ViewListSnapshot() const EXCLUDES(views_mu_);

  /// The core-view options a definition resolves to (defaults + DDL).
  core::ViewOptions EffectiveViewOptions(const ClassificationViewDef& def) const;

  /// Concatenates the configured text columns of an entity row.
  StatusOr<std::string> EntityDocument(const ManagedView& mv,
                                       const storage::Row& row) const;

  /// Trigger bodies.
  Status OnEntityInsert(ManagedView* mv, const storage::Row& row);
  Status OnExampleInsert(ManagedView* mv, const storage::Row& row);
  Status OnExampleDelete(ManagedView* mv, const storage::Row& row);
  /// Paper footnote 2: label changes retrain the model from scratch; so do
  /// entity tuple changes (their features change under the current model).
  Status OnEntityUpdate(ManagedView* mv, const storage::Row& old_row,
                        const storage::Row& new_row);
  Status OnExampleUpdate(ManagedView* mv, const storage::Row& old_row,
                         const storage::Row& new_row);

  /// Paper footnote 2: deletes retrain the model from scratch.
  Status RebuildFromScratch(ManagedView* mv);

  StatusOr<std::unique_ptr<core::ClassificationView>> BuildCoreView(
      const ClassificationViewDef& def) const;

  DatabaseOptions options_;
  std::string path_;
  /// See statement_mutex().
  storage::StatementLock stmt_lock_;
  bool owns_temp_file_ = false;
  /// True when this Open created the -wal sidecar file (so a failed open
  /// can remove it instead of leaving a stray next to a foreign file).
  bool created_wal_file_ = false;
  /// Mutated under the statement lock by Begin/EndUpdateBatch; atomic so
  /// the checkpoint daemon can peek without the lock.
  std::atomic<int> batch_depth_{0};
  /// See RequestCheckpoint().
  std::atomic<bool> checkpoint_requested_{false};
  std::atomic<int64_t> slow_statement_ms_{-1};
  /// Registry collector handles for the storage-layer stats (WAL, pool,
  /// pager) registered by Open and released by ResetHandles. View
  /// collectors live in view_collectors_ keyed alongside views_.
  std::vector<uint64_t> stats_collectors_;
  std::vector<uint64_t> view_collectors_;
  /// Advanced under the statement lock by checkpoints; atomic so observers
  /// (tests, shell banners, the daemon) can read it without the lock.
  std::atomic<uint64_t> checkpoint_epoch_{0};
  /// See is_open(): flipped true after a successful Open/OpenImpl, false at
  /// the top of ResetHandles — always before the handles below are touched.
  std::atomic<bool> open_{false};
  std::unique_ptr<storage::Pager> pager_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::Wal> wal_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<persist::CheckpointDaemon> ckpt_daemon_;
  /// Guards views_ itself (the vector) against concurrent name resolution
  /// from snapshot readers while DDL appends. The ManagedViews pointed to
  /// are not covered — their mutable state stays under the statement
  /// serialization, and snapshot reads touch only their epoch machinery.
  mutable Mutex views_mu_;
  std::vector<std::unique_ptr<ManagedView>> views_ GUARDED_BY(views_mu_);
  /// Snapshot reads currently in flight outside the statement mutex, and
  /// the VACUUM-in-progress flag that refuses new ones. seq_cst: the
  /// enter/check on the reader and the set/drain on the compactor form a
  /// store-load handshake.
  std::atomic<int64_t> snapshot_readers_{0};
  std::atomic<bool> compacting_{false};
};

/// \brief RAII registration of one snapshot read (see
/// Database::TryEnterSnapshotRead). While active(), VACUUM cannot tear down
/// the view objects the read is scanning.
class SnapshotReadScope {
 public:
  explicit SnapshotReadScope(Database* db)
      : db_(db), active_(db != nullptr && db->TryEnterSnapshotRead()) {}
  ~SnapshotReadScope() {
    if (active_) db_->LeaveSnapshotRead();
  }
  SnapshotReadScope(const SnapshotReadScope&) = delete;
  SnapshotReadScope& operator=(const SnapshotReadScope&) = delete;

  bool active() const { return active_; }

 private:
  Database* db_;
  bool active_;
};

}  // namespace hazy::engine

#endif  // HAZY_ENGINE_DATABASE_H_
