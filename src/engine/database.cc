#include "engine/database.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/view_factory.h"
#include "ml/model_selection.h"
#include "obs/stats_collectors.h"
#include "obs/trace.h"
#include "persist/checkpoint.h"
#include "persist/serde.h"
#include "storage/coding.h"

namespace hazy::engine {

using storage::Row;
using storage::Value;

Status ManagedView::Flush() {
  if (pending_.empty()) return Status::OK();
  obs::TraceScope drain_span(obs::SpanKind::kTriggerDrain);
  // A mid-batch read is folding the queue early: log the fold point, so
  // replay reproduces the exact same UpdateBatch boundaries (they are
  // visible in eps/water bookkeeping, not just in answers). A view not yet
  // adopted is folding its creation-time queue, which replaying its
  // kCreateView record reproduces.
  if (adopted_ && db_ != nullptr && db_->wal() != nullptr &&
      db_->in_update_batch()) {
    std::string payload;
    payload.push_back(static_cast<char>(storage::WalOp::kViewFlush));
    storage::PutLengthPrefixed(&payload, def_.view_name);
    HAZY_RETURN_NOT_OK(db_->wal()->AppendLogical(payload));
  }
  std::vector<ml::LabeledExample> batch;
  batch.swap(pending_);
  // On failure the batch is NOT requeued: every architecture folds the
  // examples into the model before any fallible I/O, so a retry would
  // double-train. The examples stay in example_log_, which any later
  // rebuild (delete/update triggers) replays.
  HAZY_RETURN_NOT_OK(view_->UpdateBatch(batch));
  // The batch boundary is the epoch boundary: snapshot readers switch to
  // the post-batch model here, atomically across all their queries.
  return PublishEpoch();
}

Status ManagedView::PublishEpoch() {
  if (!adopted_) return Status::OK();
  if (db_ != nullptr && db_->in_update_batch()) {
    // Mid-batch: publishing here would expose a partially applied statement
    // to snapshot readers and would seal one chunk per row of a multi-row
    // insert. Defer to the outermost EndUpdateBatch — the real epoch
    // boundary.
    epoch_publish_pending_ = true;
    return Status::OK();
  }
  return SealEpoch();
}

Status ManagedView::SealEpoch() {
  if (store_reset_pending_) {
    std::vector<core::Entity> ents;
    HAZY_RETURN_NOT_OK(view_->ExportEntities(&ents));
    store_builder_.ReplaceAll(std::move(ents));
    store_reset_pending_ = false;
  }
  epochs_.Publish(view_->model(), store_builder_.Seal());
  epoch_publish_pending_ = false;
  return Status::OK();
}

StatusOr<std::string> ManagedView::LabelOf(int64_t id) {
  // View reads fold the pending trigger queue and may reorganize — they
  // mutate view state, so they hold the statement lock like any writer.
  storage::StatementLock::Scope stmt(db_ != nullptr ? &db_->stmt_lock_ : nullptr);
  HAZY_RETURN_NOT_OK(Flush());
  HAZY_ASSIGN_OR_RETURN(int sign, view_->SingleEntityRead(id));
  return LabelString(sign);
}

StatusOr<std::vector<int64_t>> ManagedView::MembersOf(const std::string& label) {
  storage::StatementLock::Scope stmt(db_ != nullptr ? &db_->stmt_lock_ : nullptr);
  HAZY_RETURN_NOT_OK(Flush());
  HAZY_ASSIGN_OR_RETURN(int sign, LabelSign(label));
  return view_->AllMembers(sign);
}

StatusOr<uint64_t> ManagedView::CountOf(const std::string& label) {
  storage::StatementLock::Scope stmt(db_ != nullptr ? &db_->stmt_lock_ : nullptr);
  HAZY_RETURN_NOT_OK(Flush());
  HAZY_ASSIGN_OR_RETURN(int sign, LabelSign(label));
  return view_->AllMembersCount(sign);
}

StatusOr<int> ManagedView::LabelSign(const std::string& label) const {
  if (EqualsIgnoreCase(label, labels_[0])) return 1;
  if (EqualsIgnoreCase(label, labels_[1])) return -1;
  return Status::InvalidArgument(StrFormat("'%s' is not a label of view %s",
                                           label.c_str(), def_.view_name.c_str()));
}

Database::Database(DatabaseOptions options)
    : options_(std::move(options)),
      stmt_lock_([this] { CommitRequestedCheckpoint(); }) {}

Database::~Database() {
  // Collectors first: the registry must stop polling handles about to die.
  UnregisterStatsCollectors();
  // Background threads next: the daemon would checkpoint into (and the
  // writer flush into) the file handles being torn down.
  if (ckpt_daemon_) ckpt_daemon_->Stop();
  if (pool_) pool_->StopBackgroundWriter();
  if (pager_ && pager_->is_open()) pager_->Close().ok();
  if (wal_ && wal_->is_open()) wal_->Close().ok();
  if (owns_temp_file_ && !path_.empty()) {
    ::unlink(path_.c_str());
    ::unlink(storage::WalPathFor(path_).c_str());
  }
}

Status Database::Open() {
  if (pager_) return Status::InvalidArgument("database already open");
  Status s = OpenImpl();
  if (s.ok()) {
    open_.store(true, std::memory_order_release);
  } else {
    // Leave the object closed and reusable; never leak a temp file created
    // by a failed open.
    UnregisterStatsCollectors();
    if (ckpt_daemon_) ckpt_daemon_->Stop();
    ckpt_daemon_.reset();
    if (pool_) pool_->StopBackgroundWriter();
    if (pager_ && pager_->is_open()) pager_->Close().ok();
    if (wal_ && wal_->is_open()) wal_->Close().ok();
    if (owns_temp_file_ && !path_.empty()) {
      ::unlink(path_.c_str());
      ::unlink(storage::WalPathFor(path_).c_str());
    } else if (created_wal_file_ && !path_.empty()) {
      // Never leave a stray -wal next to a file we refused to open.
      ::unlink(storage::WalPathFor(path_).c_str());
    }
    {
      MutexLock lock(views_mu_);
      views_.clear();
    }
    catalog_.reset();
    wal_.reset();
    pool_.reset();
    pager_.reset();
    path_.clear();
    owns_temp_file_ = false;
    created_wal_file_ = false;
    checkpoint_epoch_ = 0;
  }
  return s;
}

Status Database::OpenImpl() {
  if (path_.empty()) {
    path_ = options_.path;
  }
  if (path_.empty()) {
    path_ = storage::TempFilePath("db");
    owns_temp_file_ = true;
  }
  // An existing non-empty file must look like a database before we touch
  // it. A size that is not a whole number of pages is either a foreign file
  // (reject — formatting would clobber it) or a crash's torn write at the
  // tail of a real database (valid header page: truncate the partial page
  // away and recover; its content, if it mattered, is protected by the WAL).
  struct stat st;
  const bool misaligned = ::stat(path_.c_str(), &st) == 0 && st.st_size > 0 &&
                          static_cast<uint64_t>(st.st_size) % storage::kPageSize != 0;
  if (misaligned && static_cast<uint64_t>(st.st_size) < storage::kPageSize) {
    return Status::Corruption(
        StrFormat("%s is not a hazy database file (size %lld is not "
                  "page-aligned)",
                  path_.c_str(), static_cast<long long>(st.st_size)));
  }
  pager_ = std::make_unique<storage::Pager>();
  // Never truncate: an existing file is an existing database to recover.
  HAZY_RETURN_NOT_OK(pager_->Open(path_, /*preserve_existing=*/true));
  if (misaligned) {
    char hdr[storage::kPageSize];
    HAZY_RETURN_NOT_OK(pager_->Read(0, hdr));
    if (!persist::IsHazyHeaderPage(hdr)) {
      return Status::Corruption(
          StrFormat("%s is not a hazy database file (size %lld is not "
                    "page-aligned)",
                    path_.c_str(), static_cast<long long>(st.st_size)));
    }
    HAZY_RETURN_NOT_OK(pager_->TruncateTo(pager_->num_pages()));
  }
  pool_ = std::make_unique<storage::BufferPool>(pager_.get(), options_.buffer_pool_pages);
  wal_ = std::make_unique<storage::Wal>();
  const std::string wal_path = storage::WalPathFor(path_);
  struct stat wal_st;
  created_wal_file_ = ::stat(wal_path.c_str(), &wal_st) != 0;
  HAZY_RETURN_NOT_OK(wal_->Open(wal_path, options_.wal));
  // Arm the write-ahead protocol before any page can be dirtied.
  pool_->SetWal(wal_.get());
  catalog_ = std::make_unique<storage::Catalog>(pool_.get());
  catalog_->SetWal(wal_.get());
  catalog_->SetStatementLock(&stmt_lock_);
  persist::ViewCheckpointer ckpt(this);
  if (pager_->num_pages() == 0) {
    HAZY_RETURN_NOT_OK(ckpt.InitFresh());
    // A freshly formatted file starts an epoch-0 log: committed work is
    // durable (replayable onto the empty database) even before the first
    // checkpoint.
    HAZY_RETURN_NOT_OK(wal_->Reset(0));
    return StartBackgroundServices();
  }
  HAZY_RETURN_NOT_OK(ckpt.Recover());
  // Recovery has consumed the decoded log; drop the in-memory copy (the
  // file itself stays authoritative for any later crash).
  wal_->ClearRecords();
  // Recovery stayed single-threaded; the async machinery comes up only for
  // live traffic.
  return StartBackgroundServices();
}

Status Database::StartBackgroundServices() {
  if (options_.background_writer) {
    HAZY_RETURN_NOT_OK(pool_->StartBackgroundWriter(options_.writer));
  }
  if (options_.checkpointer.enabled) {
    ckpt_daemon_ = std::make_unique<persist::CheckpointDaemon>(this, options_.checkpointer);
    ckpt_daemon_->Start();
  }
  RegisterStatsCollectors();
  return Status::OK();
}

namespace {

/// Label body identifying this database: the backing file's basename.
std::string DbLabel(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return StrFormat("db=\"%s\"", base.c_str());
}

std::string ViewLabel(const ClassificationViewDef& def) {
  return StrFormat("view=\"%s\",arch=\"%s\"", def.view_name.c_str(),
                   core::ArchitectureToString(def.architecture));
}

}  // namespace

void Database::RegisterStatsCollectors() {
  if (!stats_collectors_.empty()) return;  // idempotent per open
  const std::string labels = DbLabel(path_);
  stats_collectors_.push_back(obs::RegisterWalStats(wal_.get(), labels));
  stats_collectors_.push_back(obs::RegisterBufferPoolStats(pool_.get(), labels));
  stats_collectors_.push_back(obs::RegisterPagerStats(pager_.get(), labels));
  for (ManagedView* mv : ViewListSnapshot()) {
    // Provider, not pointer: delete/relabel rebuilds swap the inner view
    // object; the ManagedView wrapper is the stable identity.
    view_collectors_.push_back(obs::RegisterViewStats(
        [p = mv]() { return p->view(); }, ViewLabel(mv->def())));
  }
}

void Database::UnregisterStatsCollectors() {
  for (uint64_t id : view_collectors_) obs::UnregisterStats(id);
  view_collectors_.clear();
  for (uint64_t id : stats_collectors_) obs::UnregisterStats(id);
  stats_collectors_.clear();
}

Status Database::SetCheckpointDaemonEnabled(bool enabled) {
  if (!pager_) return Status::InvalidArgument("database not open");
  options_.checkpointer.enabled = enabled;
  if (enabled) {
    if (ckpt_daemon_) return Status::OK();
    ckpt_daemon_ = std::make_unique<persist::CheckpointDaemon>(this, options_.checkpointer);
    ckpt_daemon_->Start();
    return Status::OK();
  }
  if (ckpt_daemon_) {
    ckpt_daemon_->Stop();
    ckpt_daemon_.reset();
  }
  return Status::OK();
}

void Database::SetWalCheckpointBytes(uint64_t bytes) {
  options_.checkpointer.wal_checkpoint_bytes = bytes;
  if (ckpt_daemon_) ckpt_daemon_->set_wal_checkpoint_bytes(bytes);
}

void Database::SetWalCheckpointSeconds(double seconds) {
  options_.checkpointer.interval_seconds = seconds;
  if (ckpt_daemon_) ckpt_daemon_->set_interval_seconds(seconds);
}

void Database::SetWriterBatchPages(size_t pages) {
  options_.writer.batch_pages = pages == 0 ? 1 : pages;
  if (pool_) pool_->SetWriterBatchPages(options_.writer.batch_pages);
}

Status Database::SetBackgroundWriterEnabled(bool enabled) {
  if (!pool_) return Status::InvalidArgument("database not open");
  options_.background_writer = enabled;
  if (enabled) {
    if (pool_->background_writer_running()) return Status::OK();
    return pool_->StartBackgroundWriter(options_.writer);
  }
  pool_->StopBackgroundWriter();
  // Leftover queued buffers are written out so the synchronous path starts
  // from a clean slate.
  return pool_->DrainWriteQueue();
}

StatusOr<uint64_t> Database::Checkpoint() {
  if (!pager_) return Status::InvalidArgument("database not open");
  obs::TraceScope ckpt_span(obs::SpanKind::kCheckpoint);
  // Snapshot-then-serialize, phase 1: write the bulk of the dirty page set
  // out (off-lock when the caller does not already hold it), so the commit
  // section below only has to flush the residue dirtied since. The
  // serialization itself must stay under the statement lock — before-image
  // WAL rollback could not distinguish a checkpoint's own system-table
  // writes from a statement's.
  HAZY_RETURN_NOT_OK(pool_->FlushUnpinned());
  // The commit section excludes foreground statements; its own
  // system-table writes re-enter the lock.
  const int64_t commit_t0 = NowNanos();
  storage::StatementLock::Scope stmt(&stmt_lock_);
  if (in_update_batch()) {
    return Status::InvalidArgument("cannot checkpoint inside an update batch");
  }
  obs::TraceScope commit_span(obs::SpanKind::kCheckpointCommit);
  StatusOr<uint64_t> epoch = persist::ViewCheckpointer(this).Checkpoint();
  // This commit answers every request posted before it finished, including
  // one posted while it ran: a later request-driven checkpoint would only
  // repeat it.
  checkpoint_requested_.store(false, std::memory_order_relaxed);
  // Always-on pause accounting (the daemon thread carries no trace): how
  // long foreground statements were excluded, lock wait included.
  static obs::Histogram* commit_hist =
      obs::Registry::Global().GetHistogram("hazy_checkpoint_commit_us");
  commit_hist->Observe(static_cast<double>(NowNanos() - commit_t0) / 1000.0);
  return epoch;
}

StatusOr<std::string> Database::EntityDocument(const ManagedView& mv,
                                               const Row& row) const {
  HAZY_ASSIGN_OR_RETURN(storage::Table * table,
                        catalog_->GetTable(mv.def_.entity_table));
  const storage::Schema& schema = table->schema();
  std::string doc;
  auto append_col = [&](size_t idx) {
    const Value& v = row[idx];
    if (std::holds_alternative<std::string>(v)) {
      if (!doc.empty()) doc.push_back(' ');
      doc += std::get<std::string>(v);
    } else if (std::holds_alternative<double>(v)) {
      if (!doc.empty()) doc.push_back(' ');
      doc += StrFormat("%.17g", std::get<double>(v));
    } else if (std::holds_alternative<int64_t>(v)) {
      if (!doc.empty()) doc.push_back(' ');
      doc += StrFormat("%lld", static_cast<long long>(std::get<int64_t>(v)));
    }
  };
  if (mv.def_.entity_text_columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      if (schema.column(i).type == storage::ColumnType::kText) append_col(i);
    }
  } else {
    for (const auto& name : mv.def_.entity_text_columns) {
      HAZY_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name));
      append_col(idx);
    }
  }
  return doc;
}

core::ViewOptions Database::EffectiveViewOptions(const ClassificationViewDef& def) const {
  core::ViewOptions vopts = options_.view_defaults;
  vopts.mode = def.mode;
  vopts.sgd.loss = def.method;
  return vopts;
}

StatusOr<std::unique_ptr<core::ClassificationView>> Database::BuildCoreView(
    const ClassificationViewDef& def) const {
  return core::MakeView(def.architecture, EffectiveViewOptions(def), pool_.get());
}

StatusOr<ManagedView*> Database::CreateClassificationView(
    const ClassificationViewDef& def) {
  storage::StatementLock::Scope stmt(&stmt_lock_);
  // The checkpoint system tables must never host a classification view —
  // its triggers would fire inside Checkpoint's own row writes.
  for (const std::string& name : {def.view_name, def.entity_table, def.label_table,
                                  def.example_table}) {
    if (persist::IsReservedTableName(name)) {
      return Status::InvalidArgument(StrFormat(
          "'%s' is in the reserved '__hazy' system-table namespace", name.c_str()));
    }
  }
  if (HasView(def.view_name) || catalog_->HasTable(def.view_name)) {
    return Status::AlreadyExists(
        StrFormat("'%s' already exists", def.view_name.c_str()));
  }
  HAZY_ASSIGN_OR_RETURN(storage::Table * entities,
                        catalog_->GetTable(def.entity_table));
  HAZY_ASSIGN_OR_RETURN(storage::Table * label_table,
                        catalog_->GetTable(def.label_table));
  HAZY_ASSIGN_OR_RETURN(storage::Table * examples,
                        catalog_->GetTable(def.example_table));
  HAZY_ASSIGN_OR_RETURN(size_t entity_key_idx,
                        entities->schema().IndexOf(def.entity_key));
  HAZY_ASSIGN_OR_RETURN(size_t label_col_idx,
                        label_table->schema().IndexOf(def.label_column));
  // Validate the example schema up front (the trigger bodies re-resolve).
  HAZY_RETURN_NOT_OK(examples->schema().IndexOf(def.example_key).status());
  HAZY_RETURN_NOT_OK(examples->schema().IndexOf(def.example_label).status());

  auto mv = std::make_unique<ManagedView>();
  mv->def_ = def;
  mv->db_ = this;

  // Enumerate the label vocabulary (binary views: exactly two labels).
  HAZY_RETURN_NOT_OK(label_table->Scan([&](const Row& row) {
    const Value& v = row[label_col_idx];
    if (std::holds_alternative<std::string>(v)) {
      mv->labels_.push_back(std::get<std::string>(v));
    }
    return true;
  }));
  if (mv->labels_.size() != 2) {
    return Status::InvalidArgument(
        StrFormat("view %s: binary classification views need exactly 2 labels, "
                  "found %zu (use core::MulticlassView for more)",
                  def.view_name.c_str(), mv->labels_.size()));
  }

  HAZY_ASSIGN_OR_RETURN(mv->feature_fn_, features::MakeFeatureFunction(def.feature_function));

  // Pass 1 (computeStats): corpus statistics over all entities.
  std::vector<std::string> corpus;
  std::vector<int64_t> ids;
  Status inner;
  HAZY_RETURN_NOT_OK(entities->Scan([&](const Row& row) {
    const Value& kv = row[entity_key_idx];
    if (!std::holds_alternative<int64_t>(kv)) {
      inner = Status::InvalidArgument("entity key must be INT");
      return false;
    }
    auto doc = EntityDocument(*mv, row);
    if (!doc.ok()) {
      inner = doc.status();
      return false;
    }
    ids.push_back(std::get<int64_t>(kv));
    corpus.push_back(std::move(*doc));
    return true;
  }));
  HAZY_RETURN_NOT_OK(inner);
  HAZY_RETURN_NOT_OK(mv->feature_fn_->ComputeStats(corpus));

  // Pass 2 (computeFeature): build the entity set.
  std::vector<core::Entity> ents;
  ents.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    HAZY_ASSIGN_OR_RETURN(ml::FeatureVector f, mv->feature_fn_->ComputeFeature(corpus[i]));
    ents.push_back(core::Entity{ids[i], std::move(f)});
  }

  HAZY_ASSIGN_OR_RETURN(mv->view_, BuildCoreView(def));
  HAZY_RETURN_NOT_OK(mv->view_->BulkLoad(ents));

  // Replay any pre-existing training examples. Inside an update batch the
  // replay queues them; fold the queue so the first epoch carries them.
  ManagedView* raw = mv.get();
  HAZY_RETURN_NOT_OK(examples->Scan([&](const Row& row) {
    inner = OnExampleInsert(raw, row);
    return inner.ok();
  }));
  HAZY_RETURN_NOT_OK(inner);
  HAZY_RETURN_NOT_OK(raw->Flush());

  HAZY_RETURN_NOT_OK(AdoptView(std::move(mv)).status());
  HAZY_RETURN_NOT_OK(ArmTriggers(raw));
  // During recovery replay the collectors are not yet registered;
  // RegisterStatsCollectors picks the view up once the database is live.
  if (!stats_collectors_.empty()) {
    view_collectors_.push_back(obs::RegisterViewStats(
        [raw]() { return raw->view(); }, ViewLabel(def)));
  }

  if (wal_) {
    // The view is derived state, but its creation is DDL that must replay
    // in order: a post-checkpoint CREATE VIEW re-trains deterministically
    // from the (already replayed) tables during redo.
    std::string payload;
    payload.push_back(static_cast<char>(storage::WalOp::kCreateView));
    persist::StateWriter w(&payload);
    persist::PutViewDef(&w, def);
    HAZY_RETURN_NOT_OK(wal_->AppendLogical(payload));
    HAZY_RETURN_NOT_OK(wal_->AutoCommit());
  }
  return raw;
}

StatusOr<ManagedView*> Database::AdoptView(std::unique_ptr<ManagedView> mv) {
  ManagedView* raw = mv.get();
  raw->epochs_.SetMetricLabels(ViewLabel(raw->def()));
  // No reader can see the view yet, so the first publish need not wait for
  // the end of an enclosing update batch.
  HAZY_RETURN_NOT_OK(raw->SealEpoch());
  raw->adopted_ = true;
  MutexLock lock(views_mu_);
  views_.push_back(std::move(mv));
  return raw;
}

Status Database::ArmTriggers(ManagedView* raw) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * entities,
                        catalog_->GetTable(raw->def_.entity_table));
  HAZY_ASSIGN_OR_RETURN(storage::Table * examples,
                        catalog_->GetTable(raw->def_.example_table));
  entities->AddInsertTrigger([this, raw](const Row& row) {
    return OnEntityInsert(raw, row);
  });
  entities->AddUpdateTrigger([this, raw](const Row& old_row, const Row& new_row) {
    return OnEntityUpdate(raw, old_row, new_row);
  });
  examples->AddInsertTrigger([this, raw](const Row& row) {
    return OnExampleInsert(raw, row);
  });
  examples->AddDeleteTrigger([this, raw](const Row& row) {
    return OnExampleDelete(raw, row);
  });
  examples->AddUpdateTrigger([this, raw](const Row& old_row, const Row& new_row) {
    return OnExampleUpdate(raw, old_row, new_row);
  });
  return Status::OK();
}

void Database::BeginUpdateBatch() {
  storage::StatementLock::Scope stmt(&stmt_lock_);
  if (batch_depth_++ == 0 && wal_) wal_->BeginGroup();
}

Status Database::EndUpdateBatch() {
  storage::StatementLock::Scope stmt(&stmt_lock_);
  if (batch_depth_ == 0) {
    return Status::InvalidArgument("EndUpdateBatch without BeginUpdateBatch");
  }
  if (--batch_depth_ > 0) return Status::OK();
  // batch_depth_ is back to 0, so the publishes below are real. Flush
  // publishes when it drains pending examples; an entity-only batch leaves
  // nothing pending (Flush early-returns), so the epoch its triggers
  // deferred is published explicitly — exactly one epoch per outermost
  // batch either way.
  Status first_error;
  for (ManagedView* v : ViewListSnapshot()) {
    Status s = v->Flush();
    if (s.ok() && v->epoch_publish_pending_) s = v->PublishEpoch();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  if (wal_) {
    // One commit marker covers the whole batch; replay re-brackets it in
    // BeginUpdateBatch/EndUpdateBatch so the amortized fold is reproduced.
    Status s = wal_->EndGroup();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  // The boundary consults the daemon's byte threshold directly, so the WAL
  // bound holds deterministically for batched ingest even when a batch
  // outpaces the daemon's poll. The checkpoint runs as the outermost
  // statement Scope exits; its failure does not fail the batch (its own
  // work committed above, and the daemon retries).
  if (ckpt_daemon_ != nullptr && wal_) {
    const uint64_t threshold = ckpt_daemon_->options().wal_checkpoint_bytes;
    if (threshold > 0 && wal_->tail_bytes() >= threshold) RequestCheckpoint();
  }
  return first_error;
}

void Database::CommitRequestedCheckpoint() {
  if (in_update_batch() || !checkpoint_requested_.load(std::memory_order_relaxed)) {
    return;
  }
  // Consumed before the attempt: a failing checkpoint is retried when the
  // daemon posts again, not at every statement exit.
  checkpoint_requested_.store(false, std::memory_order_relaxed);
  Status s = Checkpoint().status();
  if (ckpt_daemon_ != nullptr) {
    ckpt_daemon_->RecordCheckpoint(s);
  } else if (!s.ok()) {
    HAZY_LOG(Warning) << "requested checkpoint failed: " << s.ToString();
  }
}

Status Database::OnEntityInsert(ManagedView* mv, const Row& row) {
  // An arriving entity is classified under the view's current model; apply
  // any queued training examples first so batching cannot reorder the two.
  HAZY_RETURN_NOT_OK(mv->Flush());
  HAZY_ASSIGN_OR_RETURN(storage::Table * entities,
                        catalog_->GetTable(mv->def_.entity_table));
  HAZY_ASSIGN_OR_RETURN(size_t key_idx, entities->schema().IndexOf(mv->def_.entity_key));
  const Value& kv = row[key_idx];
  if (!std::holds_alternative<int64_t>(kv)) {
    return Status::InvalidArgument("entity key must be INT");
  }
  HAZY_ASSIGN_OR_RETURN(std::string doc, EntityDocument(*mv, row));
  HAZY_RETURN_NOT_OK(mv->feature_fn_->ComputeStatsInc(doc));
  HAZY_ASSIGN_OR_RETURN(ml::FeatureVector f, mv->feature_fn_->ComputeFeature(doc));
  core::Entity ent{std::get<int64_t>(kv), std::move(f)};
  HAZY_RETURN_NOT_OK(mv->view_->AddEntity(ent));
  // Mirror the append into the snapshot store builder (sealed into a chunk
  // at the next publish); a pending reset re-exports everything anyway.
  if (!mv->store_reset_pending_) {
    mv->store_builder_.Append(ent);
  }
  return mv->PublishEpoch();
}

Status Database::OnExampleInsert(ManagedView* mv, const Row& row) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * examples,
                        catalog_->GetTable(mv->def_.example_table));
  HAZY_ASSIGN_OR_RETURN(size_t key_idx, examples->schema().IndexOf(mv->def_.example_key));
  HAZY_ASSIGN_OR_RETURN(size_t label_idx,
                        examples->schema().IndexOf(mv->def_.example_label));
  const Value& kv = row[key_idx];
  const Value& lv = row[label_idx];
  if (!std::holds_alternative<int64_t>(kv) || !std::holds_alternative<std::string>(lv)) {
    return Status::InvalidArgument("example rows must be (INT id, TEXT label)");
  }
  int64_t id = std::get<int64_t>(kv);
  HAZY_ASSIGN_OR_RETURN(int sign, mv->LabelSign(std::get<std::string>(lv)));

  // The example references an entity: featurize its current tuple.
  HAZY_ASSIGN_OR_RETURN(storage::Table * entities,
                        catalog_->GetTable(mv->def_.entity_table));
  HAZY_ASSIGN_OR_RETURN(Row entity_row, entities->GetByKey(id));
  HAZY_ASSIGN_OR_RETURN(std::string doc, EntityDocument(*mv, entity_row));
  HAZY_ASSIGN_OR_RETURN(ml::FeatureVector f, mv->feature_fn_->ComputeFeature(doc));

  mv->example_log_.emplace_back(id, sign);
  if (batch_depth_ > 0) {
    // Batched-trigger mode: queue the maintenance work; ManagedView::Flush
    // applies the whole queue as one UpdateBatch.
    mv->pending_.push_back(ml::LabeledExample{id, std::move(f), sign});
    return Status::OK();
  }
  HAZY_RETURN_NOT_OK(mv->view_->Update(ml::LabeledExample{id, std::move(f), sign}));
  // An unbatched update is its own batch: publish the post-update epoch.
  return mv->PublishEpoch();
}

Status Database::OnExampleDelete(ManagedView* mv, const Row& row) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * examples,
                        catalog_->GetTable(mv->def_.example_table));
  HAZY_ASSIGN_OR_RETURN(size_t key_idx, examples->schema().IndexOf(mv->def_.example_key));
  const Value& kv = row[key_idx];
  if (!std::holds_alternative<int64_t>(kv)) {
    return Status::InvalidArgument("example key must be INT");
  }
  int64_t id = std::get<int64_t>(kv);
  auto it = std::find_if(mv->example_log_.begin(), mv->example_log_.end(),
                         [&](const auto& p) { return p.first == id; });
  if (it != mv->example_log_.end()) mv->example_log_.erase(it);
  // Paper footnote 2: deletions retrain the model from scratch.
  return RebuildFromScratch(mv);
}

Status Database::OnEntityUpdate(ManagedView* mv, const Row& old_row,
                                const Row& new_row) {
  (void)old_row;
  (void)new_row;
  // An entity's tuple (hence its features) changed: conservatively rebuild
  // the view, like the paper's non-incremental handling of mutations that
  // the incremental algorithms do not cover.
  return RebuildFromScratch(mv);
}

Status Database::OnExampleUpdate(ManagedView* mv, const Row& old_row,
                                 const Row& new_row) {
  HAZY_ASSIGN_OR_RETURN(storage::Table * examples,
                        catalog_->GetTable(mv->def_.example_table));
  HAZY_ASSIGN_OR_RETURN(size_t key_idx, examples->schema().IndexOf(mv->def_.example_key));
  HAZY_ASSIGN_OR_RETURN(size_t label_idx,
                        examples->schema().IndexOf(mv->def_.example_label));
  const Value& kv = new_row[key_idx];
  const Value& lv = new_row[label_idx];
  if (!std::holds_alternative<int64_t>(kv) || !std::holds_alternative<std::string>(lv)) {
    return Status::InvalidArgument("example rows must be (INT id, TEXT label)");
  }
  const Value& old_lv = old_row[label_idx];
  if (std::holds_alternative<std::string>(old_lv) &&
      EqualsIgnoreCase(std::get<std::string>(old_lv), std::get<std::string>(lv))) {
    return Status::OK();  // label unchanged: nothing to retrain
  }
  int64_t id = std::get<int64_t>(kv);
  HAZY_ASSIGN_OR_RETURN(int sign, mv->LabelSign(std::get<std::string>(lv)));
  for (auto& entry : mv->example_log_) {
    if (entry.first == id) entry.second = sign;
  }
  // Footnote 2: "Hazy supports deletion and change of labels by retraining
  // the model from scratch, i.e., not incrementally."
  return RebuildFromScratch(mv);
}

Status Database::RebuildFromScratch(ManagedView* mv) {
  // Queued examples are already in example_log_, which the rebuild replays.
  mv->pending_.clear();
  HAZY_ASSIGN_OR_RETURN(storage::Table * entities,
                        catalog_->GetTable(mv->def_.entity_table));
  HAZY_ASSIGN_OR_RETURN(size_t key_idx, entities->schema().IndexOf(mv->def_.entity_key));

  std::vector<core::Entity> ents;
  Status inner;
  HAZY_RETURN_NOT_OK(entities->Scan([&](const Row& row) {
    auto doc = EntityDocument(*mv, row);
    if (!doc.ok()) {
      inner = doc.status();
      return false;
    }
    auto f = mv->feature_fn_->ComputeFeature(*doc);
    if (!f.ok()) {
      inner = f.status();
      return false;
    }
    ents.push_back(core::Entity{std::get<int64_t>(row[key_idx]), std::move(*f)});
    return true;
  }));
  HAZY_RETURN_NOT_OK(inner);

  HAZY_ASSIGN_OR_RETURN(auto fresh, BuildCoreView(mv->def_));
  HAZY_RETURN_NOT_OK(fresh->BulkLoad(ents));
  // Replay the remaining training examples as one batch: a retrain only
  // needs the final model's labels, so per-example view maintenance during
  // the replay is pure waste.
  std::unordered_map<int64_t, const ml::FeatureVector*> by_id;
  for (const auto& e : ents) by_id[e.id] = &e.features;
  std::vector<ml::LabeledExample> replay;
  replay.reserve(mv->example_log_.size());
  for (const auto& [id, sign] : mv->example_log_) {
    auto fit = by_id.find(id);
    if (fit == by_id.end()) continue;  // entity itself was deleted
    replay.push_back(ml::LabeledExample{id, *fit->second, sign});
  }
  HAZY_RETURN_NOT_OK(fresh->UpdateBatch(replay));
  // Swap atomically: concurrent snapshot readers may hold a SharedView
  // handle to the old object (it stays alive until they drop it).
  std::atomic_store(&mv->view_,
                    std::shared_ptr<core::ClassificationView>(std::move(fresh)));
  // The entity set may have changed identity-wise; re-seed the snapshot
  // store from the rebuilt view at the next publish.
  mv->store_reset_pending_ = true;
  return mv->PublishEpoch();
}

Status Database::ApplyWalOp(std::string_view payload) {
  if (payload.empty()) return Status::Corruption("empty logical wal record");
  const auto op = static_cast<storage::WalOp>(payload[0]);
  std::string_view cur = payload.substr(1);
  auto get_string = [&cur](std::string* out) -> Status {
    std::string_view s;
    if (!storage::GetLengthPrefixed(&cur, &s)) {
      return Status::Corruption("truncated logical wal record");
    }
    out->assign(s);
    return Status::OK();
  };
  switch (op) {
    case storage::WalOp::kRowInsert:
    case storage::WalOp::kRowDelete:
    case storage::WalOp::kRowUpdate: {
      // Compact varint layout (WAL v2) — see Table::LogRowOp.
      std::string_view name;
      if (!storage::GetVarintLengthPrefixed(&cur, &name)) {
        return Status::Corruption("truncated logical wal record");
      }
      HAZY_ASSIGN_OR_RETURN(storage::Table * table,
                            catalog_->GetTable(std::string(name)));
      int64_t key = 0;
      if (op != storage::WalOp::kRowInsert &&
          !storage::GetVarint64Signed(&cur, &key)) {
        return Status::Corruption("truncated logical wal record");
      }
      if (op == storage::WalOp::kRowDelete) {
        return table->DeleteByKey(key);
      }
      Row row;
      HAZY_RETURN_NOT_OK(table->schema().DecodeRowCompact(cur, &row));
      if (op == storage::WalOp::kRowInsert) return table->Insert(row);
      return table->UpdateByKey(key, row);
    }
    case storage::WalOp::kCreateTable: {
      std::string name;
      HAZY_RETURN_NOT_OK(get_string(&name));
      uint32_t ncols = 0;
      if (!storage::GetFixed32(&cur, &ncols) || ncols > cur.size()) {
        return Status::Corruption("truncated logical wal record");
      }
      std::vector<storage::Column> cols;
      cols.reserve(ncols);
      for (uint32_t i = 0; i < ncols; ++i) {
        storage::Column col;
        HAZY_RETURN_NOT_OK(get_string(&col.name));
        if (cur.empty()) return Status::Corruption("truncated logical wal record");
        col.type = static_cast<storage::ColumnType>(cur[0]);
        cur.remove_prefix(1);
        cols.push_back(std::move(col));
      }
      if (cur.size() < 5) return Status::Corruption("truncated logical wal record");
      bool has_pk = cur[0] != 0;
      cur.remove_prefix(1);
      uint32_t pk = 0;
      storage::GetFixed32(&cur, &pk);
      return catalog_
          ->CreateTable(name, storage::Schema(std::move(cols)),
                        has_pk ? std::optional<size_t>(pk) : std::nullopt)
          .status();
    }
    case storage::WalOp::kCreateView: {
      persist::StateReader r(cur);
      ClassificationViewDef def;
      HAZY_RETURN_NOT_OK(persist::GetViewDef(&r, &def));
      return CreateClassificationView(def).status();
    }
    case storage::WalOp::kViewFlush: {
      std::string name;
      HAZY_RETURN_NOT_OK(get_string(&name));
      HAZY_ASSIGN_OR_RETURN(ManagedView * mv, GetView(name));
      return mv->Flush();
    }
  }
  return Status::Corruption("unknown logical wal op");
}

Status Database::ReplayWal() {
  // Redo must not re-log itself (the records already exist); before-image
  // logging stays on, so a crash during redo rolls back and redoes again —
  // replay is idempotent from the checkpoint baseline.
  storage::WalLogicalPauseGuard pause(wal_.get());

  const auto& records = wal_->records();
  std::vector<std::string_view> group;
  size_t replayed = 0;
  for (const auto& rec : records) {
    if (rec.type == storage::WalRecordType::kLogical) {
      group.push_back(rec.payload);
      continue;
    }
    if (rec.type == storage::WalRecordType::kAbort) {
      // A crash's uncommitted tail, closed off by a previous recovery: the
      // operation never acknowledged, so it is rolled back, not replayed.
      group.clear();
      continue;
    }
    if (rec.type != storage::WalRecordType::kCommit) continue;
    const bool batched = !rec.payload.empty() && rec.payload[0] != 0;
    if (batched) BeginUpdateBatch();
    Status hard_error;
    for (std::string_view payload : group) {
      Status op_status = ApplyWalOp(payload);
      if (op_status.ok()) {
        ++replayed;
        continue;
      }
      // A tolerated class of failure is the deterministic re-run of a
      // trigger/constraint error the live system already saw and moved past
      // — later operations in the group DID commit and must still replay.
      // Anything else is real corruption and must stop recovery.
      if (!op_status.IsInvalidArgument() && !op_status.IsAlreadyExists() &&
          !op_status.IsNotFound()) {
        hard_error = op_status;
        break;
      }
      HAZY_LOG(Warning) << "wal redo: tolerated deterministic failure: "
                        << op_status.ToString();
    }
    if (batched) {
      Status flushed = EndUpdateBatch();
      if (hard_error.ok() && !flushed.ok()) hard_error = flushed;
    }
    group.clear();
    if (!hard_error.ok()) return hard_error;
  }
  // Records after the last commit marker stay un-replayed: the operation
  // never committed, so it is rolled back — never a half-applied statement.
  if (replayed > 0) {
    HAZY_LOG(Info) << "wal redo: replayed " << replayed
                   << " committed operations onto checkpoint epoch "
                   << checkpoint_epoch();
  }
  return Status::OK();
}

Status Database::CopyCompactInto(Database* fresh) {
  HAZY_RETURN_NOT_OK(fresh->Open());
  // The bulk copy needs no logical log: the final checkpoint below seals
  // the compacted image, and the log is rebased on it.
  storage::WalLogicalPauseGuard pause(fresh->wal_.get());

  for (const auto& name : catalog_->TableNames()) {
    if (persist::IsReservedTableName(name)) continue;  // rebuilt by checkpoint
    HAZY_ASSIGN_OR_RETURN(storage::Table * src, catalog_->GetTable(name));
    HAZY_ASSIGN_OR_RETURN(
        storage::Table * dst,
        fresh->catalog_->CreateTable(name, src->schema(), src->primary_key()));
    Status inner;
    HAZY_RETURN_NOT_OK(src->Scan([&](const Row& row) {
      inner = dst->Insert(row);
      return inner.ok();
    }));
    HAZY_RETURN_NOT_OK(inner);
  }
  // Views carry over bit-identically through their serialized state — the
  // same blobs a checkpoint writes and recovery reads.
  persist::ViewCheckpointer src_ckpt(this);
  persist::ViewCheckpointer dst_ckpt(fresh);
  for (ManagedView* mv : ViewListSnapshot()) {
    std::string blob;
    HAZY_RETURN_NOT_OK(src_ckpt.SerializeViewState(*mv, &blob));
    HAZY_RETURN_NOT_OK(dst_ckpt.RestoreViewFromBlob(blob));
  }
  return fresh->Checkpoint().status();
}

void Database::ResetHandles() {
  // Flip closed before touching any handle: unserialized statement dispatch
  // (the snapshot-read path) checks is_open() instead of racing catalog_.
  open_.store(false, std::memory_order_release);
  UnregisterStatsCollectors();
  if (ckpt_daemon_) ckpt_daemon_->Stop();
  ckpt_daemon_.reset();
  if (pool_) pool_->StopBackgroundWriter();
  {
    MutexLock lock(views_mu_);
    views_.clear();
  }
  catalog_.reset();
  if (wal_ && wal_->is_open()) wal_->Close().ok();
  wal_.reset();
  pool_.reset();
  if (pager_ && pager_->is_open()) pager_->Close().ok();
  pager_.reset();
  checkpoint_epoch_ = 0;
}

Status Database::Compact() {
  // The swap below invalidates every handle, and the refused-snapshot
  // fallback path (sql/executor.cc) waits out the swap on the statement
  // mutex — so the whole compaction must run under it. Acquired here rather
  // than assumed of the caller: SQL VACUUM already holds it (recursive
  // re-entry), and a direct API caller gets the same exclusion instead of
  // racing concurrent statements.
  storage::StatementLock::Scope stmt(&stmt_lock_);
  if (!pager_) return Status::InvalidArgument("database not open");
  if (in_update_batch()) {
    return Status::InvalidArgument("cannot VACUUM inside an update batch");
  }
  // The checkpoint daemon must stop before ResetHandles: its copy phase
  // flushes the pool without the statement lock. It never blocks on the
  // lock held here, so the join returns within one poll. It restarts with
  // the reopened file (options_.checkpointer is unchanged).
  if (ckpt_daemon_) {
    ckpt_daemon_->Stop();
    ckpt_daemon_.reset();
  }
  // Baseline: everything pending becomes durable before the rewrite.
  HAZY_RETURN_NOT_OK(Checkpoint().status());

  const std::string tmp_path = path_ + ".compact";
  const std::string tmp_wal = storage::WalPathFor(tmp_path);
  ::unlink(tmp_path.c_str());
  ::unlink(tmp_wal.c_str());
  {
    DatabaseOptions opts;
    opts.path = tmp_path;
    opts.buffer_pool_pages = options_.buffer_pool_pages;
    opts.view_defaults = options_.view_defaults;
    opts.wal = options_.wal;
    Database fresh(opts);
    Status s = CopyCompactInto(&fresh);
    if (!s.ok()) {
      ::unlink(tmp_path.c_str());
      ::unlink(tmp_wal.c_str());
      return s;
    }
  }  // fresh's destructor closes the compacted file

  // Swap the compacted file in and recover from it in place. The rename is
  // atomic (same directory), so a crash — or a failure below — leaves either
  // the old complete database or the new complete one at path_; worst case
  // we come back up on whichever it is.
  const bool owns_temp = owns_temp_file_;
  // Refuse new snapshot reads and drain the in-flight ones: they hold
  // ManagedView pointers ResetHandles is about to free. Refused readers
  // serialize behind the statement mutex (held for the whole compaction,
  // see above) and re-resolve the view afterwards.
  compacting_.store(true);
  while (snapshot_readers_.load() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ResetHandles();
  Status s;
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    s = Status::IOError(StrFormat("rename %s over %s failed", tmp_path.c_str(),
                                  path_.c_str()));
    ::unlink(tmp_path.c_str());
    ::unlink(tmp_wal.c_str());
  } else {
    ::unlink(storage::WalPathFor(path_).c_str());
    ::rename(tmp_wal.c_str(), storage::WalPathFor(path_).c_str());
  }
  if (s.ok()) s = OpenImpl();
  if (s.ok()) {
    open_.store(true, std::memory_order_release);
  } else {
    // Never leave a half-torn-down handle behind a returned error: recover
    // onto whatever complete database sits at path_, or close out cleanly
    // so every later call reports "database not open" instead of crashing.
    ResetHandles();
    if (OpenImpl().ok()) {
      open_.store(true, std::memory_order_release);
    } else {
      ResetHandles();
    }
  }
  owns_temp_file_ = owns_temp;
  compacting_.store(false);
  return s;
}

bool Database::TryEnterSnapshotRead() {
  snapshot_readers_.fetch_add(1);
  if (compacting_.load() || !is_open()) {
    // Raced a VACUUM swap, or the database is closed/closing: back out so a
    // compaction drain does not wait on us. The open_ check closes the
    // teardown hole — Close flips open_ first, so a reader registering
    // after that never resolves handles ResetHandles is about to free.
    snapshot_readers_.fetch_sub(1);
    return false;
  }
  return true;
}

void Database::LeaveSnapshotRead() { snapshot_readers_.fetch_sub(1); }

std::vector<ManagedView*> Database::ViewListSnapshot() const {
  MutexLock lock(views_mu_);
  std::vector<ManagedView*> out;
  out.reserve(views_.size());
  for (const auto& v : views_) out.push_back(v.get());
  return out;
}

StatusOr<ManagedView*> Database::GetView(const std::string& name) const {
  MutexLock lock(views_mu_);
  for (const auto& v : views_) {
    if (EqualsIgnoreCase(v->name(), name)) return v.get();
  }
  return Status::NotFound(StrFormat("no classification view named '%s'", name.c_str()));
}

bool Database::HasView(const std::string& name) const {
  MutexLock lock(views_mu_);
  for (const auto& v : views_) {
    if (EqualsIgnoreCase(v->name(), name)) return true;
  }
  return false;
}

std::vector<std::string> Database::ViewNames() const {
  MutexLock lock(views_mu_);
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& v : views_) out.push_back(v->name());
  return out;
}

}  // namespace hazy::engine
