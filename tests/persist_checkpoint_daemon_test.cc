// Tests for the background checkpointer (persist/checkpoint_daemon.h): WAL
// length stays bounded under sustained ingest, recovered view state is
// bit-identical with the daemon racing kills (clean drops and torn writes
// inside a daemon-initiated checkpoint), the hand-off of the commit to a
// writer holding the statement lock (batch boundaries, saturating writers,
// VACUUM joining the daemon, no nested checkpoints), and the PRAGMA knob
// surface.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "persist/checkpoint.h"
#include "persist/checkpoint_daemon.h"
#include "sql/executor.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "test_corpus.h"

namespace hazy::engine {
namespace {

using storage::ColumnType;
using storage::Row;
using storage::Schema;

// Deterministic cost model (see persist_wal_test.cc) + aggressive daemon:
// tiny byte threshold, fast polls — it checkpoints constantly, racing the
// workload statements for the statement lock.
DatabaseOptions DaemonOptions(const std::string& path, bool daemon) {
  DatabaseOptions opts;
  opts.path = path;
  opts.view_defaults.cost_model = core::CostModel::kTupleCount;
  opts.checkpointer.enabled = daemon;
  opts.checkpointer.wal_checkpoint_bytes = 2000;
  opts.checkpointer.poll_seconds = 0.001;
  return opts;
}

ClassificationViewDef TestViewDef(core::Architecture arch, core::Mode mode) {
  ClassificationViewDef def;
  def.view_name = "Labeled_Papers";
  def.entity_table = "Papers";
  def.entity_key = "id";
  def.label_table = "Paper_Area";
  def.label_column = "label";
  def.example_table = "Example_Papers";
  def.example_key = "id";
  def.example_label = "label";
  def.feature_function = "tf_idf_bag_of_words";
  def.architecture = arch;
  def.mode = mode;
  return def;
}

Status FeedExample(Database* db, int64_t id) {
  auto examples = db->catalog()->GetTable("Example_Papers");
  HAZY_RETURN_NOT_OK(examples.status());
  return (*examples)->Insert(Row{id, std::string(TestCorpusLabel(id))});
}

Status AddPaper(Database* db, int64_t id, const std::string& text) {
  auto papers = db->catalog()->GetTable("Papers");
  HAZY_RETURN_NOT_OK(papers.status());
  return (*papers)->Insert(Row{id, text});
}

// The scripted statement stream (a superset of the persist_wal_test shape:
// corpus + view + examples + new entities + a batched insert). `upto` cuts
// it short for crash-prefix sweeps.
Status RunWorkload(Database* db, core::Architecture arch, core::Mode mode,
                   int upto = 1000) {
  int step = 0;
  auto live = [&]() { return step++ < upto; };
  if (live()) BuildTestCorpus(db);
  if (live()) {
    HAZY_RETURN_NOT_OK(db->CreateClassificationView(TestViewDef(arch, mode)).status());
  }
  for (int64_t id = 0; id < kTestCorpusSize; ++id) {
    if (live()) HAZY_RETURN_NOT_OK(FeedExample(db, id));
  }
  if (live()) {
    HAZY_RETURN_NOT_OK(AddPaper(db, 100, "sql query optimizer with btree index"));
  }
  if (live()) {
    db->BeginUpdateBatch();
    HAZY_RETURN_NOT_OK(FeedExample(db, 100));
    HAZY_RETURN_NOT_OK(AddPaper(db, 101, "cell membrane protein folding pathway"));
    HAZY_RETURN_NOT_OK(FeedExample(db, 101));
    HAZY_RETURN_NOT_OK(db->EndUpdateBatch());
  }
  return Status::OK();
}

std::string StateBlobOf(Database* db) {
  auto view = db->GetView("Labeled_Papers");
  EXPECT_TRUE(view.ok());
  if (!view.ok()) return {};
  EXPECT_TRUE((*view)->Flush().ok());
  *(*view)->view()->mutable_stats() = core::ViewStats{};
  std::string blob;
  persist::ViewCheckpointer ckpt(db);
  EXPECT_TRUE(ckpt.SerializeViewState(**view, &blob).ok());
  return blob;
}

class CheckpointDaemonTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : cleanup_) {
      ::unlink(p.c_str());
      ::unlink(storage::WalPathFor(p).c_str());
    }
  }
  std::string NewPath(const char* hint) {
    cleanup_.push_back(storage::TempFilePath(hint));
    return cleanup_.back();
  }
  std::vector<std::string> cleanup_;
};

// Reference state for a workload prefix: no daemon, no crash.
std::string ReferenceBlob(core::Architecture arch, core::Mode mode, int upto) {
  Database db(DaemonOptions("", /*daemon=*/false));
  EXPECT_TRUE(db.Open().ok());
  EXPECT_TRUE(RunWorkload(&db, arch, mode, upto).ok());
  return StateBlobOf(&db);
}

TEST_F(CheckpointDaemonTest, DaemonRacingKillsRecoverBitIdentical) {
  // Kill (drop without flush) after every workload prefix while the daemon
  // checkpoints aggressively underneath: the recovered view state must be
  // bit-identical to a never-crashed, never-daemoned run of the same
  // prefix — whatever epoch the daemon managed to seal before the kill.
  const core::Architecture arch = core::Architecture::kHazyMM;
  const core::Mode mode = core::Mode::kEager;
  const int total_steps = 16;
  for (int k = 2; k <= total_steps; ++k) {
    SCOPED_TRACE("prefix " + std::to_string(k));
    const std::string path = NewPath("daemonkill");
    {
      Database db(DaemonOptions(path, /*daemon=*/true));
      ASSERT_TRUE(db.Open().ok());
      ASSERT_TRUE(RunWorkload(&db, arch, mode, k).ok());
      // Give the daemon a beat to race a checkpoint against the tail of the
      // workload, then "crash" (destructor stops the daemon mid-flight
      // state and never flushes the pool).
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Database db(DaemonOptions(path, /*daemon=*/false));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(StateBlobOf(&db), ReferenceBlob(arch, mode, k));
  }
}

TEST_F(CheckpointDaemonTest, TornWriteInsideDaemonCheckpointRollsBack) {
  // Arm a torn page write that trips while the daemon is checkpointing in
  // the background; the crash leaves a half-written checkpoint, and
  // recovery must land on the full workload state (all statements
  // committed) — bit-identical, for every architecture.
  const std::string ref =
      ReferenceBlob(core::Architecture::kHazyOD, core::Mode::kLazy, 1000);
  for (int fail_at : {3, 9, 27}) {
    SCOPED_TRACE("tear at write " + std::to_string(fail_at));
    const std::string path = NewPath("daemontorn");
    {
      Database db(DaemonOptions(path, /*daemon=*/true));
      ASSERT_TRUE(db.Open().ok());
      ASSERT_TRUE(
          RunWorkload(&db, core::Architecture::kHazyOD, core::Mode::kLazy).ok());
      // From here, tear the fail_at-th physical page write and fail all
      // later ones — whichever daemon checkpoint is in flight dies
      // mid-image. (Daemon failures are retried, not surfaced.)
      std::atomic<int> writes{0};
      std::atomic<bool> tripped{false};
      db.buffer_pool()->pager()->SetFaultHook(
          [&](const char* op, uint32_t) -> int {
            if (std::string_view(op) != "page_write") return storage::kFaultNone;
            if (tripped.load()) return storage::kFaultFail;
            if (++writes == fail_at) {
              tripped.store(true);
              return static_cast<int>(storage::kPageSize / 2);
            }
            return storage::kFaultNone;
          });
      db.checkpoint_daemon()->Poke();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      // Crash with the hook still armed.
    }
    Database db(DaemonOptions(path, /*daemon=*/false));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(StateBlobOf(&db), ref);
  }
}

TEST_F(CheckpointDaemonTest, WalStaysBoundedUnderSustainedIngest) {
  DatabaseOptions opts;
  opts.path = NewPath("daemonbound");
  opts.wal.sync_mode = storage::WalOptions::SyncMode::kGroupCommit;
  opts.checkpointer.enabled = true;
  opts.checkpointer.wal_checkpoint_bytes = 256 * 1024;
  opts.checkpointer.poll_seconds = 0.001;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  auto t = db.catalog()->CreateTable(
      "kv", Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kText}}), 0);
  ASSERT_TRUE(t.ok());
  const std::string value(512, 'v');
  uint64_t peak = 0;
  for (int64_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE((*t)->Insert(Row{i, value}).ok());
    peak = std::max(peak, db.wal()->tail_bytes());
  }
  // The tail transiently overshoots the threshold (poll latency, statements
  // in flight) but must stay within a small multiple of it — never grow
  // with the ingested volume (~2.3 MiB of rows here).
  EXPECT_LT(peak, 4 * opts.checkpointer.wal_checkpoint_bytes)
      << "WAL tail grew unbounded under ingest";
  ASSERT_NE(db.checkpoint_daemon(), nullptr);
  EXPECT_GE(db.checkpoint_daemon()->checkpoints_taken(), 2u);
  EXPECT_GE(db.checkpoint_epoch(), 2u);
  EXPECT_TRUE(db.checkpoint_daemon()->last_error().ok());
}

TEST_F(CheckpointDaemonTest, BatchBoundaryHandoffBoundsWalInsideBatches) {
  // Inside an update batch the daemon may not checkpoint; it requests one
  // at the batch boundary instead. Sustained batched ingest must therefore
  // checkpoint once per batch-ish, not never.
  DatabaseOptions opts;
  opts.path = NewPath("daemonbatch");
  opts.wal.sync_mode = storage::WalOptions::SyncMode::kGroupCommit;
  opts.checkpointer.enabled = true;
  opts.checkpointer.wal_checkpoint_bytes = 64 * 1024;
  opts.checkpointer.poll_seconds = 0.001;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  auto t = db.catalog()->CreateTable(
      "kv", Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kText}}), 0);
  ASSERT_TRUE(t.ok());
  const std::string value(512, 'v');
  int64_t id = 0;
  for (int batch = 0; batch < 8; ++batch) {
    db.BeginUpdateBatch();
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE((*t)->Insert(Row{id++, value}).ok());
    }
    ASSERT_TRUE(db.EndUpdateBatch().ok());
  }
  // Each batch writes ~230 KiB of log against a 64 KiB threshold: the
  // boundary hand-off must have checkpointed several times.
  EXPECT_GE(db.checkpoint_epoch(), 3u);
  EXPECT_LT(db.wal()->tail_bytes(), 1024u * 1024u);
}

TEST_F(CheckpointDaemonTest, SaturatingStatementWriterCommitsHandedOffCheckpoints) {
  // The writer holds the statement mutex for each single-row SQL INSERT,
  // back to back, so the lock is free only between statements. The daemon
  // never waits for it: its try-lock fails, it posts a request, and the
  // writer commits the checkpoint as its next row write exits.
  DatabaseOptions opts;
  opts.path = NewPath("daemonsaturate");
  opts.wal.sync_mode = storage::WalOptions::SyncMode::kGroupCommit;
  opts.checkpointer.enabled = true;
  opts.checkpointer.wal_checkpoint_bytes = 256 * 1024;
  opts.checkpointer.poll_seconds = 0.001;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  sql::Executor exec(&db);
  ASSERT_TRUE(exec.Execute("CREATE TABLE kv (id INT PRIMARY KEY, v TEXT);").ok());
  const std::string value(512, 'v');
  uint64_t peak = 0;
  for (int64_t i = 0; i < 4000; ++i) {
    std::lock_guard<std::recursive_mutex> stmt(*db.statement_mutex());
    auto rs = exec.Execute("INSERT INTO kv VALUES (" + std::to_string(i) + ", '" +
                           value + "');");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    peak = std::max(peak, db.wal()->tail_bytes());
  }
  EXPECT_LT(peak, 4 * opts.checkpointer.wal_checkpoint_bytes)
      << "WAL tail grew unbounded behind a saturating writer";
  EXPECT_GE(db.checkpoint_epoch(), 2u);
  ASSERT_NE(db.checkpoint_daemon(), nullptr);
  EXPECT_TRUE(db.checkpoint_daemon()->last_error().ok());
}

TEST_F(CheckpointDaemonTest, CompactJoinsPollingDaemonWhileHoldingStatementLock) {
  // VACUUM holds the statement lock while it stops (joins) the daemon. A
  // daemon polling at 1 ms with a request pending must never be blocked on
  // that lock, or the join — and the VACUUM — would never return. The 1 ms
  // interval trips every poll, so the daemon is always contending.
  DatabaseOptions opts = DaemonOptions(NewPath("daemoncompact"), /*daemon=*/true);
  opts.checkpointer.interval_seconds = 0.001;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  BuildTestCorpus(&db);
  ASSERT_TRUE(db.CreateClassificationView(
                    TestViewDef(core::Architecture::kHazyMM, core::Mode::kEager))
                  .ok());
  std::lock_guard<std::recursive_mutex> stmt(*db.statement_mutex());
  for (int64_t id = 0; id < kTestCorpusSize; ++id) {
    ASSERT_TRUE(FeedExample(&db, id).ok());
  }
  // Every poll while the lock is held can only post a request.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(db.Compact().ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  EXPECT_NE(db.checkpoint_daemon(), nullptr) << "the daemon restarts after VACUUM";
  auto examples = db.catalog()->GetTable("Example_Papers");
  ASSERT_TRUE(examples.ok());
  EXPECT_EQ((*examples)->num_rows(), static_cast<uint64_t>(kTestCorpusSize));
}

TEST_F(CheckpointDaemonTest, RequestPostedDuringCheckpointDoesNotNest) {
  // A request posted while a checkpoint writes its own system-table rows
  // (here by a trigger on __hazy_views) must not start a checkpoint inside
  // that one: those row writes hold nested Scopes, which never run the
  // hand-off. The running checkpoint answers the request, so no redundant
  // checkpoint follows at the next statement either.
  Database db(DaemonOptions(NewPath("daemonnested"), /*daemon=*/false));
  ASSERT_TRUE(db.Open().ok());
  BuildTestCorpus(&db);
  ASSERT_TRUE(db.CreateClassificationView(
                    TestViewDef(core::Architecture::kHazyMM, core::Mode::kEager))
                  .ok());
  ASSERT_TRUE(db.Checkpoint().ok());  // creates the system tables
  auto views_table = db.catalog()->GetTable(persist::kViewsTableName);
  ASSERT_TRUE(views_table.ok());
  int posted = 0;
  (*views_table)->AddInsertTrigger([&](const Row&) {
    db.RequestCheckpoint();
    ++posted;
    return Status::OK();
  });
  const uint64_t before = db.checkpoint_epoch();

  // Handed off: the row write commits the requested checkpoint on exit.
  db.RequestCheckpoint();
  ASSERT_TRUE(AddPaper(&db, 100, "sql query optimizer with btree index").ok());
  EXPECT_EQ(posted, 1);
  EXPECT_EQ(db.checkpoint_epoch(), before + 1);
  ASSERT_TRUE(AddPaper(&db, 101, "cell membrane protein folding pathway").ok());
  EXPECT_EQ(db.checkpoint_epoch(), before + 1);

  // Called directly: the same.
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(posted, 2);
  EXPECT_EQ(db.checkpoint_epoch(), before + 2);
  ASSERT_TRUE(AddPaper(&db, 102, "relational query planning").ok());
  EXPECT_EQ(db.checkpoint_epoch(), before + 2);
}

TEST_F(CheckpointDaemonTest, PragmaControlsDaemonAndWriter) {
  Database db(DaemonOptions(NewPath("daemonpragma"), /*daemon=*/false));
  ASSERT_TRUE(db.Open().ok());
  sql::Executor exec(&db);

  auto value_of = [&](const char* stmt) {
    auto rs = exec.Execute(stmt);
    EXPECT_TRUE(rs.ok()) << stmt;
    EXPECT_EQ(rs->rows.size(), 1u);
    return rs->rows[0][1];
  };

  // Daemon off by default here; PRAGMA turns it on, configures, and stops it.
  EXPECT_EQ(std::get<std::string>(value_of("PRAGMA checkpoint_daemon;")), "off");
  EXPECT_TRUE(exec.Execute("PRAGMA wal_checkpoint_bytes = 123456;").ok());
  EXPECT_TRUE(exec.Execute("PRAGMA checkpoint_daemon = on;").ok());
  ASSERT_NE(db.checkpoint_daemon(), nullptr);
  EXPECT_EQ(db.checkpoint_daemon()->options().wal_checkpoint_bytes, 123456u);
  EXPECT_EQ(std::get<std::string>(value_of("PRAGMA checkpoint_daemon;")), "on");
  EXPECT_TRUE(exec.Execute("PRAGMA checkpoint_daemon = off;").ok());
  EXPECT_EQ(db.checkpoint_daemon(), nullptr);

  // Background writer on by default; toggles + batch size round-trip.
  EXPECT_EQ(std::get<std::string>(value_of("PRAGMA bg_writer;")), "on");
  EXPECT_TRUE(exec.Execute("PRAGMA writer_batch_pages = 16;").ok());
  EXPECT_EQ(std::get<int64_t>(value_of("PRAGMA writer_batch_pages;")), 16);
  EXPECT_TRUE(exec.Execute("PRAGMA bg_writer = off;").ok());
  EXPECT_FALSE(db.buffer_pool()->background_writer_running());
  EXPECT_TRUE(exec.Execute("PRAGMA bg_writer = on;").ok());
  EXPECT_TRUE(db.buffer_pool()->background_writer_running());

  // WAL durability knobs.
  EXPECT_EQ(std::get<std::string>(value_of("PRAGMA wal_sync;")), "every_commit");
  EXPECT_TRUE(exec.Execute("PRAGMA wal_sync = group_commit;").ok());
  EXPECT_TRUE(exec.Execute("PRAGMA group_commit_interval = 8;").ok());
  EXPECT_EQ(std::get<std::string>(value_of("PRAGMA wal_sync;")), "group_commit");
  EXPECT_EQ(std::get<int64_t>(value_of("PRAGMA group_commit_interval;")), 8);
  EXPECT_FALSE(exec.Execute("PRAGMA wal_sync = sometimes;").ok());
  EXPECT_FALSE(exec.Execute("PRAGMA no_such_knob = 1;").ok());
}

}  // namespace
}  // namespace hazy::engine
