// Crash-injection suite for the write-ahead log (storage/wal.h) and the
// exact-recovery contract: after a simulated crash at any fault point —
// process kill between statements, torn page writes, a kill in the middle of
// a checkpoint — a recovered database must serve classification views that
// are *bit-identical* (serialized state, eps/water lines included) to a run
// that never crashed. Also covers the file-growth fixes: stable file size
// across checkpoint+reopen cycles and VACUUM compaction.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "persist/checkpoint.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "test_corpus.h"

namespace hazy::engine {
namespace {

using storage::ColumnType;
using storage::Row;
using storage::Schema;

struct ArchMode {
  core::Architecture arch;
  core::Mode mode;
};

std::vector<ArchMode> AllArchModes() {
  std::vector<ArchMode> out;
  for (core::Architecture arch : core::kAllArchitectures) {
    out.push_back({arch, core::Mode::kEager});
    out.push_back({arch, core::Mode::kLazy});
  }
  return out;
}

std::string ComboName(const ArchMode& am) {
  return std::string(core::ArchitectureToString(am.arch)) +
         (am.mode == core::Mode::kEager ? "/eager" : "/lazy");
}

ClassificationViewDef DefFor(const ArchMode& am) {
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
  def.architecture = am.arch;
  def.mode = am.mode;
  return def;
}

Status FeedExample(Database* db, int64_t id) {
  auto examples = db->catalog()->GetTable("Example_Papers");
  HAZY_RETURN_NOT_OK(examples.status());
  return (*examples)->Insert(Row{id, std::string(TestCorpusLabel(id))});
}

// Options under which every architecture is bit-deterministic: reorganization
// costs are tuple counts, not wall-clock seconds, so Skiing's accumulator and
// decisions replay identically. (The default kMeasuredTime is inherently
// nondeterministic across runs.)
DatabaseOptions DeterministicOptions(const std::string& path) {
  DatabaseOptions opts;
  opts.path = path;
  opts.view_defaults.cost_model = core::CostModel::kTupleCount;
  return opts;
}

Status AddPaper(Database* db, int64_t id, const std::string& text) {
  auto papers = db->catalog()->GetTable("Papers");
  HAZY_RETURN_NOT_OK(papers.status());
  return (*papers)->Insert(Row{id, text});
}

// The scripted operation stream every scenario runs: corpus + view, a
// checkpoint mid-way, then post-checkpoint training examples, new entities,
// a batched insert, and a mid-batch read (an early queue fold the WAL must
// reproduce). `upto` cuts the stream short for partial runs.
Status RunWorkload(Database* db, const ArchMode& am, int upto = 1000) {
  int step = 0;
  auto live = [&]() { return step++ < upto; };
  if (live()) BuildTestCorpus(db);
  if (live()) HAZY_RETURN_NOT_OK(db->CreateClassificationView(DefFor(am)).status());
  for (int64_t id = 0; id < 6; ++id) {
    if (live()) HAZY_RETURN_NOT_OK(FeedExample(db, id));
  }
  if (live()) HAZY_RETURN_NOT_OK(db->Checkpoint().status());
  for (int64_t id = 6; id < kTestCorpusSize; ++id) {
    if (live()) HAZY_RETURN_NOT_OK(FeedExample(db, id));
  }
  if (live()) {
    HAZY_RETURN_NOT_OK(AddPaper(db, 100, "sql query optimizer with btree index"));
  }
  if (live()) {
    db->BeginUpdateBatch();
    HAZY_RETURN_NOT_OK(FeedExample(db, 100));
    HAZY_RETURN_NOT_OK(AddPaper(db, 101, "cell membrane protein folding pathway"));
    // Mid-batch read: folds the queued examples early.
    auto view = db->GetView("Labeled_Papers");
    HAZY_RETURN_NOT_OK(view.status());
    HAZY_RETURN_NOT_OK((*view)->LabelOf(101).status());
    HAZY_RETURN_NOT_OK(FeedExample(db, 101));
    HAZY_RETURN_NOT_OK(db->EndUpdateBatch());
  }
  return Status::OK();
}

// Serialized view state — the strongest equality there is: model, trainer
// schedule position, replay log, feature statistics, per-record eps, water
// lines, Skiing accumulator. The stats counters are zeroed first: they hold
// wall-clock totals (total_update_seconds) and read-path tallies that are
// reporting-only and can never be bit-equal across two separate processes.
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

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

class WalCrashInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : cleanup_) {
      ::unlink(p.c_str());
      ::unlink(storage::WalPathFor(p).c_str());
      ::unlink((p + ".compact").c_str());
      ::unlink(storage::WalPathFor(p + ".compact").c_str());
    }
  }
  std::string NewPath(const char* hint) {
    cleanup_.push_back(storage::TempFilePath(hint));
    return cleanup_.back();
  }
  std::vector<std::string> cleanup_;
};

// The reference state for a workload prefix, from a run that never crashes.
std::string ReferenceBlob(const ArchMode& am, int upto) {
  Database db(DeterministicOptions(""));
  EXPECT_TRUE(db.Open().ok());
  EXPECT_TRUE(RunWorkload(&db, am, upto).ok());
  return StateBlobOf(&db);
}

TEST_F(WalCrashInjectionTest, KillAfterEveryStatementRecoversExactly) {
  // Crash (drop the Database without flushing anything) after the full
  // workload; recovery must redo the committed post-checkpoint suffix into
  // both the base tables and the views — bit-identically.
  for (const ArchMode& am : AllArchModes()) {
    SCOPED_TRACE(ComboName(am));
    const std::string path = NewPath("walcrash");
    {
      Database db(DeterministicOptions(path));
      ASSERT_TRUE(db.Open().ok());
      ASSERT_TRUE(RunWorkload(&db, am).ok());
      // Crash: destructor closes fds without checkpoint or flush.
    }
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(StateBlobOf(&db), ReferenceBlob(am, 1000));

    // Base tables came back too (including the batched entities).
    auto papers = db.catalog()->GetTable("Papers");
    ASSERT_TRUE(papers.ok());
    EXPECT_EQ((*papers)->num_rows(), static_cast<uint64_t>(kTestCorpusSize + 2));

    // And the recovered database keeps learning: trigger rewiring survived
    // the redo path.
    ASSERT_TRUE(AddPaper(&db, 200, "relational storage layer with recovery").ok());
    auto view = db.GetView("Labeled_Papers");
    ASSERT_TRUE(view.ok());
    EXPECT_TRUE((*view)->LabelOf(200).ok());
  }
}

TEST_F(WalCrashInjectionTest, KillAtEveryPrefixMatchesPrefixReference) {
  // Cut the workload short at every step k, crash, recover: the recovered
  // state must equal a never-crashed run of the same k steps. (Classic
  // crash-point sweep, at statement granularity.)
  const ArchMode am{core::Architecture::kHazyMM, core::Mode::kEager};
  const int total_steps = 15;  // see RunWorkload: corpus..batch
  for (int k = 2; k <= total_steps; ++k) {
    SCOPED_TRACE("prefix " + std::to_string(k));
    const std::string path = NewPath("walprefix");
    {
      Database db(DeterministicOptions(path));
      ASSERT_TRUE(db.Open().ok());
      ASSERT_TRUE(RunWorkload(&db, am, k).ok());
    }
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(StateBlobOf(&db), ReferenceBlob(am, k));
  }
}

TEST_F(WalCrashInjectionTest, KillAtEveryPrefixWithSnapshotReadersMatchesReference) {
  // The crash-point sweep again, with lock-free snapshot readers hammering
  // the view throughout the workload: concurrent reads must have zero
  // effect on durable state, so the recovered blob still matches the
  // never-crashed prefix reference exactly.
  const ArchMode am{core::Architecture::kHazyMM, core::Mode::kEager};
  const int total_steps = 15;
  for (int k = 2; k <= total_steps; ++k) {
    SCOPED_TRACE("prefix " + std::to_string(k));
    const std::string path = NewPath("walprefixread");
    {
      Database db(DeterministicOptions(path));
      ASSERT_TRUE(db.Open().ok());
      std::atomic<bool> stop{false};
      std::thread reader([&] {
        sql::Executor exec(&db);
        auto stmt = sql::Parse("SELECT * FROM Labeled_Papers");
        ASSERT_TRUE(stmt.ok());
        while (!stop.load(std::memory_order_relaxed)) {
          // Route exactly like a server session: only snapshot-eligible
          // reads run without the statement serialization (before the view
          // exists there is nothing to read).
          if (sql::IsSnapshotRead(&db, *stmt)) {
            EXPECT_TRUE(exec.Execute(*stmt).ok());
          } else {
            std::this_thread::yield();
          }
        }
      });
      Status s = RunWorkload(&db, am, k);
      stop.store(true);
      reader.join();
      ASSERT_TRUE(s.ok()) << s.ToString();
      // Crash: destructor closes fds without checkpoint or flush.
    }
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(StateBlobOf(&db), ReferenceBlob(am, k));
  }
}

TEST_F(WalCrashInjectionTest, TornPageWriteDuringCheckpointRollsBackExactly) {
  // Fail the i-th physical page write inside the *second* checkpoint, for
  // every i until the checkpoint succeeds: the database file is left with a
  // half-written checkpoint (plus a torn page), and recovery must roll back
  // to checkpoint 1 + committed suffix — never the mixed state.
  const ArchMode am{core::Architecture::kHazyOD, core::Mode::kLazy};
  const std::string ref_blob = ReferenceBlob(am, 1000);
  for (int fail_at = 1; fail_at < 200; ++fail_at) {
    SCOPED_TRACE("fail page write " + std::to_string(fail_at));
    const std::string path = NewPath("waltorn");
    bool checkpoint2_succeeded = false;
    {
      Database db(DeterministicOptions(path));
      ASSERT_TRUE(db.Open().ok());
      ASSERT_TRUE(RunWorkload(&db, am).ok());
      // Arm the fault: the fail_at-th page write from now on is torn in
      // half and everything after it fails.
      int writes = 0;
      bool tripped = false;
      db.buffer_pool()->pager()->SetFaultHook(
          [&](const char* op, uint32_t) -> int {
            if (std::string_view(op) != "page_write") return storage::kFaultNone;
            if (tripped) return storage::kFaultFail;
            if (++writes == fail_at) {
              tripped = true;
              return static_cast<int>(storage::kPageSize / 2);  // torn write
            }
            return storage::kFaultNone;
          });
      Status s = db.Checkpoint().status();
      checkpoint2_succeeded = s.ok();
      // Crash here (hook stays armed; the destructor's close does no page
      // writes).
    }
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(StateBlobOf(&db), ref_blob);
    if (checkpoint2_succeeded) break;  // fault landed after the last write
  }
}

TEST_F(WalCrashInjectionTest, FsyncFailureDuringCheckpointRecoversExactly) {
  const ArchMode am{core::Architecture::kHybrid, core::Mode::kEager};
  const std::string ref_blob = ReferenceBlob(am, 1000);
  for (int fail_at = 1; fail_at <= 3; ++fail_at) {
    SCOPED_TRACE("fail fsync " + std::to_string(fail_at));
    const std::string path = NewPath("walsync");
    {
      Database db(DeterministicOptions(path));
      ASSERT_TRUE(db.Open().ok());
      ASSERT_TRUE(RunWorkload(&db, am).ok());
      int syncs = 0;
      db.buffer_pool()->pager()->SetFaultHook(
          [&](const char* op, uint32_t) -> int {
            if (std::string_view(op) != "fdatasync") return storage::kFaultNone;
            return ++syncs >= fail_at ? storage::kFaultFail : storage::kFaultNone;
          });
      db.Checkpoint().status().ok();  // may fail; either way we crash next
    }
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(StateBlobOf(&db), ref_blob);
  }
}

TEST_F(WalCrashInjectionTest, TornWalTailDropsOnlyUncommittedSuffix) {
  // Truncate the WAL mid-record (a torn commit write): recovery must keep
  // every committed group and drop the torn tail, not reject the log.
  const ArchMode am{core::Architecture::kNaiveMM, core::Mode::kEager};
  const std::string path = NewPath("waltail");
  {
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(RunWorkload(&db, am).ok());
  }
  const std::string wal_path = storage::WalPathFor(path);
  const uint64_t wal_size = FileSize(wal_path);
  ASSERT_GT(wal_size, 32u);
  ASSERT_EQ(::truncate(wal_path.c_str(), static_cast<off_t>(wal_size - 7)), 0);
  Database db(DeterministicOptions(path));
  ASSERT_TRUE(db.Open().ok());
  // The last committed operation before the torn record was part of the
  // workload; whatever the cut point, the recovered view must match SOME
  // never-crashed prefix — and the base tables must agree with the view.
  auto view = db.GetView("Labeled_Papers");
  ASSERT_TRUE(view.ok());
  std::string blob = StateBlobOf(&db);
  bool matches_a_prefix = false;
  for (int k = 2; k <= 15 && !matches_a_prefix; ++k) {
    matches_a_prefix = blob == ReferenceBlob(am, k);
  }
  EXPECT_TRUE(matches_a_prefix);
}

TEST_F(WalCrashInjectionTest, DoubleCrashAndUncommittedTailStayExact) {
  // A statement whose commit marker tears mid-write must roll back entirely
  // at recovery (never half-applied), and recovery itself must be
  // crash-safe: the abort marker closing the uncommitted tail is appended —
  // nothing durable is destroyed — so a second crash recovers identically.
  const ArchMode am{core::Architecture::kHazyMM, core::Mode::kEager};
  const std::string ref_blob = ReferenceBlob(am, 1000);
  const std::string path = NewPath("waldouble");
  {
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(RunWorkload(&db, am).ok());
    // Tear the NEXT statement's flush: with the buffered append path the
    // insert's logical record and its commit marker reach the file in one
    // pwrite at the commit fsync — tear it a few bytes in, and the process
    // "crashes" with a half-written statement on disk.
    int appends = 0;
    db.wal()->SetFaultHook([&](const char* op, uint32_t) -> int {
      if (std::string_view(op) != "wal_append") return storage::kFaultNone;
      return ++appends == 1 ? 5 : storage::kFaultNone;  // torn statement flush
    });
    Status s = AddPaper(&db, 999, "torn away by the crash");
    EXPECT_FALSE(s.ok());  // the commit never acknowledged
  }
  for (int crash_cycle = 0; crash_cycle < 2; ++crash_cycle) {
    SCOPED_TRACE("crash cycle " + std::to_string(crash_cycle));
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(StateBlobOf(&db), ref_blob);
    // The torn statement is fully rolled back: no half-applied row.
    auto papers = db.catalog()->GetTable("Papers");
    ASSERT_TRUE(papers.ok());
    EXPECT_EQ((*papers)->num_rows(), static_cast<uint64_t>(kTestCorpusSize + 2));
    EXPECT_FALSE((*papers)->GetByKey(999).ok());
    // Drop without checkpoint: the next cycle recovers from the same log
    // (now carrying the abort marker) and must land on the same point.
  }
}

TEST_F(WalCrashInjectionTest, OverflowSizedRowsSurviveCrash) {
  // Logical records carry whole encoded rows; a row big enough to spill to
  // overflow pages (well past one page) must replay like any other — and
  // must not poison the records behind it.
  const std::string path = NewPath("walbig");
  const std::string big(40000, 'B');
  {
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    auto t = db.catalog()->CreateTable(
        "kv", Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kText}}), 0);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Insert(Row{int64_t{1}, big}).ok());
    ASSERT_TRUE((*t)->Insert(Row{int64_t{2}, std::string("small")}).ok());
    // Crash without checkpoint.
  }
  Database db(DeterministicOptions(path));
  ASSERT_TRUE(db.Open().ok());
  auto t = db.catalog()->GetTable("kv");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 2u);
  auto row1 = (*t)->GetByKey(1);
  ASSERT_TRUE(row1.ok());
  EXPECT_EQ(std::get<std::string>((*row1)[1]), big);
  EXPECT_TRUE((*t)->GetByKey(2).ok());
}

TEST_F(WalCrashInjectionTest, ForeignFileWithStaleWalIsNeverTouched) {
  // A database deleted and replaced by a foreign page-aligned file, with the
  // old sidecar log left behind: recovery must refuse — never write a byte
  // into a file that does not identify as a hazy database.
  const std::string donor_path = NewPath("waldonor");
  {
    // A real checkpointed database donates a plausible page-0 image.
    Database donor(DeterministicOptions(donor_path));
    ASSERT_TRUE(donor.Open().ok());
    BuildTestCorpus(&donor);
    ASSERT_TRUE(donor.Checkpoint().ok());
  }
  char page0[storage::kPageSize];
  {
    storage::Pager pager;
    ASSERT_TRUE(pager.Open(donor_path, /*preserve_existing=*/true).ok());
    ASSERT_TRUE(pager.Read(0, page0).ok());
  }

  const std::string path = NewPath("walforeign");
  const std::string foreign(2 * storage::kPageSize, 'x');
  {
    std::ofstream f(path, std::ios::binary);
    f.write(foreign.data(), static_cast<std::streamsize>(foreign.size()));
  }
  {
    storage::Wal wal;
    ASSERT_TRUE(wal.Open(storage::WalPathFor(path), storage::WalOptions{}).ok());
    ASSERT_TRUE(wal.Reset(1).ok());
    ASSERT_TRUE(wal.AppendBeforeImage(0, page0).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }

  Database db(DeterministicOptions(path));
  Status s = db.Open();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::ifstream f(path, std::ios::binary);
  std::string back((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(back, foreign) << "the foreign file must be byte-identical";
}

TEST_F(WalCrashInjectionTest, GroupCommitBatchesFsyncs) {
  DatabaseOptions opts;
  opts.path = NewPath("walgroup");
  opts.wal.sync_mode = storage::WalOptions::SyncMode::kGroupCommit;
  opts.wal.group_commit_interval = 16;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  auto t = db.catalog()->CreateTable(
      "kv", Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kText}}), 0);
  ASSERT_TRUE(t.ok());
  const uint64_t syncs_before = db.wal()->stats().syncs;
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE((*t)->Insert(Row{i, std::string("x")}).ok());
  }
  const uint64_t commits = db.wal()->stats().commits;
  const uint64_t syncs = db.wal()->stats().syncs - syncs_before;
  EXPECT_GE(commits, 64u);
  EXPECT_LE(syncs, commits / 8);  // one fsync amortized over >= 8 commits
}

class WalFileSizeTest : public WalCrashInjectionTest {};

TEST_F(WalFileSizeTest, FileSizeStableAcrossCheckpointReopenCycles) {
  // The leak this PR closes: every checkpoint+reopen cycle used to strand
  // the pre-restart view-state chains; with the persisted free list and the
  // recovery mark-and-sweep the file size must reach a fixed point.
  const ArchMode am{core::Architecture::kHazyOD, core::Mode::kEager};
  const std::string path = NewPath("walsize");
  {
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(RunWorkload(&db, am).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  std::vector<uint64_t> sizes;
  for (int cycle = 0; cycle < 6; ++cycle) {
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    sizes.push_back(FileSize(path));
  }
  // The first cycle may still reorganize; after that the size must not grow.
  for (size_t i = 2; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[i - 1]) << "cycle " << i << " grew the file";
  }
}

TEST_F(WalFileSizeTest, VacuumCompactsAndPreservesStateBitIdentically) {
  const ArchMode am{core::Architecture::kHazyMM, core::Mode::kLazy};
  const std::string path = NewPath("walvac");
  Database db(DeterministicOptions(path));
  ASSERT_TRUE(db.Open().ok());
  ASSERT_TRUE(RunWorkload(&db, am).ok());

  // Bloat the file: a wide table inserted then deleted leaves dead pages.
  auto bloat = db.catalog()->CreateTable(
      "bloat", Schema({{"id", ColumnType::kInt64}, {"pad", ColumnType::kText}}), 0);
  ASSERT_TRUE(bloat.ok());
  const std::string pad(4000, 'p');
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE((*bloat)->Insert(Row{i, pad}).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE((*bloat)->DeleteByKey(i).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  const uint64_t bloated = FileSize(path);

  const std::string before_blob = StateBlobOf(&db);
  ASSERT_TRUE(db.Compact().ok());
  const uint64_t compacted = FileSize(path);
  EXPECT_LT(compacted, bloated / 2) << "VACUUM must reclaim the dead pages";

  // Views survive bit-identically and keep working.
  EXPECT_EQ(StateBlobOf(&db), before_blob);
  ASSERT_TRUE(AddPaper(&db, 300, "transaction logging and recovery").ok());
  auto view = db.GetView("Labeled_Papers");
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE((*view)->LabelOf(300).ok());

  // And the compacted database round-trips through a restart.
  ASSERT_TRUE(db.Checkpoint().ok());
}

TEST_F(WalFileSizeTest, VacuumThroughSql) {
  const std::string path = NewPath("walvacsql");
  Database db(DeterministicOptions(path));
  ASSERT_TRUE(db.Open().ok());
  sql::Executor exec(&db);
  ASSERT_TRUE(exec.Execute("CREATE TABLE t (id INT PRIMARY KEY, s TEXT);").ok());
  ASSERT_TRUE(exec.Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b');").ok());
  auto rs = exec.Execute("VACUUM;");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_NE(rs->message.find("vacuum complete"), std::string::npos);
  auto count = exec.Execute("SELECT COUNT(*) FROM t;");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0][0]), 2);
}

TEST_F(WalCrashInjectionTest, Version1SidecarAcceptedUnlessItNeedsLogicalReplay) {
  // v2 changed only the logical row-payload layout. A v1 log with no
  // logical records (the state after any clean checkpoint) must open and
  // recover fine; one that still needs logical replay must be refused
  // rather than misparsed.
  const std::string path = NewPath("walv1");
  {
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    BuildTestCorpus(&db);
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  auto patch_version = [&](uint32_t v) {
    int fd = ::open(storage::WalPathFor(path).c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    char buf[4];
    std::memcpy(buf, &v, 4);
    ASSERT_EQ(::pwrite(fd, buf, 4, 8), 4);
    ::close(fd);
  };
  patch_version(1);
  {
    Database db(DeterministicOptions(path));
    EXPECT_TRUE(db.Open().ok()) << "empty v1 sidecar must not brick the database";
    // Post-checkpoint work after the reopen (the log is rebased to v2).
    ASSERT_TRUE(AddPaper(&db, 400, "btree page splits and recovery").ok());
  }
  {
    // Leave an unreplayed logical record in the log, then mark it v1.
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(AddPaper(&db, 401, "write ahead logging protocols").ok());
  }
  patch_version(1);
  Database db(DeterministicOptions(path));
  Status s = db.Open();
  EXPECT_EQ(s.code(), StatusCode::kNotSupported) << s.ToString();
}

TEST_F(WalCrashInjectionTest, PagesCarryLsnStamps) {
  // The WAL ordering rule is visible on disk: pages written back after a
  // checkpoint carry the LSN of the record that protects them.
  const std::string path = NewPath("wallsn");
  {
    Database db(DeterministicOptions(path));
    ASSERT_TRUE(db.Open().ok());
    BuildTestCorpus(&db);
    ASSERT_TRUE(db.Checkpoint().ok());
    // Post-checkpoint mutation: dirties existing pages, which get
    // before-imaged and LSN-stamped when the next checkpoint flushes them.
    ASSERT_TRUE(AddPaper(&db, 500, "one more row").ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  storage::Pager pager;
  ASSERT_TRUE(pager.Open(path, /*preserve_existing=*/true).ok());
  char buf[storage::kPageSize];
  bool any_stamped = false;
  for (uint32_t pid = 0; pid < pager.num_pages(); ++pid) {
    if (!pager.Read(pid, buf).ok()) continue;
    if (storage::PageLsn(buf) != 0) any_stamped = true;
  }
  EXPECT_TRUE(any_stamped);
}

}  // namespace
}  // namespace hazy::engine
