// Snapshot-read semantics through the engine, for every architecture in
// both maintenance modes: at a batch boundary a snapshot SQL read answers
// bit-identically to the live view; mid-batch readers stay on the pre-batch
// epoch (MVCC-lite — reads never see a half-applied batch); pinned epochs
// reclaim only after the last reader unpins; and a checkpoint racing
// concurrent snapshot readers recovers to bit-identical view state.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "persist/checkpoint.h"
#include "sql/executor.h"
#include "storage/table.h"
#include "test_corpus.h"

namespace hazy::engine {
namespace {

struct ArchMode {
  core::Architecture arch;
  core::Mode mode;
  const char* name;
};

constexpr ArchMode kArchModes[] = {
    {core::Architecture::kNaiveMM, core::Mode::kEager, "NaiveMMEager"},
    {core::Architecture::kNaiveMM, core::Mode::kLazy, "NaiveMMLazy"},
    {core::Architecture::kHazyMM, core::Mode::kEager, "HazyMMEager"},
    {core::Architecture::kHazyMM, core::Mode::kLazy, "HazyMMLazy"},
    {core::Architecture::kNaiveOD, core::Mode::kEager, "NaiveODEager"},
    {core::Architecture::kNaiveOD, core::Mode::kLazy, "NaiveODLazy"},
    {core::Architecture::kHazyOD, core::Mode::kEager, "HazyODEager"},
    {core::Architecture::kHazyOD, core::Mode::kLazy, "HazyODLazy"},
    {core::Architecture::kHybrid, core::Mode::kEager, "HybridEager"},
    {core::Architecture::kHybrid, core::Mode::kLazy, "HybridLazy"},
};

class EngineSnapshotTest : public ::testing::TestWithParam<ArchMode> {
 protected:
  void SetUp() override { OpenWithCorpus(DatabaseOptions{}); }

  /// Opens a fresh database (replacing any open one) and loads the corpus.
  void OpenWithCorpus(DatabaseOptions opts) {
    db_ = std::make_unique<Database>(std::move(opts));
    ASSERT_TRUE(db_->Open().ok());
    BuildTestCorpus(db_.get());
    auto examples = db_->catalog()->GetTable("Example_Papers");
    ASSERT_TRUE(examples.ok());
    examples_ = *examples;
    exec_ = std::make_unique<sql::Executor>(db_.get());
  }

  /// A file-backed path unique to this test and parameter, with no
  /// leftovers from an earlier run.
  std::string FreshPath(const std::string& stem) {
    const std::string path =
        ::testing::TempDir() + stem + "_" + GetParam().name + ".db";
    ::unlink(path.c_str());
    ::unlink((path + "-wal").c_str());
    return path;
  }

  ClassificationViewDef Def() {
    ClassificationViewDef def;
    def.view_name = "Labeled_Papers";
    def.entity_table = "Papers";
    def.entity_key = "id";
    def.label_table = "Paper_Area";
    def.label_column = "label";
    def.example_table = "Example_Papers";
    def.example_key = "id";
    def.example_label = "label";
    def.feature_function = "tf_bag_of_words";
    def.architecture = GetParam().arch;
    def.mode = GetParam().mode;
    return def;
  }

  ManagedView* MustCreateView() {
    auto view = db_->CreateClassificationView(Def());
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    return view.ok() ? *view : nullptr;
  }

  void TrainAll() {
    for (int64_t id = 0; id < 10; ++id) {
      const char* label = id < 5 ? "DB" : "OTHER";
      ASSERT_TRUE(examples_->Insert(
                      storage::Row{id, std::string(label)}).ok());
    }
  }

  sql::ResultSet MustExec(const std::string& sql) {
    auto rs = exec_->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : sql::ResultSet{};
  }

  std::string Encoded(const sql::ResultSet& rs) {
    std::string payload;
    EXPECT_TRUE(rs.Encode(&payload).ok());
    return payload;
  }

  std::unique_ptr<Database> db_;
  storage::Table* examples_ = nullptr;
  std::unique_ptr<sql::Executor> exec_;
};

// At a batch boundary every snapshot SQL read shape (single-entity, members,
// count) answers bit-identically to the live view's engine API — the core
// invariant that makes skipping the statement lock sound.
TEST_P(EngineSnapshotTest, SnapshotAnswersMatchLiveViewAtBatchBoundary) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  TrainAll();
  ASSERT_TRUE(view->epochs().HasPublished())
      << "no epoch published; SQL reads of this view would fail";

  for (int64_t id = 0; id < 10; ++id) {
    auto rs = MustExec("SELECT class FROM Labeled_Papers WHERE id = " +
                       std::to_string(id));
    ASSERT_EQ(rs.rows.size(), 1u);
    auto sql_label = rs.TextAt(0, 0);
    auto api_label = view->LabelOf(id);
    ASSERT_TRUE(sql_label.ok() && api_label.ok());
    EXPECT_EQ(*sql_label, *api_label) << "paper " << id;
  }

  for (const char* label : {"DB", "OTHER"}) {
    auto rs = MustExec(std::string("SELECT * FROM Labeled_Papers WHERE class = '") +
                       label + "'");
    auto api_members = view->MembersOf(label);
    ASSERT_TRUE(api_members.ok());
    std::set<int64_t> sql_ids, api_ids(api_members->begin(), api_members->end());
    for (size_t i = 0; i < rs.rows.size(); ++i) {
      auto id = rs.Int64At(i, 0);
      ASSERT_TRUE(id.ok());
      sql_ids.insert(*id);
    }
    EXPECT_EQ(sql_ids, api_ids) << label;

    auto count = MustExec(
        std::string("SELECT COUNT(*) FROM Labeled_Papers WHERE class = '") +
        label + "'");
    ASSERT_EQ(count.rows.size(), 1u);
    auto sql_count = count.Int64At(0, 0);
    auto api_count = view->CountOf(label);
    ASSERT_TRUE(sql_count.ok() && api_count.ok());
    EXPECT_EQ(static_cast<uint64_t>(*sql_count), *api_count) << label;
  }

  // The unfiltered shapes: every entity exactly once, in id order, labeled
  // as the engine API's two member lists say.
  std::vector<std::pair<int64_t, std::string>> api_all;
  for (const char* label : {"DB", "OTHER"}) {
    auto members = view->MembersOf(label);
    ASSERT_TRUE(members.ok());
    for (int64_t id : *members) api_all.emplace_back(id, label);
  }
  std::sort(api_all.begin(), api_all.end());
  auto all = MustExec("SELECT * FROM Labeled_Papers");
  std::vector<std::pair<int64_t, std::string>> sql_all;
  for (size_t i = 0; i < all.rows.size(); ++i) {
    auto id = all.Int64At(i, 0);
    auto label = all.TextAt(i, 1);
    ASSERT_TRUE(id.ok() && label.ok());
    sql_all.emplace_back(*id, *label);
  }
  EXPECT_EQ(sql_all, api_all);
  auto count = MustExec("SELECT COUNT(*) FROM Labeled_Papers");
  ASSERT_EQ(count.rows.size(), 1u);
  auto n = count.Int64At(0, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(static_cast<size_t>(*n), api_all.size());
}

// A view created inside an update batch (sql_shell '\batch on', then CREATE
// CLASSIFICATION VIEW) publishes its first epoch before it becomes visible:
// creation folds the examples its replay queued, so mid-batch SQL reads
// answer under the trained model. Replaying that batch after a restart
// rebuilds the view bit-identically.
TEST_P(EngineSnapshotTest, ViewCreatedInsideBatchReadsItsFirstEpoch) {
  const std::string path = FreshPath("hazy_batch_created_view");
  DatabaseOptions opts;
  opts.path = path;
  // Tuple-count reorganization costs keep Skiing's accumulator
  // deterministic, so replay can reproduce the state bit for bit.
  opts.view_defaults.cost_model = core::CostModel::kTupleCount;
  OpenWithCorpus(opts);
  // Examples exist before the view, so creation replays (and, inside the
  // batch, queues) all ten.
  TrainAll();

  db_->BeginUpdateBatch();
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  ASSERT_TRUE(view->epochs().HasPublished()) << "an adopted view must have an epoch";
  EXPECT_EQ(view->pending_updates(), 0u)
      << "creation must fold the examples its replay queued";

  // Mid-batch SQL answers equal the live model over the exported entities.
  std::vector<core::Entity> entities;
  ASSERT_TRUE(view->view()->ExportEntities(&entities).ok());
  ASSERT_EQ(entities.size(), static_cast<size_t>(kTestCorpusSize));
  uint64_t positives = 0;
  for (const core::Entity& e : entities) {
    const int sign = view->view()->model().Classify(e.features);
    positives += sign > 0 ? 1 : 0;
    auto rs = MustExec("SELECT class FROM Labeled_Papers WHERE id = " +
                       std::to_string(e.id));
    ASSERT_EQ(rs.rows.size(), 1u);
    auto label = rs.TextAt(0, 0);
    ASSERT_TRUE(label.ok());
    EXPECT_EQ(*label, view->LabelString(sign)) << "paper " << e.id;
  }
  for (const char* label : {"DB", "OTHER"}) {
    auto rs = MustExec(
        std::string("SELECT COUNT(*) FROM Labeled_Papers WHERE class = '") +
        label + "'");
    ASSERT_EQ(rs.rows.size(), 1u);
    auto n = rs.Int64At(0, 0);
    ASSERT_TRUE(n.ok());
    const uint64_t expected = std::string(label) == "DB"
                                  ? positives
                                  : entities.size() - positives;
    EXPECT_EQ(static_cast<uint64_t>(*n), expected) << label;
  }

  // Later work in the same batch queues; readers stay on the creation epoch
  // until the batch boundary publishes.
  const uint64_t creation_epoch = view->epochs().latest_epoch();
  auto papers = db_->catalog()->GetTable("Papers");
  ASSERT_TRUE(papers.ok());
  ASSERT_TRUE((*papers)
                  ->Insert(storage::Row{int64_t{10},
                                        std::string("database query engines")})
                  .ok());
  ASSERT_TRUE(
      examples_->Insert(storage::Row{int64_t{10}, std::string("DB")}).ok());
  EXPECT_GT(view->pending_updates(), 0u);
  EXPECT_EQ(view->epochs().latest_epoch(), creation_epoch);
  ASSERT_TRUE(db_->EndUpdateBatch().ok());
  EXPECT_EQ(view->epochs().latest_epoch(), creation_epoch + 1);

  // Read tallies and wall-clock totals are reporting-only; zero them so the
  // blobs compare the maintained state alone.
  auto state_blob = [this](ManagedView* v) {
    *v->view()->mutable_stats() = core::ViewStats{};
    std::string blob;
    EXPECT_TRUE(
        persist::ViewCheckpointer(db_.get()).SerializeViewState(*v, &blob).ok());
    return blob;
  };
  const std::string rows_live = Encoded(MustExec("SELECT * FROM Labeled_Papers"));
  const std::string blob_live = state_blob(view);

  // Close without a checkpoint: recovery replays the batch, view creation
  // included, from the write-ahead log.
  exec_.reset();
  db_.reset();
  db_ = std::make_unique<Database>(opts);
  ASSERT_TRUE(db_->Open().ok());
  exec_ = std::make_unique<sql::Executor>(db_.get());
  auto recovered = db_->GetView("Labeled_Papers");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->epochs().HasPublished());
  EXPECT_EQ(state_blob(*recovered), blob_live);
  EXPECT_EQ(Encoded(MustExec("SELECT * FROM Labeled_Papers")), rows_live);

  exec_.reset();
  db_.reset();
  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());
}

// MVCC semantics: while an update batch is open, snapshot readers keep
// answering from the last published epoch — the batch's queued model updates
// are invisible until EndUpdateBatch publishes, and the whole batch becomes
// visible atomically.
TEST_P(EngineSnapshotTest, MidBatchReaderSeesPreBatchEpoch) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  // Partial training so the mid-batch examples would move the model.
  ASSERT_TRUE(examples_->Insert(storage::Row{int64_t{0}, std::string("DB")}).ok());
  ASSERT_TRUE(
      examples_->Insert(storage::Row{int64_t{5}, std::string("OTHER")}).ok());
  ASSERT_TRUE(view->epochs().HasPublished());

  const uint64_t epoch_before = view->epochs().latest_epoch();
  const std::string rows_before = Encoded(MustExec("SELECT * FROM Labeled_Papers"));

  db_->BeginUpdateBatch();
  for (int64_t id = 1; id < 5; ++id) {
    ASSERT_TRUE(examples_->Insert(storage::Row{id, std::string("DB")}).ok());
  }
  for (int64_t id = 6; id < 10; ++id) {
    ASSERT_TRUE(examples_->Insert(storage::Row{id, std::string("OTHER")}).ok());
  }
  EXPECT_GT(view->pending_updates(), 0u) << "batch did not queue the triggers";
  // A reader inside the batch: same epoch, byte-identical answers.
  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before);
  EXPECT_EQ(Encoded(MustExec("SELECT * FROM Labeled_Papers")), rows_before);
  ASSERT_TRUE(db_->EndUpdateBatch().ok());

  // The batch boundary published exactly one new epoch with the batch fully
  // applied.
  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before + 1);
  auto rs = MustExec("SELECT * FROM Labeled_Papers");
  std::set<std::pair<int64_t, std::string>> labeled;
  for (size_t i = 0; i < rs.rows.size(); ++i) {
    auto id = rs.Int64At(i, 0);
    auto label = rs.TextAt(i, 1);
    ASSERT_TRUE(id.ok() && label.ok());
    labeled.insert({*id, *label});
  }
  // Fully trained on the separable corpus: post-batch answers are exact.
  for (int64_t id = 0; id < 10; ++id) {
    EXPECT_TRUE(labeled.count({id, id < 5 ? "DB" : "OTHER"})) << "paper " << id;
  }
}

// Regression: a multi-row INSERT into the entity table publishes exactly
// one epoch, at the batch boundary. Per-row publication would let snapshot
// readers observe a partially applied statement (which the gated path never
// allowed) and would seal one store chunk per row.
TEST_P(EngineSnapshotTest, EntityBatchPublishesOneEpochAtBoundary) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  TrainAll();
  ASSERT_TRUE(view->epochs().HasPublished());
  auto papers = db_->catalog()->GetTable("Papers");
  ASSERT_TRUE(papers.ok());

  const uint64_t epoch_before = view->epochs().latest_epoch();
  const std::string count_before =
      Encoded(MustExec("SELECT COUNT(*) FROM Labeled_Papers"));

  db_->BeginUpdateBatch();
  for (int64_t id = 10; id < 18; ++id) {
    ASSERT_TRUE(
        (*papers)
            ->Insert(storage::Row{
                id, std::string("database transactions and query processing")})
            .ok());
    EXPECT_EQ(view->epochs().latest_epoch(), epoch_before)
        << "entity insert published mid-batch at id " << id;
  }
  // A reader inside the batch stays on the pre-batch epoch: none of the new
  // entities are visible yet.
  EXPECT_EQ(Encoded(MustExec("SELECT COUNT(*) FROM Labeled_Papers")),
            count_before);
  ASSERT_TRUE(db_->EndUpdateBatch().ok());

  EXPECT_EQ(view->epochs().latest_epoch(), epoch_before + 1)
      << "an entity-only batch must publish exactly one epoch at its boundary";
  auto rs = MustExec("SELECT COUNT(*) FROM Labeled_Papers");
  ASSERT_EQ(rs.rows.size(), 1u);
  auto n = rs.Int64At(0, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kTestCorpusSize + 8);
}

// A pinned epoch stays live across later publications and reclaims only
// when the last pin releases — through the trigger/publish machinery, not
// just the core manager.
TEST_P(EngineSnapshotTest, RetiredEpochReclaimsAfterLastUnpin) {
  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  ASSERT_TRUE(examples_->Insert(storage::Row{int64_t{0}, std::string("DB")}).ok());
  ASSERT_TRUE(view->epochs().HasPublished());

  core::SnapshotPin pin = view->PinSnapshot();
  ASSERT_TRUE(pin);
  const uint64_t pinned_epoch = pin->epoch();
  const uint64_t reclaimed_before = view->epochs().reclaimed_total();

  // Each unbatched example insert publishes a new epoch, retiring the
  // pinned one.
  ASSERT_TRUE(
      examples_->Insert(storage::Row{int64_t{5}, std::string("OTHER")}).ok());
  ASSERT_TRUE(examples_->Insert(storage::Row{int64_t{1}, std::string("DB")}).ok());
  ASSERT_GT(view->epochs().latest_epoch(), pinned_epoch);
  EXPECT_TRUE(view->epochs().IsLive(pinned_epoch));

  // The pinned snapshot still answers from its own epoch's model/entity set.
  auto count = pin->AllMembersCount(+1);
  ASSERT_TRUE(count.ok());

  pin.Release();
  EXPECT_FALSE(view->epochs().IsLive(pinned_epoch));
  EXPECT_GT(view->epochs().reclaimed_total(), reclaimed_before);
}

// A checkpoint racing concurrent snapshot readers must neither block on
// them nor corrupt durable state: after the race, recovery rebuilds the
// view bit-identically (same serialized state blob).
TEST_P(EngineSnapshotTest, CheckpointRacingReadersRecoversBitIdentical) {
  const std::string path = FreshPath("hazy_snapshot_race");
  DatabaseOptions opts;
  opts.path = path;
  OpenWithCorpus(opts);

  ManagedView* view = MustCreateView();
  ASSERT_NE(view, nullptr);
  TrainAll();
  ASSERT_TRUE(view->epochs().HasPublished());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      // Snapshot reads hold no statement lock — each thread gets its own
      // executor and scans freely while the checkpoint commits.
      sql::Executor exec(db_.get());
      while (!stop.load(std::memory_order_relaxed)) {
        auto rs = exec.Execute("SELECT * FROM Labeled_Papers");
        EXPECT_TRUE(rs.ok()) << rs.status().ToString();
        if (rs.ok()) {
          EXPECT_EQ(rs->rows.size(), 10u);
        }
        ++reads;
      }
    });
  }
  while (reads.load() < 20) std::this_thread::yield();
  for (int i = 0; i < 3; ++i) {
    auto epoch = db_->Checkpoint();
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  // Persist the final state, capture its serialized form, and recover.
  ASSERT_TRUE(db_->Checkpoint().ok());
  std::string blob_live;
  ASSERT_TRUE(persist::ViewCheckpointer(db_.get())
                  .SerializeViewState(*view, &blob_live)
                  .ok());
  db_.reset();

  DatabaseOptions reopen;
  reopen.path = path;
  auto db2 = std::make_unique<Database>(reopen);
  ASSERT_TRUE(db2->Open().ok());
  auto recovered = db2->GetView("Labeled_Papers");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->epochs().HasPublished())
      << "recovery must republish a read epoch";
  std::string blob_recovered;
  ASSERT_TRUE(persist::ViewCheckpointer(db2.get())
                  .SerializeViewState(**recovered, &blob_recovered)
                  .ok());
  EXPECT_EQ(blob_live, blob_recovered);

  db2.reset();
  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());
}

// Readers running the server session's exact sequence — parse, then
// IsSnapshotRead, then Execute — while VACUUM repeatedly swaps the backing
// file and frees every ManagedView. Regression for a use-after-free: the
// view pointer used to be resolved (and dereferenced) before the reader
// registered in a SnapshotReadScope, so the swap's drain could miss the
// reader and tear the view down under it. ASan/TSan runs of this
// test catch any reintroduction.
TEST(SnapshotVacuumRaceTest, ReadersRacingVacuumNeverCrash) {
  const std::string path =
      ::testing::TempDir() + "hazy_snapshot_vacuum_race.db";
  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());

  DatabaseOptions opts;
  opts.path = path;
  Database db(opts);
  ASSERT_TRUE(db.Open().ok());
  BuildTestCorpus(&db);
  ClassificationViewDef def;
  def.view_name = "Labeled_Papers";
  def.entity_table = "Papers";
  def.entity_key = "id";
  def.label_table = "Paper_Area";
  def.label_column = "label";
  def.example_table = "Example_Papers";
  def.example_key = "id";
  def.example_label = "label";
  def.feature_function = "tf_bag_of_words";
  def.architecture = core::Architecture::kHazyMM;
  def.mode = core::Mode::kLazy;
  ASSERT_TRUE(db.CreateClassificationView(def).ok());
  auto examples = db.catalog()->GetTable("Example_Papers");
  ASSERT_TRUE(examples.ok());
  for (int64_t id = 0; id < kTestCorpusSize; ++id) {
    ASSERT_TRUE(
        (*examples)
            ->Insert(storage::Row{id, std::string(TestCorpusLabel(id))})
            .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      sql::Executor exec(&db);
      while (!stop.load(std::memory_order_relaxed)) {
        auto stmt = sql::Parse("SELECT class FROM Labeled_Papers WHERE id = 3");
        ASSERT_TRUE(stmt.ok());
        auto rs = [&]() -> StatusOr<sql::ResultSet> {
          if (sql::IsSnapshotRead(&db, *stmt)) return exec.Execute(*stmt);
          std::lock_guard<std::recursive_mutex> lock(*db.statement_mutex());
          return exec.Execute(*stmt);
        }();
        EXPECT_TRUE(rs.ok()) << rs.status().ToString();
        if (rs.ok()) {
          EXPECT_EQ(rs->rows.size(), 1u);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int i = 0; i < 4; ++i) {
    // Let the readers re-resolve fresh handles between swaps so every cycle
    // races registration against the drain, not just the first.
    const uint64_t before = reads.load(std::memory_order_relaxed);
    while (reads.load(std::memory_order_relaxed) < before + 20) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(db.Compact().ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  // The last swap recovered a live, snapshot-capable view.
  auto view = db.GetView("Labeled_Papers");
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE((*view)->epochs().HasPublished());

  ::unlink(path.c_str());
  ::unlink((path + "-wal").c_str());
}

INSTANTIATE_TEST_SUITE_P(Architectures, EngineSnapshotTest,
                         ::testing::ValuesIn(kArchModes),
                         [](const ::testing::TestParamInfo<ArchMode>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hazy::engine
