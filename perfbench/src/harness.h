// Shared plumbing for the repo benchmark: the DBLife-like corpus and the
// SQL statements built from it, database set-up, the in-process statement
// path (parse -> snapshot routing -> statement mutex -> execute, as a
// server session runs it), latency samples, the benchmark's own span
// recorder, and the layer counters read as deltas around the measured phase.
//
// Everything here calls the engine only through its public headers; the
// benchmark never changes what the engine does.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/synthetic.h"
#include "engine/database.h"
#include "sql/executor.h"

namespace perfbench {

int64_t NowNs();

/// CPU time of the calling thread, in seconds.
double ThreadCpuSeconds();

/// VmHWM of this process, in MiB.
double PeakRssMb();

/// Size of a file in bytes (0 when it does not exist).
uint64_t FileBytes(const std::string& path);

/// fdatasyncs a database file and its WAL sidecar, so work timed next does
/// not wait for the operating system's write-back of earlier writes.
void SyncDatabaseFiles(const std::string& path);

/// Removes a database file and its WAL sidecar.
void RemoveDatabaseFiles(const std::string& path);

// ---------------------------------------------------------------------------
// Samples and metrics.
// ---------------------------------------------------------------------------

class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  /// Linear-interpolated quantile (q in [0,1]); 0 when empty.
  double Quantile(double q) const;
  double Mean() const;
  const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> v_;
};

/// The metrics one run prints, by name, with their units.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

// ---------------------------------------------------------------------------
// Operations and the benchmark's own spans.
// ---------------------------------------------------------------------------

enum class Op : uint8_t {
  kInsertExamples,  // multi-row INSERT INTO Examples (training examples)
  kInsertEntity,    // INSERT INTO Papers (a new entity)
  kCheckpoint,      // CHECKPOINT
  kPoint,           // SELECT class FROM V WHERE id = k   (Single Entity)
  kCount,           // SELECT COUNT(*) FROM V WHERE class = 'DB'  (All Members)
};
constexpr int kNumOps = 5;
const char* OpName(Op op);
inline bool IsRead(Op op) { return op == Op::kPoint || op == Op::kCount; }

/// Span names, one per public call the benchmark wraps.
enum class SpanName : uint8_t {
  kRequest,     // one operation, root; its self time is the generator's own
  kParse,       // sql::Parse
  kRoute,       // sql::IsSnapshotRead
  kLockWait,    // acquiring Database::statement_mutex()
  kExecute,     // sql::Executor::Execute
  kClientCall,  // HazyClient::ExecPrepared (socket or loopback)
};
constexpr int kNumSpanNames = 6;
const char* SpanNameString(SpanName name);

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;  // shared by the spans of one request
  int32_t parent = -1;   // index into the same thread's records, -1 = root
  SpanName name = SpanName::kRequest;
  Op op = Op::kPoint;
};

/// Spans of one load thread, kept in memory until the run ends. Only the
/// requests passed `traced = true` record anything; the rest cost one
/// branch per wrapped call.
class ThreadTrace {
 public:
  void BeginRequest(uint64_t request, Op op, bool traced);
  void EndRequest();
  int Open(SpanName name);
  void Close(int index);
  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  std::vector<SpanRecord> records_;
  std::vector<int32_t> stack_;
  uint64_t request_ = 0;
  Op op_ = Op::kPoint;
  bool recording_ = false;
};

class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace* trace, SpanName name)
      : trace_(trace), index_(trace->Open(name)) {}
  ~ScopedSpan() { trace_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
  int index_;
};

// ---------------------------------------------------------------------------
// Corpus and statements.
// ---------------------------------------------------------------------------

/// DBLife-like titles (at scale 1.0 the paper's size: 124k entities, ~7
/// non-zeros).
/// The first 90% of the ids are loaded before the view is created; the rest
/// arrive as new entities during the run.
struct Corpus {
  std::vector<hazy::data::Document> docs;  // docs[i].id == i
  size_t loaded = 0;
  /// Training-example arrival order over the loaded ids.
  std::vector<int64_t> example_order;
};
Corpus MakeCorpus(uint64_t seed, double scale = 1.0);

const char* LabelFor(int truth);  // +1 -> "DB", -1 -> "OTHER"

/// A multi-row INSERT of `rows` training examples, taken from the example
/// order starting at `*cursor` (wrapping; the Examples table has no key, so
/// an entity may be labeled more than once).
std::string InsertExamplesSql(const Corpus& corpus, uint64_t* cursor, size_t rows);
std::string InsertEntitySql(const hazy::data::Document& doc);
std::string PointSql(int64_t id);
extern const char* const kCountSql;

// ---------------------------------------------------------------------------
// Database set-up.
// ---------------------------------------------------------------------------

struct DbSpec {
  std::string architecture;  // HAZY_MM | HYBRID | ...
  std::string mode;          // EAGER | LAZY
  size_t pool_pages = 4096;
};

/// Options shared by every workload: WAL group commit, background writer
/// on, no checkpoint daemon (checkpoints are explicit statements).
hazy::engine::DatabaseOptions MakeOptions(const DbSpec& spec, const std::string& path);

/// Training examples inserted before timing starts: the paper's warm model
/// ("after 12k training examples", Section 4.1.1).
constexpr uint64_t kWarmExamples = 12000;

/// Opens a fresh database at `path`, loads the first 90% of the corpus,
/// creates classification view V, warms the model with the first
/// kWarmExamples entries of the example order as SQL inserts, and
/// checkpoints.
hazy::StatusOr<std::unique_ptr<hazy::engine::Database>> BuildDatabase(
    const DbSpec& spec, const Corpus& corpus, const std::string& path);

/// Runs one statement the way a server session does: parse, route snapshot
/// reads around the statement mutex, otherwise hold it while executing.
/// Each call is wrapped in the benchmark's spans.
hazy::StatusOr<hazy::sql::ResultSet> ExecSql(hazy::engine::Database* db,
                                             hazy::sql::Executor* exec,
                                             ThreadTrace* trace,
                                             const std::string& text);

/// True when `rs` has the shape `op` must return: one label for a point
/// read, one count in [0, max_count] for a count, success for the rest.
bool ResultLooksRight(Op op, const hazy::sql::ResultSet& rs, uint64_t max_count);

// ---------------------------------------------------------------------------
// Layer counters, read as deltas around the measured phase.
// ---------------------------------------------------------------------------

struct LayerCounters {
  // core (ClassificationView::stats())
  uint64_t updates = 0, reorgs = 0, incremental_steps = 0, window_tuples = 0,
           tuples_scanned = 0, label_flips = 0, single_reads = 0,
           reads_by_bounds = 0, reads_from_store = 0;
  double update_s = 0, reorg_s = 0;
  // storage (BufferPool / Pager / Wal stats)
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0,
           pool_dirty_writebacks = 0, pager_reads = 0, pager_writes = 0,
           wal_syncs = 0, wal_commits = 0, wal_before_images = 0, wal_bytes = 0;
  // engine (ManagedView::epochs()) and persist
  uint64_t epochs_published = 0, epochs_reclaimed = 0, checkpoint_epoch = 0;
};
LayerCounters ReadCounters(hazy::engine::Database* db);
LayerCounters Delta(const LayerCounters& after, const LayerCounters& before);

/// Per-span aggregates derived from all threads' records.
struct TraceSummary {
  std::array<std::array<Samples, kNumOps>, kNumSpanNames> duration_us;
  std::array<double, kNumSpanNames> self_us{};  // summed self time
  double request_us = 0;                        // summed root duration
  uint64_t spans = 0;
  uint64_t requests = 0;
};
TraceSummary Summarize(const std::vector<const ThreadTrace*>& traces);

/// Writes every span, the summary and the engine's own span histograms
/// (hazy_span_us{span=...} from the metrics registry) as one JSON file.
hazy::Status WriteTraceFile(const std::string& path, const std::string& meta_json,
                            const std::vector<const ThreadTrace*>& traces,
                            const TraceSummary& summary);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
