#include "harness.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "common/random.h"
#include "obs/metrics.h"
#include "storage/wal.h"

namespace perfbench {

using hazy::Status;
using hazy::StatusOr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

void SyncDatabaseFiles(const std::string& path) {
  for (const std::string& p : {path, hazy::storage::WalPathFor(path)}) {
    const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fdatasync(fd);
    ::close(fd);
  }
}

void RemoveDatabaseFiles(const std::string& path) {
  ::unlink(path.c_str());
  ::unlink(hazy::storage::WalPathFor(path).c_str());
}

// ---------------------------------------------------------------------------

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Samples::Mean() const {
  if (v_.empty()) return 0;
  double sum = 0;
  for (double v : v_) sum += v;
  return sum / static_cast<double>(v_.size());
}

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  m_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string Metrics::Json() const {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, vu] : m_) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.12g", vu.first);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + vu.second + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------

const char* OpName(Op op) {
  switch (op) {
    case Op::kInsertExamples: return "insert_examples";
    case Op::kInsertEntity: return "insert_entity";
    case Op::kCheckpoint: return "checkpoint";
    case Op::kPoint: return "point";
    case Op::kCount: return "count";
  }
  return "?";
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "bench.request";
    case SpanName::kParse: return "sql.parse";
    case SpanName::kRoute: return "engine.snapshot_route";
    case SpanName::kLockWait: return "engine.lock_wait";
    case SpanName::kExecute: return "sql.execute";
    case SpanName::kClientCall: return "client.call";
  }
  return "?";
}

void ThreadTrace::BeginRequest(uint64_t request, Op op, bool traced) {
  request_ = request;
  op_ = op;
  recording_ = traced;
  stack_.clear();
  Open(SpanName::kRequest);
}

void ThreadTrace::EndRequest() {
  if (recording_ && !stack_.empty()) Close(stack_.front());
  recording_ = false;
}

int ThreadTrace::Open(SpanName name) {
  if (!recording_) return -1;
  SpanRecord r;
  r.request = request_;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.name = name;
  r.op = op_;
  const int index = static_cast<int>(records_.size());
  stack_.push_back(index);
  if (records_.capacity() == records_.size()) {
    records_.reserve(std::max<size_t>(4096, 2 * records_.size()));
  }
  r.start_ns = NowNs();
  records_.push_back(r);
  return index;
}

void ThreadTrace::Close(int index) {
  if (index < 0) return;
  records_[static_cast<size_t>(index)].end_ns = NowNs();
  while (!stack_.empty() && stack_.back() >= index) stack_.pop_back();
}

// ---------------------------------------------------------------------------

Corpus MakeCorpus(uint64_t seed, double scale) {
  Corpus c;
  c.docs = hazy::data::GenerateTextCorpus(hazy::data::DBLifeLike(scale, seed));
  for (size_t i = 0; i < c.docs.size(); ++i) c.docs[i].id = static_cast<int64_t>(i);
  c.loaded = c.docs.size() * 9 / 10;
  c.example_order.resize(c.loaded);
  for (size_t i = 0; i < c.loaded; ++i) c.example_order[i] = static_cast<int64_t>(i);
  hazy::Rng rng(seed ^ 0x5eed5eed5eedULL);
  rng.Shuffle(&c.example_order);
  return c;
}

const char* LabelFor(int truth) { return truth > 0 ? "DB" : "OTHER"; }

std::string InsertExamplesSql(const Corpus& corpus, uint64_t* cursor, size_t rows) {
  std::string sql = "INSERT INTO Examples VALUES ";
  for (size_t i = 0; i < rows; ++i, ++*cursor) {
    const int64_t id = corpus.example_order[*cursor % corpus.example_order.size()];
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(id) + ", '" +
           LabelFor(corpus.docs[static_cast<size_t>(id)].label) + "')";
  }
  return sql;
}

std::string InsertEntitySql(const hazy::data::Document& doc) {
  return "INSERT INTO Papers VALUES (" + std::to_string(doc.id) + ", '" + doc.text + "')";
}

std::string PointSql(int64_t id) {
  return "SELECT class FROM V WHERE id = " + std::to_string(id);
}

const char* const kCountSql = "SELECT COUNT(*) FROM V WHERE class = 'DB'";

// ---------------------------------------------------------------------------

hazy::engine::DatabaseOptions MakeOptions(const DbSpec& spec, const std::string& path) {
  hazy::engine::DatabaseOptions o;
  o.path = path;
  o.buffer_pool_pages = spec.pool_pages;
  o.wal.sync_mode = hazy::storage::WalOptions::SyncMode::kGroupCommit;
  o.background_writer = true;
  o.checkpointer.enabled = false;
  return o;
}

StatusOr<std::unique_ptr<hazy::engine::Database>> BuildDatabase(
    const DbSpec& spec, const Corpus& corpus, const std::string& path) {
  RemoveDatabaseFiles(path);
  auto db = std::make_unique<hazy::engine::Database>(MakeOptions(spec, path));
  HAZY_RETURN_NOT_OK(db->Open());
  hazy::sql::Executor exec(db.get());
  auto run = [&](const std::string& sql) -> Status {
    auto rs = exec.Execute(sql);
    if (!rs.ok()) {
      return Status::Internal("set-up statement failed: " + sql.substr(0, 80) +
                              ": " + rs.status().ToString());
    }
    return Status::OK();
  };
  HAZY_RETURN_NOT_OK(run("CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT)"));
  HAZY_RETURN_NOT_OK(run("CREATE TABLE Areas (label TEXT)"));
  HAZY_RETURN_NOT_OK(run("INSERT INTO Areas VALUES ('DB'), ('OTHER')"));
  HAZY_RETURN_NOT_OK(run("CREATE TABLE Examples (id INT, label TEXT)"));
  constexpr size_t kRowsPerInsert = 1000;
  for (size_t base = 0; base < corpus.loaded; base += kRowsPerInsert) {
    std::string sql = "INSERT INTO Papers VALUES ";
    for (size_t i = base; i < std::min(corpus.loaded, base + kRowsPerInsert); ++i) {
      if (i != base) sql += ", ";
      sql += "(" + std::to_string(i) + ", '" + corpus.docs[i].text + "')";
    }
    HAZY_RETURN_NOT_OK(run(sql));
  }
  HAZY_RETURN_NOT_OK(run(
      "CREATE CLASSIFICATION VIEW V KEY id "
      "ENTITIES FROM Papers KEY id "
      "LABELS FROM Areas LABEL label "
      "EXAMPLES FROM Examples KEY id LABEL label "
      "FEATURE FUNCTION tf_bag_of_words USING SVM "
      "ARCHITECTURE " + spec.architecture + " MODE " + spec.mode));
  uint64_t cursor = 0;
  while (cursor < kWarmExamples) {
    HAZY_RETURN_NOT_OK(run(InsertExamplesSql(corpus, &cursor, 2000)));
  }
  HAZY_RETURN_NOT_OK(run("CHECKPOINT"));
  return db;
}

StatusOr<hazy::sql::ResultSet> ExecSql(hazy::engine::Database* db,
                                       hazy::sql::Executor* exec,
                                       ThreadTrace* trace, const std::string& text) {
  StatusOr<hazy::sql::Statement> stmt = Status::Internal("not parsed");
  {
    ScopedSpan span(trace, SpanName::kParse);
    stmt = hazy::sql::Parse(text);
  }
  if (!stmt.ok()) return stmt.status();
  bool snapshot = false;
  {
    ScopedSpan span(trace, SpanName::kRoute);
    snapshot = hazy::sql::IsSnapshotRead(db, *stmt);
  }
  if (snapshot) {
    ScopedSpan span(trace, SpanName::kExecute);
    return exec->Execute(*stmt);
  }
  std::unique_lock<std::recursive_mutex> lock(*db->statement_mutex(), std::defer_lock);
  {
    ScopedSpan span(trace, SpanName::kLockWait);
    lock.lock();
  }
  ScopedSpan span(trace, SpanName::kExecute);
  return exec->Execute(*stmt);
}

bool ResultLooksRight(Op op, const hazy::sql::ResultSet& rs, uint64_t max_count) {
  if (op == Op::kPoint) {
    if (rs.rows.size() != 1) return false;
    auto label = rs.TextAt(0, 0);
    return label.ok() && (*label == "DB" || *label == "OTHER");
  }
  if (op == Op::kCount) {
    if (rs.rows.size() != 1) return false;
    auto n = rs.Int64At(0, 0);
    return n.ok() && *n >= 0 && static_cast<uint64_t>(*n) <= max_count;
  }
  return true;
}

// ---------------------------------------------------------------------------

LayerCounters ReadCounters(hazy::engine::Database* db) {
  LayerCounters c;
  auto mv = db->GetView("V");
  if (mv.ok()) {
    const auto view = (*mv)->SharedView();
    const hazy::core::ViewStats s = view->stats();
    c.updates = s.updates;
    c.reorgs = s.reorgs;
    c.incremental_steps = s.incremental_steps;
    c.window_tuples = s.window_tuples;
    c.tuples_scanned = s.tuples_scanned;
    c.label_flips = s.label_flips;
    c.single_reads = s.single_reads;
    c.reads_by_bounds = s.reads_by_bounds;
    c.reads_from_store = s.reads_from_store;
    c.update_s = s.total_update_seconds;
    c.reorg_s = s.total_reorg_seconds;
    c.epochs_published = (*mv)->epochs().latest_epoch();
    c.epochs_reclaimed = (*mv)->epochs().reclaimed_total();
  }
  if (auto* pool = db->buffer_pool()) {
    const auto p = pool->stats().Snapshot();
    c.pool_hits = p.hits;
    c.pool_misses = p.misses;
    c.pool_evictions = p.evictions;
    c.pool_dirty_writebacks = p.dirty_writebacks;
    c.pager_reads = pool->pager()->stats().reads.load();
    c.pager_writes = pool->pager()->stats().writes.load();
  }
  if (const auto* wal = db->wal()) {
    c.wal_syncs = wal->stats().syncs.load();
    c.wal_commits = wal->stats().commits.load();
    c.wal_before_images = wal->stats().before_images.load();
    c.wal_bytes = wal->stats().bytes.load();
  }
  c.checkpoint_epoch = db->checkpoint_epoch();
  return c;
}

LayerCounters Delta(const LayerCounters& a, const LayerCounters& b) {
  LayerCounters d;
  d.updates = a.updates - b.updates;
  d.reorgs = a.reorgs - b.reorgs;
  d.incremental_steps = a.incremental_steps - b.incremental_steps;
  d.window_tuples = a.window_tuples - b.window_tuples;
  d.tuples_scanned = a.tuples_scanned - b.tuples_scanned;
  d.label_flips = a.label_flips - b.label_flips;
  d.single_reads = a.single_reads - b.single_reads;
  d.reads_by_bounds = a.reads_by_bounds - b.reads_by_bounds;
  d.reads_from_store = a.reads_from_store - b.reads_from_store;
  d.update_s = a.update_s - b.update_s;
  d.reorg_s = a.reorg_s - b.reorg_s;
  d.pool_hits = a.pool_hits - b.pool_hits;
  d.pool_misses = a.pool_misses - b.pool_misses;
  d.pool_evictions = a.pool_evictions - b.pool_evictions;
  d.pool_dirty_writebacks = a.pool_dirty_writebacks - b.pool_dirty_writebacks;
  d.pager_reads = a.pager_reads - b.pager_reads;
  d.pager_writes = a.pager_writes - b.pager_writes;
  d.wal_syncs = a.wal_syncs - b.wal_syncs;
  d.wal_commits = a.wal_commits - b.wal_commits;
  d.wal_before_images = a.wal_before_images - b.wal_before_images;
  d.wal_bytes = a.wal_bytes - b.wal_bytes;
  d.epochs_published = a.epochs_published - b.epochs_published;
  d.epochs_reclaimed = a.epochs_reclaimed - b.epochs_reclaimed;
  d.checkpoint_epoch = a.checkpoint_epoch - b.checkpoint_epoch;
  return d;
}

TraceSummary Summarize(const std::vector<const ThreadTrace*>& traces) {
  TraceSummary s;
  for (const ThreadTrace* t : traces) {
    const auto& recs = t->records();
    std::vector<double> child_us(recs.size(), 0.0);
    for (const SpanRecord& r : recs) {
      if (r.parent >= 0) {
        child_us[static_cast<size_t>(r.parent)] +=
            static_cast<double>(r.end_ns - r.start_ns) * 1e-3;
      }
    }
    for (size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      const double us = static_cast<double>(r.end_ns - r.start_ns) * 1e-3;
      const int name = static_cast<int>(r.name);
      s.duration_us[name][static_cast<int>(r.op)].Add(us);
      s.self_us[name] += us - child_us[i];
      ++s.spans;
      if (r.parent < 0) {
        s.request_us += us;
        ++s.requests;
      }
    }
  }
  return s;
}

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char ch : in) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

Status WriteTraceFile(const std::string& path, const std::string& meta_json,
                      const std::vector<const ThreadTrace*>& traces,
                      const TraceSummary& summary) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(f, "{\"meta\": %s,\n\"self_us\": {", meta_json.c_str());
  for (int n = 0; n < kNumSpanNames; ++n) {
    std::fprintf(f, "%s\"%s\": %.3f", n ? ", " : "",
                 SpanNameString(static_cast<SpanName>(n)), summary.self_us[n]);
  }
  std::fprintf(f, "},\n\"request_us\": %.3f, \"request_count\": %llu, \"span_count\": %llu,\n\"engine_spans\": [",
               summary.request_us, static_cast<unsigned long long>(summary.requests),
               static_cast<unsigned long long>(summary.spans));
  bool first = true;
  for (const auto& sample : hazy::obs::Registry::Global().Snapshot()) {
    if (sample.name.rfind("hazy_span_us", 0) != 0) continue;
    std::fprintf(f, "%s\n {\"name\": \"%s\", \"labels\": \"%s\", \"kind\": \"%s\", \"value\": %.6g}",
                 first ? "" : ",", sample.name.c_str(), JsonEscape(sample.labels).c_str(),
                 hazy::obs::SampleKindName(sample.kind), sample.value);
    first = false;
  }
  std::fprintf(f, "],\n\"span_columns\": [\"thread\", \"request\", \"parent\", \"name\", "
                  "\"op\", \"start_ns\", \"end_ns\"],\n\"spans\": [");
  first = true;
  for (size_t t = 0; t < traces.size(); ++t) {
    for (const SpanRecord& r : traces[t]->records()) {
      std::fprintf(f, "%s\n[%zu, %llu, %d, \"%s\", \"%s\", %lld, %lld]", first ? "" : ",", t,
                   static_cast<unsigned long long>(r.request), r.parent,
                   SpanNameString(r.name), OpName(r.op), static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? Status::OK() : Status::IOError("short write " + path);
}

}  // namespace perfbench
