#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "client/hazy_client.h"
#include "common/parallel.h"
#include "common/random.h"
#include "ml/simd.h"
#include "oracle.h"
#include "server/server.h"
#include "storage/wal.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using hazy::Status;
using hazy::StatusOr;
using hazy::engine::Database;

namespace {

// name, {architecture, mode, pool frames}, shared pool, closed-loop threads,
// open-loop threads, connections, server workers. Load threads plus pool
// workers stay within 4 cores.
const WorkloadDef kWorkloads[] = {
    {"ingest_od", {"HYBRID", "EAGER", 256}, 1, 1, 1, 0, 0},
    {"read_mm", {"HAZY_MM", "LAZY", 4096}, 1, 2, 1, 0, 0},
    {"serve_rpc", {"HAZY_MM", "EAGER", 4096}, 1, 2, 0, 2, 2},
};

constexpr size_t kExampleRows = 32;  // rows per in-process example INSERT
constexpr int kSetupRuns = 3;
constexpr int kReopenRuns = 9;
constexpr double kTrafficWarmupSeconds = 2;

// ingest_od: the writer also inserts a new entity every 4th statement, runs a
// COUNT every 16th (between its own statements, so the scan never overlaps
// maintenance and its latency does not depend on where a reorganisation
// fell) and a CHECKPOINT every 64th; the open-loop reader sends 200 point
// reads/s.
constexpr uint64_t kEntityEvery = 4;
constexpr uint64_t kCountEvery = 16;
constexpr uint64_t kCheckpointEvery = 64;
constexpr double kIngestReaderRate = 200;
// read_mm: 10% COUNT among the closed-loop reads; the open-loop writer sends
// 20 example statements/s.
constexpr double kReadWriterRate = 20;
// serve_rpc, per 1000 requests: 2 COUNTs, 50 one-row example INSERTs, the
// rest point reads.
constexpr uint64_t kRpcCountPerMille = 2;
constexpr uint64_t kRpcInsertPerMille = 50;

/// Which requests of a traced run record spans: every `every`-th, so span
/// memory stays bounded and traced and untraced requests interleave (their
/// latency ratio is the tracing overhead).
struct Sampler {
  bool on = false;
  uint64_t every = 1;
  bool operator()(uint64_t i) const { return on && i % every == 0; }
};

/// Per-thread load accounting; merged after the threads join.
struct ThreadLoad {
  ThreadTrace trace;
  std::array<Samples, kNumOps> latency_us;  // per op: service or from-due
  Samples all_us;                           // every successful request
  Samples traced_us;    // primary op, traced requests (traced runs only)
  Samples untraced_us;  // primary op, untraced requests (traced runs only)
  Samples late_us;      // open-loop senders: send time minus due time
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t examples = 0;  // training examples acknowledged
  uint64_t reads = 0;     // reads acknowledged
  double cpu_s = 0;
  double wall_s = 0;
};

/// Books one finished operation; `primary` is the operation whose traced and
/// untraced latencies give the tracing overhead.
void RecordOp(ThreadLoad* load, Op op, bool ok, double latency_us,
              uint64_t examples, bool traced, Op primary) {
  ++load->attempted;
  if (!ok) {
    ++load->failed;
    return;
  }
  load->latency_us[static_cast<int>(op)].Add(latency_us);
  load->all_us.Add(latency_us);
  load->examples += examples;
  if (IsRead(op)) ++load->reads;
  if (op == primary) (traced ? load->traced_us : load->untraced_us).Add(latency_us);
}

using SendFn = std::function<bool(Op op, ThreadTrace* trace, uint64_t* examples)>;

void RunRequest(ThreadLoad* load, uint64_t request, Op op, bool traced, Op primary,
                int64_t t0_ns, const SendFn& send) {
  load->trace.BeginRequest(request, op, traced);
  uint64_t examples = 0;
  const bool ok = send(op, &load->trace, &examples);
  load->trace.EndRequest();
  RecordOp(load, op, ok, static_cast<double>(NowNs() - t0_ns) * 1e-3, examples,
           traced, primary);
}

/// Sends the next request as soon as the previous one returns, until
/// `done(now)`.
void ClosedLoop(ThreadLoad* load, const std::function<bool(int64_t)>& done,
                const std::function<Op()>& next, const SendFn& send, Sampler sampler,
                Op primary) {
  const double cpu0 = ThreadCpuSeconds();
  const int64_t t0 = NowNs();
  for (uint64_t i = 0; !done(NowNs()); ++i) {
    RunRequest(load, i, next(), sampler(i), primary, NowNs(), send);
  }
  load->cpu_s = ThreadCpuSeconds() - cpu0;
  load->wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
}

std::function<bool(int64_t)> Until(int64_t deadline_ns) {
  return [deadline_ns](int64_t now) { return now >= deadline_ns; };
}

/// Sends request i at start + i/rate whatever happened before, and times it
/// from that due time, so a stall also delays (and is charged to) the
/// requests queued behind it. Stops at the first due time for which
/// `done(due)` holds.
void OpenLoop(ThreadLoad* load, int64_t start_ns, const std::function<bool(int64_t)>& done,
              double rate, const std::function<Op()>& next, const SendFn& send,
              Sampler sampler, Op primary) {
  const double cpu0 = ThreadCpuSeconds();
  const double period_ns = 1e9 / rate;
  for (uint64_t i = 0;; ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    if (done(due)) break;
    // Sleep to just short of the due time, then spin: a plain sleep would
    // overshoot by the timer slack and charge it to every request.
    const int64_t slack = due - NowNs() - 300000;
    if (slack > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(slack));
    while (NowNs() < due) {
    }
    load->late_us.Add(static_cast<double>(NowNs() - due) * 1e-3);
    RunRequest(load, i, next(), sampler(i), primary, due, send);
  }
  load->cpu_s = ThreadCpuSeconds() - cpu0;
  load->wall_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// State every load thread of one run shares.
struct Shared {
  Database* db = nullptr;
  const Corpus* corpus = nullptr;
  std::atomic<uint64_t> next_example{kWarmExamples};
  std::atomic<size_t> next_entity{0};
  std::atomic<int> errors_logged{0};
};

void LogFailure(Shared* sh, Op op, const std::string& what) {
  if (sh->errors_logged.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", OpName(op), what.c_str());
  }
}

/// Sends operations in process as SQL text through ExecSql.
class SqlSender {
 public:
  SqlSender(Shared* sh, uint64_t seed, size_t example_rows)
      : sh_(sh), exec_(sh->db), rng_(seed), example_rows_(example_rows) {}

  bool Send(Op op, ThreadTrace* trace, uint64_t* examples) {
    const Corpus& c = *sh_->corpus;
    std::string sql;
    switch (op) {
      case Op::kInsertExamples: {
        uint64_t cursor = sh_->next_example.fetch_add(example_rows_);
        sql = InsertExamplesSql(c, &cursor, example_rows_);
        break;
      }
      case Op::kInsertEntity:
        sql = InsertEntitySql(c.docs[sh_->next_entity.fetch_add(1)]);
        break;
      case Op::kCheckpoint:
        sql = "CHECKPOINT";
        break;
      case Op::kPoint:
        sql = PointSql(static_cast<int64_t>(rng_.Uniform(c.loaded)));
        break;
      case Op::kCount:
        sql = kCountSql;
        break;
    }
    auto rs = ExecSql(sh_->db, &exec_, trace, sql);
    if (!rs.ok() || !ResultLooksRight(op, *rs, c.docs.size())) {
      LogFailure(sh_, op, rs.ok() ? "unexpected result shape" : rs.status().ToString());
      return false;
    }
    if (op == Op::kInsertExamples) *examples = example_rows_;
    return true;
  }

  SendFn Fn() {
    return [this](Op op, ThreadTrace* t, uint64_t* e) { return Send(op, t, e); };
  }

 private:
  Shared* sh_;
  hazy::sql::Executor exec_;
  hazy::Rng rng_;
  size_t example_rows_;
};

/// Sends operations as prepared statements through a HazyClient (socket
/// or loopback transport).
class RpcSender {
 public:
  static StatusOr<std::unique_ptr<RpcSender>> Make(
      Shared* sh, uint64_t seed, std::unique_ptr<hazy::client::HazyClient> client) {
    std::unique_ptr<RpcSender> r(new RpcSender(sh, seed, std::move(client)));
    HAZY_ASSIGN_OR_RETURN(r->point_, r->client_->Prepare("SELECT class FROM V WHERE id = ?"));
    HAZY_ASSIGN_OR_RETURN(r->count_,
                          r->client_->Prepare("SELECT COUNT(*) FROM V WHERE class = ?"));
    HAZY_ASSIGN_OR_RETURN(r->insert_, r->client_->Prepare("INSERT INTO Examples VALUES (?, ?)"));
    return r;
  }

  bool Send(Op op, ThreadTrace* trace, uint64_t* examples) {
    const Corpus& c = *sh_->corpus;
    hazy::client::PreparedHandle handle;
    std::vector<hazy::storage::Value> params;
    if (op == Op::kPoint) {
      handle = point_;
      params.emplace_back(static_cast<int64_t>(rng_.Uniform(c.loaded)));
    } else if (op == Op::kCount) {
      handle = count_;
      params.emplace_back(std::string("DB"));
    } else {
      const uint64_t cursor = sh_->next_example.fetch_add(1);
      const int64_t id = c.example_order[cursor % c.example_order.size()];
      handle = insert_;
      params.emplace_back(id);
      params.emplace_back(std::string(LabelFor(c.docs[static_cast<size_t>(id)].label)));
    }
    StatusOr<hazy::sql::ResultSet> rs = Status::Internal("not sent");
    {
      ScopedSpan span(trace, SpanName::kClientCall);
      rs = client_->ExecPrepared(handle, params);
    }
    if (!rs.ok() || !ResultLooksRight(op, *rs, c.docs.size())) {
      LogFailure(sh_, op, rs.ok() ? "unexpected result shape" : rs.status().ToString());
      return false;
    }
    if (op == Op::kInsertExamples) *examples = 1;
    return true;
  }

  SendFn Fn() {
    return [this](Op op, ThreadTrace* t, uint64_t* e) { return Send(op, t, e); };
  }

 private:
  RpcSender(Shared* sh, uint64_t seed, std::unique_ptr<hazy::client::HazyClient> client)
      : sh_(sh), rng_(seed), client_(std::move(client)) {}

  Shared* sh_;
  hazy::Rng rng_;
  std::unique_ptr<hazy::client::HazyClient> client_;
  hazy::client::PreparedHandle point_, count_, insert_;
};

using Loads = std::vector<std::unique_ptr<ThreadLoad>>;

struct PhaseOutput {
  Loads closed, open;          // the measured phase
  Loads loopback, direct;      // serve_rpc traced run: the same mix without
                               // the socket, and without the client/session
  double wall_s = 0;
  uint64_t busy_rejections = 0;
  /// Database file + WAL in MiB, after each CHECKPOINT of the run and at
  /// the end; a reorganisation can grow the file for a round until the next
  /// checkpoint frees the old copy, so the median is the steady size.
  Samples disk_mb;
};

double DiskMb(const std::string& path) {
  return static_cast<double>(FileBytes(path) + FileBytes(hazy::storage::WalPathFor(path))) /
         (1024.0 * 1024.0);
}

ThreadLoad* AddLoad(Loads* loads) {
  loads->push_back(std::make_unique<ThreadLoad>());
  return loads->back().get();
}

int64_t DeadlineAfter(double seconds) {
  return NowNs() + static_cast<int64_t>(seconds * 1e9);
}

Status RunIngestOd(Shared* sh, const RunArgs& a, PhaseOutput* out) {
  const Sampler sampler{a.trace, 2};
  ThreadLoad* wload = AddLoad(&out->closed);
  ThreadLoad* rload = AddLoad(&out->open);
  const int64_t start = NowNs();
  const int64_t deadline = DeadlineAfter(a.seconds);
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    SqlSender sender(sh, a.seed * 7919 + 1, kExampleRows);
    std::deque<Op> queue;
    uint64_t stmt = 0;
    auto next = [&] {
      if (queue.empty()) {
        if (stmt % kEntityEvery == kEntityEvery - 1 &&
            sh->next_entity.load() < sh->corpus->docs.size()) {
          queue.push_back(Op::kInsertEntity);
        }
        if (stmt % kCountEvery == kCountEvery - 1) queue.push_back(Op::kCount);
        queue.push_back(Op::kInsertExamples);
        if (stmt % kCheckpointEvery == kCheckpointEvery - 1) queue.push_back(Op::kCheckpoint);
        ++stmt;
      }
      const Op op = queue.front();
      queue.pop_front();
      return op;
    };
    // The run ends on a CHECKPOINT, after a whole number of rounds, so the
    // file's size and the work per run do not depend on where the clock
    // stopped inside a round.
    auto done = [&](int64_t now) {
      return now >= deadline && queue.empty() && stmt % kCheckpointEvery == 0;
    };
    const SendFn send = [&](Op op, ThreadTrace* trace, uint64_t* examples) {
      const bool ok = sender.Send(op, trace, examples);
      if (op == Op::kCheckpoint) out->disk_mb.Add(DiskMb(sh->db->path()));
      return ok;
    };
    ClosedLoop(wload, done, next, send, sampler, Op::kInsertExamples);
    writer_done = true;
  });
  std::thread reader([&] {
    SqlSender sender(sh, a.seed * 7919 + 2, kExampleRows);
    auto next = [] { return Op::kPoint; };
    OpenLoop(rload, start, [&](int64_t) { return writer_done.load(); }, kIngestReaderRate,
             next, sender.Fn(), Sampler{a.trace, 1}, Op::kInsertExamples);
  });
  writer.join();
  reader.join();
  out->wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return Status::OK();
}

Status RunReadMm(Shared* sh, const RunArgs& a, PhaseOutput* out) {
  const Sampler sampler{a.trace, 16};
  const int64_t start = NowNs();
  const int64_t deadline = DeadlineAfter(a.seconds);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < a.workload->closed_loop_threads; ++t) {
    ThreadLoad* load = AddLoad(&out->closed);
    threads.emplace_back([&, t, load] {
      SqlSender sender(sh, a.seed * 7919 + 10 + t, kExampleRows);
      hazy::Rng mix(a.seed * 104729 + t);
      auto next = [&] { return mix.Uniform(10) == 0 ? Op::kCount : Op::kPoint; };
      ClosedLoop(load, Until(deadline), next, sender.Fn(), sampler, Op::kPoint);
    });
  }
  ThreadLoad* wload = AddLoad(&out->open);
  threads.emplace_back([&] {
    SqlSender sender(sh, a.seed * 7919 + 3, kExampleRows);
    auto next = [] { return Op::kInsertExamples; };
    OpenLoop(wload, start, Until(deadline), kReadWriterRate, next, sender.Fn(),
             Sampler{a.trace, 1}, Op::kPoint);
  });
  for (auto& t : threads) t.join();
  out->wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return Status::OK();
}

Op RpcMix(hazy::Rng* mix) {
  const uint64_t r = mix->Uniform(1000);
  if (r < kRpcCountPerMille) return Op::kCount;
  if (r < kRpcCountPerMille + kRpcInsertPerMille) return Op::kInsertExamples;
  return Op::kPoint;
}

enum class Transport { kSocket, kLoopback, kDirect };

/// One serve_rpc phase: each connection's thread runs the mix closed-loop.
Status RunRpcPhase(Shared* sh, const RunArgs& a, Transport transport, uint16_t port,
                   double seconds, Loads* loads) {
  const int64_t deadline = DeadlineAfter(seconds);
  std::vector<std::thread> threads;
  std::vector<Status> statuses(a.workload->connections, Status::OK());
  for (size_t t = 0; t < a.workload->connections; ++t) {
    ThreadLoad* load = AddLoad(loads);
    threads.emplace_back([&, t, load] {
      const uint64_t seed = a.seed * 7919 + 20 + t;
      hazy::Rng mix(a.seed * 104729 + 20 + t);
      auto next = [&] { return RpcMix(&mix); };
      const Sampler sampler{a.trace, 8};
      if (transport == Transport::kDirect) {
        SqlSender sender(sh, seed, 1);
        ClosedLoop(load, Until(deadline), next, sender.Fn(), sampler, Op::kPoint);
        return;
      }
      auto client = transport == Transport::kSocket
                        ? hazy::client::HazyClient::Connect("127.0.0.1", port, "perfbench")
                        : hazy::client::HazyClient::Loopback(sh->db, "perfbench");
      if (!client.ok()) {
        statuses[t] = client.status();
        return;
      }
      auto sender = RpcSender::Make(sh, seed, std::move(*client));
      if (!sender.ok()) {
        statuses[t] = sender.status();
        return;
      }
      ClosedLoop(load, Until(deadline), next, (*sender)->Fn(), sampler, Op::kPoint);
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : statuses) HAZY_RETURN_NOT_OK(s);
  return Status::OK();
}

Status RunServeRpc(Shared* sh, const RunArgs& a, PhaseOutput* out) {
  hazy::server::ServerOptions opts;
  opts.host = "127.0.0.1";
  opts.port = 0;
  opts.worker_threads = a.workload->server_workers;
  hazy::server::Server server(sh->db, opts);
  HAZY_RETURN_NOT_OK(server.Start());
  // The traced run splits its time: the socket mix, then the same mix over
  // the loopback transport and in process, so transport and session costs
  // can be told apart from execution.
  const double socket_s = a.trace ? a.seconds * 0.6 : a.seconds;
  const int64_t start = NowNs();
  Status s = RunRpcPhase(sh, a, Transport::kSocket, server.port(), socket_s, &out->closed);
  out->wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  if (s.ok() && a.trace) {
    s = RunRpcPhase(sh, a, Transport::kLoopback, 0, a.seconds * 0.2, &out->loopback);
  }
  if (s.ok() && a.trace) {
    s = RunRpcPhase(sh, a, Transport::kDirect, 0, a.seconds * 0.2, &out->direct);
  }
  out->busy_rejections = server.busy_rejections();
  server.Stop();
  return s;
}

Status RunTraffic(Shared* sh, const RunArgs& a, PhaseOutput* out) {
  const std::string name = a.workload->name;
  if (name == "ingest_od") return RunIngestOd(sh, a, out);
  if (name == "read_mm") return RunReadMm(sh, a, out);
  return RunServeRpc(sh, a, out);
}

ThreadLoad Merge(const std::vector<const Loads*>& groups) {
  ThreadLoad m;
  for (const Loads* g : groups) {
    for (const auto& l : *g) {
      for (int op = 0; op < kNumOps; ++op) m.latency_us[op].Append(l->latency_us[op]);
      m.all_us.Append(l->all_us);
      m.traced_us.Append(l->traced_us);
      m.untraced_us.Append(l->untraced_us);
      m.late_us.Append(l->late_us);
      m.attempted += l->attempted;
      m.failed += l->failed;
      m.examples += l->examples;
      m.reads += l->reads;
      m.cpu_s += l->cpu_s;
      m.wall_s += l->wall_s;
    }
  }
  return m;
}

struct FinishResult {
  Samples recover_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t oracle_checked = 0;
  uint64_t oracle_mismatches = 0;
};

void Book(FinishResult* r, const char* what, const OracleReport& o) {
  r->oracle_checked += o.checked;
  r->oracle_mismatches += o.mismatches;
  if (!o.ok()) {
    std::fprintf(stderr, "perfbench: oracle (%s): %llu of %llu answers wrong; first: %s\n",
                 what, static_cast<unsigned long long>(o.mismatches),
                 static_cast<unsigned long long>(o.checked), o.first_mismatch.c_str());
  }
}

/// Untimed except for recovery: a fixed WAL tail after a checkpoint, the
/// oracle on the live database, close, database + WAL size, reopen (timed,
/// several times), and the oracle again on the reopened database, which
/// must also answer exactly as the database did before the close.
Status Finish(const WorkloadDef& w, const std::string& path, Shared* sh,
              std::unique_ptr<Database>* db, PhaseOutput* ph, FinishResult* r) {
  {
    ThreadLoad tail;
    SqlSender sender(sh, 99, kExampleRows);
    // New entities only: replaying them is deterministic work, where replayed
    // examples could start a reorganisation on one reopen and not another.
    std::vector<Op> ops = {Op::kCheckpoint};
    for (int i = 0; i < 8 && sh->next_entity.load() + i < sh->corpus->docs.size(); ++i) {
      ops.push_back(Op::kInsertEntity);
    }
    uint64_t request = 0;
    for (Op op : ops) {
      RunRequest(&tail, request++, op, false, op, NowNs(), sender.Fn());
    }
    r->attempted += tail.attempted;
    r->failed += tail.failed;
  }
  HAZY_ASSIGN_OR_RETURN(Expected expected, ExpectedFromModel(db->get()));
  const OracleReport live =
      Check(expected, SqlLabelReader(db->get()), SqlCountReader(db->get()));
  Book(r, "live", live);

  db->reset();
  ph->disk_mb.Add(DiskMb(path));
  for (int k = 0; k < kReopenRuns; ++k) {
    db->reset();
    *db = std::make_unique<Database>(MakeOptions(w.db, path));
    SyncDatabaseFiles(path);
    const int64_t t0 = NowNs();
    HAZY_RETURN_NOT_OK((*db)->Open());
    r->recover_s.Add(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  sh->db = db->get();
  Book(r, "reopened vs before close",
       Check(live.answered, SqlLabelReader(db->get()), SqlCountReader(db->get())));
  HAZY_ASSIGN_OR_RETURN(Expected reopened, ExpectedFromModel(db->get()));
  Book(r, "reopened vs its model",
       Check(reopened, SqlLabelReader(db->get()), SqlCountReader(db->get())));
  return Status::OK();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void EndToEndMetrics(const ThreadLoad& m, const PhaseOutput& ph, const Samples& setup,
                     Metrics* out) {
  const double wall_s = ph.wall_s;
  const auto& lat = m.latency_us;
  const Samples& ins = lat[static_cast<int>(Op::kInsertExamples)];
  const Samples& point = lat[static_cast<int>(Op::kPoint)];
  const Samples& count = lat[static_cast<int>(Op::kCount)];
  out->Set("setup_s", setup.Quantile(0.5), "s");
  out->Set("ingest_examples_per_s", Ratio(static_cast<double>(m.examples), wall_s), "1/s");
  out->Set("ingest_stmt_p50_ms", ins.Quantile(0.5) * 1e-3, "ms");
  out->Set("read_point_p50_us", point.Quantile(0.5), "us");
  out->Set("read_count_p50_ms", count.Quantile(0.5) * 1e-3, "ms");
  out->Set("read_ops_per_s", Ratio(static_cast<double>(m.reads), wall_s), "1/s");
  out->Set("rpc_ops_per_s", Ratio(static_cast<double>(m.all_us.size()), wall_s), "1/s");
  out->Set("rpc_p50_us", m.all_us.Quantile(0.5), "us");
  out->Set("peak_rss_mb", PeakRssMb(), "MiB");
  out->Set("disk_mb", ph.disk_mb.Quantile(0.5), "MiB");
}

Samples AllOps(const std::array<Samples, kNumOps>& by_op) {
  Samples s;
  for (const auto& x : by_op) s.Append(x);
  return s;
}

void PerLayerMetrics(const ThreadLoad& m, const ThreadLoad& closed, const ThreadLoad& open,
                     const PhaseOutput& ph, const FinishResult& fin, const LayerCounters& d,
                     const TraceSummary& ts, Metrics* out) {
  auto span = [&](SpanName n) -> const std::array<Samples, kNumOps>& {
    return ts.duration_us[static_cast<int>(n)];
  };
  auto by_op = [&](SpanName n, Op op) -> const Samples& {
    return span(n)[static_cast<int>(op)];
  };
  // Tail latencies that do not repeat run to run closely enough to bound.
  out->Set("ingest_stmt_p99_ms",
           m.latency_us[static_cast<int>(Op::kInsertExamples)].Quantile(0.99) * 1e-3, "ms");
  out->Set("read_point_p99_us", m.latency_us[static_cast<int>(Op::kPoint)].Quantile(0.99), "us");
  out->Set("read_count_p99_ms",
           m.latency_us[static_cast<int>(Op::kCount)].Quantile(0.99) * 1e-3, "ms");
  out->Set("rpc_p99_us", m.all_us.Quantile(0.99), "us");
  // sql
  out->Set("sql.parse_us", AllOps(span(SpanName::kParse)).Quantile(0.5), "us");
  out->Set("sql.execute_point_us", by_op(SpanName::kExecute, Op::kPoint).Quantile(0.5), "us");
  out->Set("sql.execute_count_us", by_op(SpanName::kExecute, Op::kCount).Quantile(0.5), "us");
  out->Set("sql.execute_insert_ms",
           by_op(SpanName::kExecute, Op::kInsertExamples).Quantile(0.5) * 1e-3, "ms");
  // engine
  out->Set("engine.lock_wait_us", AllOps(span(SpanName::kLockWait)).Mean(), "us");
  out->Set("engine.snapshot_route_us", AllOps(span(SpanName::kRoute)).Quantile(0.5), "us");
  out->Set("engine.epochs_published", static_cast<double>(d.epochs_published), "count");
  out->Set("engine.epochs_reclaimed", static_cast<double>(d.epochs_reclaimed), "count");
  // core
  out->Set("core.update_busy_s", d.update_s, "s");
  out->Set("core.reorg_busy_s", d.reorg_s, "s");
  out->Set("core.reorgs", static_cast<double>(d.reorgs), "count");
  out->Set("core.incremental_steps", static_cast<double>(d.incremental_steps), "count");
  out->Set("core.window_tuples_per_example",
           Ratio(static_cast<double>(d.window_tuples), static_cast<double>(d.updates)), "count");
  out->Set("core.label_flips", static_cast<double>(d.label_flips), "count");
  out->Set("core.tuples_scanned", static_cast<double>(d.tuples_scanned), "count");
  out->Set("core.reads_by_bounds_frac",
           Ratio(static_cast<double>(d.reads_by_bounds), static_cast<double>(d.single_reads)),
           "ratio");
  out->Set("core.reads_from_store", static_cast<double>(d.reads_from_store), "count");
  // storage
  out->Set("storage.pool_hit_rate",
           Ratio(static_cast<double>(d.pool_hits), static_cast<double>(d.pool_hits + d.pool_misses)),
           "ratio");
  out->Set("storage.pool_misses", static_cast<double>(d.pool_misses), "count");
  out->Set("storage.pool_evictions", static_cast<double>(d.pool_evictions), "count");
  out->Set("storage.pool_dirty_writebacks", static_cast<double>(d.pool_dirty_writebacks), "count");
  out->Set("storage.pager_reads", static_cast<double>(d.pager_reads), "count");
  out->Set("storage.pager_writes", static_cast<double>(d.pager_writes), "count");
  out->Set("storage.wal_syncs", static_cast<double>(d.wal_syncs), "count");
  out->Set("storage.wal_commits", static_cast<double>(d.wal_commits), "count");
  out->Set("storage.wal_before_images", static_cast<double>(d.wal_before_images), "count");
  out->Set("storage.wal_bytes_per_example",
           Ratio(static_cast<double>(d.wal_bytes), static_cast<double>(m.examples)), "B");
  // persist
  out->Set("persist.checkpoint_ms",
           m.latency_us[static_cast<int>(Op::kCheckpoint)].Quantile(0.5) * 1e-3, "ms");
  out->Set("persist.checkpoints", static_cast<double>(d.checkpoint_epoch), "count");
  // Reopen time moved run to run by a third on a shared 4-vCPU VM, in every
  // workload, so it is reported here, unbounded.
  out->Set("recover_s", fin.recover_s.Quantile(0.5), "s");
  // server / rpc / client
  const ThreadLoad loop = Merge({&ph.loopback});
  const double loop_p50 = loop.all_us.Quantile(0.5);
  out->Set("client.rtt_loopback_us", loop_p50, "us");
  out->Set("rpc.transport_us", loop_p50 > 0 ? m.all_us.Quantile(0.5) - loop_p50 : 0, "us");
  out->Set("server.busy_rejections", static_cast<double>(ph.busy_rejections), "count");
  // load generator
  out->Set("bench.cpu_frac", Ratio(closed.cpu_s, closed.wall_s), "ratio");
  out->Set("bench.late_ms", open.late_us.Quantile(0.99) * 1e-3, "ms");
  const double untraced = m.untraced_us.Quantile(0.5);
  out->Set("bench.trace_overhead_frac",
           untraced > 0 ? m.traced_us.Quantile(0.5) / untraced - 1 : 0, "ratio");
  // self time by layer, as a share of all traced request time
  auto self = [&](SpanName n) { return Ratio(ts.self_us[static_cast<int>(n)], ts.request_us); };
  out->Set("self.bench_frac", self(SpanName::kRequest), "ratio");
  out->Set("self.sql_parse_frac", self(SpanName::kParse), "ratio");
  out->Set("self.engine_frac", self(SpanName::kRoute) + self(SpanName::kLockWait), "ratio");
  out->Set("self.sql_execute_frac", self(SpanName::kExecute), "ratio");
  out->Set("self.client_frac", self(SpanName::kClientCall), "ratio");
}

std::string SampleCountsJson(const ThreadLoad& m) {
  std::string s = "{";
  for (int op = 0; op < kNumOps; ++op) {
    s += std::string(op ? ", " : "") + "\"" + OpName(static_cast<Op>(op)) +
         "\": " + std::to_string(m.latency_us[op].size());
  }
  return s + ", \"all\": " + std::to_string(m.all_us.size()) + "}";
}

std::string DoublesJson(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

}  // namespace

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Status RunWorkload(const RunArgs& a, RunReport* report) {
  const WorkloadDef& w = *a.workload;
  const std::string path = a.out_dir + "/" + w.name + ".db";
  const Corpus corpus = MakeCorpus(a.seed);

  // Set-up runs several times; the median is setup_s and the last database
  // is the one measured.
  std::unique_ptr<Database> db;
  Samples setup;
  for (int k = 0; k < kSetupRuns; ++k) {
    db.reset();
    const int64_t t0 = NowNs();
    HAZY_ASSIGN_OR_RETURN(db, BuildDatabase(w.db, corpus, path));
    setup.Add(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  Shared sh;
  sh.db = db.get();
  sh.corpus = &corpus;
  sh.next_entity = corpus.loaded;
  // The same traffic, untimed, first: caches, allocator and the view's
  // maintenance state settle before anything is measured.
  RunArgs warm = a;
  warm.seconds = kTrafficWarmupSeconds;
  warm.trace = false;
  PhaseOutput warm_ph;
  HAZY_RETURN_NOT_OK(RunTraffic(&sh, warm, &warm_ph));

  const LayerCounters before = ReadCounters(db.get());
  PhaseOutput ph;
  HAZY_RETURN_NOT_OK(RunTraffic(&sh, a, &ph));
  const LayerCounters delta = Delta(ReadCounters(db.get()), before);

  FinishResult fin;
  HAZY_RETURN_NOT_OK(Finish(w, path, &sh, &db, &ph, &fin));

  const ThreadLoad m = Merge({&ph.closed, &ph.open});
  const ThreadLoad extra = Merge({&warm_ph.closed, &warm_ph.open, &ph.loopback, &ph.direct});
  report->attempted = m.attempted + extra.attempted + fin.attempted + fin.oracle_checked;
  report->failed = m.failed + extra.failed + fin.failed + fin.oracle_mismatches;
  report->correct = report->failed == 0 && fin.oracle_checked > 0;

  char meta[2048];
  std::snprintf(
      meta, sizeof(meta),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, \"trace\": %d, "
      "\"nproc\": %ld, \"build_type\": \"%s\", \"simd_kernel\": \"%s\", "
      "\"shared_pool_threads\": %zu, \"closed_loop_threads\": %zu, "
      "\"open_loop_threads\": %zu, \"connections\": %zu, \"server_workers\": %zu, "
      "\"architecture\": \"%s\", \"mode\": \"%s\", \"pool_frames\": %zu, "
      "\"entities\": %zu, \"entities_loaded\": %zu, \"warm_examples\": %llu, "
      "\"setup_runs_s\": %s, \"recover_runs_s\": %s, \"samples\": %s, "
      "\"oracle_checked\": %llu, \"oracle_mismatches\": %llu}",
      w.name, static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
      ::sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, hazy::ml::simd::KernelName(),
      hazy::SharedThreadCount(), w.closed_loop_threads, w.open_loop_threads, w.connections,
      w.server_workers, w.db.architecture.c_str(), w.db.mode.c_str(), w.db.pool_pages,
      corpus.docs.size(), corpus.loaded, static_cast<unsigned long long>(kWarmExamples),
      DoublesJson(setup.values()).c_str(), DoublesJson(fin.recover_s.values()).c_str(),
      SampleCountsJson(m).c_str(), static_cast<unsigned long long>(fin.oracle_checked),
      static_cast<unsigned long long>(fin.oracle_mismatches));
  report->meta_json = meta;

  if (!a.trace) {
    EndToEndMetrics(m, ph, setup, &report->metrics);
  } else {
    std::vector<const ThreadTrace*> traces;
    for (const Loads* g : {&ph.closed, &ph.open, &ph.loopback, &ph.direct}) {
      for (const auto& l : *g) traces.push_back(&l->trace);
    }
    const TraceSummary ts = Summarize(traces);
    // sql.* on serve_rpc come from its in-process phase, the only one that
    // calls the SQL layer from the benchmark.
    PerLayerMetrics(m, Merge({&ph.closed}), Merge({&ph.open}), ph, fin, delta, ts,
                    &report->metrics);
    HAZY_RETURN_NOT_OK(WriteTraceFile(a.out_dir + "/trace-" + w.name + ".json",
                                      report->meta_json, traces, ts));
  }
  db.reset();
  RemoveDatabaseFiles(path);
  return Status::OK();
}

}  // namespace perfbench
