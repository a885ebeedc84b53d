// micro_server_rtt: request round-trip latency and throughput through the
// full serving stack — reactor, admission control, worker pool, session —
// with N concurrent connections and M pipelined requests per connection.
//
// Two phases, both driven by a single-threaded epoll client loop:
//
//   rtt:      N connections pipeline PING frames M deep through a
//             default-sized server; p50/p99 round-trip time and QPS measure
//             pure serving-stack cost (framing, admission, dispatch).
//   overload: a deliberately small server (1 worker, admission depth 8)
//             takes pipelined INSERT statements from 64 connections. The
//             worker backs up behind the WAL commit, the admission queue
//             fills, and the surplus is shed as BUSY frames — counted here
//             to prove overload degrades to load-shedding, not to collapse.
//
// Both phases run with a STATS-opcode prober attached: a side connection
// round-trips registry snapshots throughout, proving STATS stays answerable
// while every worker is saturated, since the reactor thread serves it
// without admission. A final snapshot after the overload phase reads the
// BUSY-shed count and the peak admission-queue depth
// (hazy_server_inflight_peak, recorded by the dispatcher at admit time).
//
// Environment knobs:
//   HAZY_RTT_CONNS     rtt-phase connections        (default 1000)
//   HAZY_RTT_INFLIGHT  pipelined requests/conn      (default 2)
//   HAZY_RTT_REQUESTS  rtt responses to time        (default 50000)
//   HAZY_RTT_OVERLOAD  overload responses to drive  (default 2000)

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "client/hazy_client.h"
#include "engine/database.h"
#include "rpc/protocol.h"
#include "server/server.h"

namespace {

using Clock = std::chrono::steady_clock;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

// Raises the fd soft limit toward the hard limit so 1000+ sockets fit.
void RaiseFdLimit(size_t want) {
  struct rlimit rl;
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  if (rl.rlim_cur >= want + 64) return;
  rl.rlim_cur = std::min<rlim_t>(rl.rlim_max, want + 64);
  ::setrlimit(RLIMIT_NOFILE, &rl);
}

struct ClientConn {
  int fd = -1;
  std::string in;
  std::string out;
  size_t out_off = 0;
  uint32_t next_request_id = 1;
  // request id -> send timestamp for in-flight requests.
  std::unordered_map<uint32_t, Clock::time_point> sent;
};

struct LoadResult {
  std::vector<double> latencies_us;  // successful responses only
  uint64_t busy = 0;
  uint64_t errors = 0;
  double elapsed_s = 0;
  size_t connected = 0;
};

/// Connects `conns` sockets to `port` and pipelines frames from
/// `next_request` (which appends one encoded frame) `inflight` deep per
/// connection until `target` responses (of any kind) have arrived.
LoadResult DriveLoad(uint16_t port, size_t conns, size_t inflight, size_t target,
                     const std::function<void(ClientConn*)>& next_request) {
  LoadResult result;
  std::vector<ClientConn> clients(conns);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  for (size_t i = 0; i < conns; ++i) {
    ClientConn& c = clients[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) break;
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(c.fd);
      c.fd = -1;
      break;
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    int fl = ::fcntl(c.fd, F_GETFL, 0);
    ::fcntl(c.fd, F_SETFL, fl | O_NONBLOCK);
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
    ++result.connected;
  }

  auto flush_out = [](ClientConn* c) {
    while (c->out_off < c->out.size()) {
      const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                               c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n <= 0) return;  // EAGAIN: retried after the next response
      c->out_off += static_cast<size_t>(n);
    }
    c->out.clear();
    c->out_off = 0;
  };

  for (size_t i = 0; i < result.connected; ++i) {
    for (size_t k = 0; k < inflight; ++k) next_request(&clients[i]);
    flush_out(&clients[i]);
  }

  size_t responses = 0;
  result.latencies_us.reserve(target);
  const auto start = Clock::now();
  std::vector<epoll_event> events(512);
  char chunk[64 * 1024];
  while (responses < target) {
    const int n =
        ::epoll_wait(ep, events.data(), static_cast<int>(events.size()), 1000);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) continue;  // stall guard; keep waiting
    for (int e = 0; e < n; ++e) {
      ClientConn& c = clients[events[e].data.u64];
      const ssize_t got = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (got <= 0) continue;
      c.in.append(chunk, static_cast<size_t>(got));
      size_t consumed = 0;
      for (;;) {
        hazy::rpc::FrameView frame;
        size_t frame_bytes = 0;
        const auto rc = hazy::rpc::TryDecodeFrame(
            std::string_view(c.in).substr(consumed), &frame, &frame_bytes,
            nullptr);
        if (rc != hazy::rpc::FrameDecode::kFrame) break;
        auto it = c.sent.find(frame.request_id);
        if (it != c.sent.end()) {
          ++responses;
          if (frame.opcode == hazy::rpc::Opcode::kBusy) {
            ++result.busy;
          } else if (frame.opcode == hazy::rpc::Opcode::kError) {
            ++result.errors;
          } else {
            result.latencies_us.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          it->second)
                    .count());
          }
          c.sent.erase(it);
          if (responses + c.sent.size() < target) next_request(&c);
        }
        consumed += frame_bytes;
      }
      if (consumed > 0) c.in.erase(0, consumed);
      flush_out(&c);
    }
  }
  result.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& c : clients) {
    if (c.fd >= 0) ::close(c.fd);
  }
  ::close(ep);
  return result;
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  const size_t idx = static_cast<size_t>(p * (v->size() - 1));
  std::nth_element(v->begin(), v->begin() + idx, v->end());
  return (*v)[idx];
}

/// Value of a registry metric from a STATS result set (-1 if absent).
/// Columns: (metric, labels, kind, value).
double RegistryValue(const hazy::sql::ResultSet& rs, const std::string& name) {
  for (size_t i = 0; i < rs.rows.size(); ++i) {
    auto metric = rs.TextAt(i, 0);
    auto value = rs.DoubleAt(i, 3);
    if (metric.ok() && value.ok() && *metric == name) return *value;
  }
  return -1;
}

/// What a STATS-opcode side channel observed while a load phase ran: the
/// probe thread round-trips Stats() continuously, so `ok` counts snapshots
/// that got through while the worker pool was saturated (STATS is answered
/// on the reactor thread and is never shed as BUSY).
struct StatsProbeResult {
  uint64_t ok = 0;
  uint64_t failed = 0;
  double peak_connections = 0;  // max hazy_server_connections gauge seen
};

/// Runs `body` with a concurrent STATS prober attached to `port`.
StatsProbeResult WithStatsProbe(uint16_t port,
                                const std::function<void()>& body) {
  StatsProbeResult probe;
  std::atomic<bool> stop{false};
  std::thread prober([&] {
    auto client = hazy::client::HazyClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      ++probe.failed;
      return;
    }
    while (!stop.load(std::memory_order_relaxed)) {
      auto rs = (*client)->Stats("hazy_server_");
      if (rs.ok()) {
        ++probe.ok;
        probe.peak_connections = std::max(
            probe.peak_connections, RegistryValue(*rs, "hazy_server_connections"));
      } else {
        ++probe.failed;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  body();
  stop.store(true, std::memory_order_relaxed);
  prober.join();
  return probe;
}

}  // namespace

int main(int argc, char** argv) {
  hazy::bench::InitBenchReport(argc, argv);

  const size_t conns = EnvSize("HAZY_RTT_CONNS", 1000);
  const size_t inflight = EnvSize("HAZY_RTT_INFLIGHT", 2);
  const size_t target_requests = EnvSize("HAZY_RTT_REQUESTS", 50000);
  const size_t overload_target = EnvSize("HAZY_RTT_OVERLOAD", 2000);
  RaiseFdLimit(2 * conns + 128);

  hazy::engine::Database db;
  if (!db.Open().ok()) {
    std::fprintf(stderr, "database open failed\n");
    return 1;
  }

  // --- Phase 1: PING round-trip through a default-sized server. ----------
  hazy::server::ServerOptions opts;
  opts.port = 0;
  opts.worker_threads = 4;
  opts.max_in_flight = 256;
  opts.max_connections = conns + 16;
  LoadResult rtt;
  StatsProbeResult rtt_probe;
  {
    hazy::server::Server server(&db, opts);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "server start failed\n");
      return 1;
    }
    auto ping = [](ClientConn* c) {
      const uint32_t id = c->next_request_id++;
      hazy::rpc::EncodeFrame(hazy::rpc::Opcode::kPing, id, {}, &c->out);
      c->sent.emplace(id, Clock::now());
    };
    // A STATS prober rides along: every snapshot that comes back while the
    // full connection count is pounding PING proves the opcode stays
    // answerable under load.
    rtt_probe = WithStatsProbe(server.port(), [&] {
      rtt = DriveLoad(server.port(), conns, inflight, target_requests, ping);
    });
    server.Stop();
  }
  if (rtt.connected < conns) {
    std::fprintf(stderr, "only %zu/%zu connections established\n",
                 rtt.connected, conns);
  }

  // --- Phase 2: INSERT overload against a tiny server. --------------------
  hazy::server::ServerOptions small;
  small.port = 0;
  small.worker_threads = 1;
  small.max_in_flight = 8;
  small.max_connections = 128;
  LoadResult overload;
  StatsProbeResult overload_probe;
  double registry_shed = -1;
  double inflight_peak = -1;
  {
    hazy::server::Server server(&db, small);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "overload server start failed\n");
      return 1;
    }
    // The table the overload INSERTs land in.
    uint64_t next_key = 0;
    auto insert = [&next_key](ClientConn* c) {
      const uint32_t id = c->next_request_id++;
      char sql[96];
      std::snprintf(sql, sizeof(sql),
                    "INSERT INTO rtt_load VALUES (%llu, 'payload');",
                    static_cast<unsigned long long>(next_key++));
      hazy::rpc::EncodeFrame(hazy::rpc::Opcode::kQuery, id, sql, &c->out);
      c->sent.emplace(id, Clock::now());
    };
    // Create the table through the same wire path.
    auto create = [](ClientConn* c) {
      const uint32_t id = c->next_request_id++;
      hazy::rpc::EncodeFrame(
          hazy::rpc::Opcode::kQuery, id,
          "CREATE TABLE rtt_load (id INT PRIMARY KEY, doc TEXT);", &c->out);
      c->sent.emplace(id, Clock::now());
    };
    LoadResult setup = DriveLoad(server.port(), 1, 1, 1, create);
    if (setup.errors != 0) {
      std::fprintf(stderr, "overload setup failed\n");
      return 1;
    }
    // The prober keeps STATS traffic flowing while the 1-worker server
    // sheds, then a final snapshot records the registry's own count of
    // BUSY-shed requests and the admission queue's high-water mark.
    overload_probe = WithStatsProbe(server.port(), [&] {
      overload = DriveLoad(server.port(), 64, 4, overload_target, insert);
    });
    auto client = hazy::client::HazyClient::Connect("127.0.0.1", server.port());
    if (client.ok()) {
      auto rs = (*client)->Stats("hazy_server_");
      if (rs.ok()) {
        registry_shed = RegistryValue(*rs, "hazy_server_busy_shed_total");
        inflight_peak = RegistryValue(*rs, "hazy_server_inflight_peak");
      }
    }
    server.Stop();
  }

  const double qps = rtt.latencies_us.empty()
                         ? 0
                         : static_cast<double>(rtt.latencies_us.size()) /
                               rtt.elapsed_s;
  const double p50 = Percentile(&rtt.latencies_us, 0.50);
  const double p99 = Percentile(&rtt.latencies_us, 0.99);

  std::printf("micro_server_rtt: %zu conns x %zu in-flight, admission %zu\n",
              rtt.connected, inflight, opts.max_in_flight);
  hazy::bench::TablePrinter table({"metric", "value"});
  table.AddRow({"connections", std::to_string(rtt.connected)});
  table.AddRow({"requests", std::to_string(rtt.latencies_us.size())});
  table.AddRow({"qps", hazy::bench::FormatRate(qps)});
  table.AddRow({"p50_us", std::to_string(p50)});
  table.AddRow({"p99_us", std::to_string(p99)});
  table.AddRow({"rtt_busy_frames", std::to_string(rtt.busy)});
  table.AddRow({"rtt_errors", std::to_string(rtt.errors)});
  table.AddRow({"overload_responses",
                std::to_string(overload.busy + overload.errors +
                               overload.latencies_us.size())});
  table.AddRow({"overload_busy_frames", std::to_string(overload.busy)});
  table.AddRow({"overload_errors", std::to_string(overload.errors)});
  table.AddRow({"stats_probe_ok (rtt)", std::to_string(rtt_probe.ok)});
  table.AddRow({"stats_probe_ok (overload)", std::to_string(overload_probe.ok)});
  table.AddRow({"stats_probe_failures",
                std::to_string(rtt_probe.failed + overload_probe.failed)});
  table.AddRow({"registry_busy_shed_total", std::to_string(registry_shed)});
  table.AddRow({"admission_inflight_peak", std::to_string(inflight_peak)});
  table.Print();
  std::printf(
      "STATS snapshots answered under load: %llu at %zu conns, %llu during "
      "overload (%llu failures).\n",
      static_cast<unsigned long long>(rtt_probe.ok), rtt.connected,
      static_cast<unsigned long long>(overload_probe.ok),
      static_cast<unsigned long long>(rtt_probe.failed +
                                      overload_probe.failed));

  hazy::bench::ReportMetric("micro_server_rtt", "connections",
                            static_cast<double>(rtt.connected), "count");
  hazy::bench::ReportMetric("micro_server_rtt", "qps", qps, "req/s");
  hazy::bench::ReportMetric("micro_server_rtt", "p50", p50, "us");
  hazy::bench::ReportMetric("micro_server_rtt", "p99", p99, "us");
  hazy::bench::ReportMetric("micro_server_rtt", "busy_frames",
                            static_cast<double>(overload.busy), "count");
  hazy::bench::ReportMetric("micro_server_rtt", "registry_busy_shed_total",
                            registry_shed, "count");
  hazy::bench::ReportMetric("micro_server_rtt", "admission_inflight_peak",
                            inflight_peak, "count");
  hazy::bench::ReportMetric("micro_server_rtt", "stats_probe_ok",
                            static_cast<double>(rtt_probe.ok + overload_probe.ok),
                            "count");
  hazy::bench::ReportMetric(
      "micro_server_rtt", "stats_probe_failures",
      static_cast<double>(rtt_probe.failed + overload_probe.failed), "count");
  return hazy::bench::FlushBenchReport();
}
