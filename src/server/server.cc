#include "server/server.h"

#include "obs/metrics.h"

namespace hazy::server {

namespace {

rpc::ReactorOptions MakeReactorOptions(const ServerOptions& o) {
  rpc::ReactorOptions r;
  r.host = o.host;
  r.port = o.port;
  r.max_connections = o.max_connections;
  return r;
}

}  // namespace

Server::Server(engine::Database* db, ServerOptions options)
    : db_(db),
      options_(options),
      dispatcher_(DispatchOptions{options.worker_threads, options.max_in_flight}),
      reactor_(MakeReactorOptions(options), this) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  HAZY_RETURN_NOT_OK(reactor_.Open());
  reactor_thread_ = std::thread([this] { reactor_.Run(); });
  started_ = true;
  stats_collector_ =
      obs::Registry::Global().RegisterCollector([this](obs::SampleList* out) {
        out->Counter("hazy_server_busy_shed_total", "",
                     static_cast<double>(dispatcher_.rejected()));
        out->Gauge("hazy_server_inflight", "",
                   static_cast<double>(dispatcher_.in_flight()));
        out->Gauge("hazy_server_inflight_peak", "",
                   static_cast<double>(dispatcher_.in_flight_peak()));
        out->Gauge("hazy_server_connections", "",
                   static_cast<double>(reactor_.num_connections()));
      });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  started_ = false;
  obs::Registry::Global().UnregisterCollector(stats_collector_);
  reactor_.Stop();
  reactor_thread_.join();
  // Workers may still hold responses for connections the reactor no longer
  // serves; Send() drops those harmlessly. Drain so session state is quiet
  // before the maps are torn down.
  dispatcher_.Drain();
  MutexLock lock(mu_);
  sessions_.clear();
}

std::shared_ptr<Session> Server::FindSession(uint64_t conn_id) {
  MutexLock lock(mu_);
  auto it = sessions_.find(conn_id);
  return it == sessions_.end() ? nullptr : it->second;
}

void Server::OnConnect(uint64_t conn_id) {
  MutexLock lock(mu_);
  sessions_.emplace(conn_id, std::make_shared<Session>(conn_id, db_));
}

void Server::OnDisconnect(uint64_t conn_id) {
  MutexLock lock(mu_);
  // Workers holding the shared_ptr finish their statement; the session is
  // destroyed when the last one lets go.
  sessions_.erase(conn_id);
}

void Server::OnFrame(uint64_t conn_id, const rpc::FrameView& frame) {
  if (frame.opcode == rpc::Opcode::kStats) {
    // Answered right here on the reactor thread: STATS never queues behind
    // statements and never sheds as BUSY, so the metrics snapshot stays
    // reachable while the worker pool is saturated (or wedged).
    reactor_.Send(conn_id, Session::StatsFrame(frame));
    return;
  }
  std::shared_ptr<Session> session = FindSession(conn_id);
  if (session == nullptr) return;  // raced a close
  rpc::Frame owned = rpc::Frame::Copy(frame);
  // The statement runs under the admission slot; the response ships after
  // the slot is released (see Dispatcher::TryDispatch) so a serial client
  // never sees BUSY caused by its own just-answered request.
  struct Pending {
    std::string response;
    bool close_after = false;
  };
  auto pending = std::make_shared<Pending>();
  const bool admitted = dispatcher_.TryDispatch(
      [session = std::move(session), owned = std::move(owned), pending] {
        rpc::FrameView view{owned.opcode, owned.request_id, owned.payload};
        pending->response = session->HandleFrame(view, &pending->close_after);
      },
      [this, conn_id, pending] {
        reactor_.Send(conn_id, std::move(pending->response),
                      pending->close_after);
      });
  if (!admitted) {
    reactor_.Send(conn_id, Session::BusyFrame(frame.request_id));
  }
}

}  // namespace hazy::server
