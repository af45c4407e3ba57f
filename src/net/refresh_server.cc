#include "net/refresh_server.h"

#include <thread>
#include <utility>

#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "snapshot/snapshot_manager.h"

namespace snapdiff {

namespace {

obs::Counter* ServerCounter(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name);
}

}  // namespace

RefreshServer::RefreshServer(SnapshotSystem* system, ServerOptions options)
    : system_(system), options_(std::move(options)) {
  if (options_.wire_encoding) {
    wire_memo_ = std::make_shared<WireEncodeMemo>();
  }
}

RefreshServer::~RefreshServer() { Stop(); }

Status RefreshServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  ASSIGN_OR_RETURN(listen_fd_,
                   wire::Listen(options_.listen_addr, options_.backlog));
  ASSIGN_OR_RETURN(bound_addr_, wire::BoundAddr(listen_fd_));
  running_.store(true, std::memory_order_release);
  // The loop gets its own copy of the fd: Stop() resets the member while
  // the loop may still be inside accept().
  accept_thread_ = std::thread(&RefreshServer::AcceptLoop, this, listen_fd_);
  return Status::OK();
}

void RefreshServer::Stop() {
  const bool was_running = running_.exchange(false);
  if (listen_fd_ >= 0) {
    // shutdown() wakes a blocked accept (EINVAL) before the close.
    wire::ShutdownAndClose(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (!was_running && conns_.empty()) return;
  std::map<uint64_t, std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& [id, conn] : conns) {
    conn->transport->Shutdown();  // wakes a handler blocked in framed I/O
    if (conn->handler.joinable()) conn->handler.join();
  }
}

ServerStats RefreshServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats stats = stats_;
  stats.refreshes_concurrent = system_->refreshes_concurrent_high_water();
  // Mirror the high-water into the registry so \metrics surfaces it next
  // to the other net.server.* series.
  obs::MetricsRegistry::Default()
      .GetGauge("net.server.refreshes_concurrent")
      ->Set(static_cast<int64_t>(stats.refreshes_concurrent));
  return stats;
}

size_t RefreshServer::live_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 0;
  for (const auto& [id, conn] : conns_) {
    if (!conn->done) ++live;
  }
  return live;
}

ChannelStats RefreshServer::AggregateTransportStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ChannelStats total = dead_transport_stats_;
  for (const auto& [id, conn] : conns_) {
    // A done connection's meters already folded into the dead total.
    if (!conn->done) total += conn->transport->stats();
  }
  return total;
}

void RefreshServer::ArmLiveConnections(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, conn] : conns_) {
    if (!conn->done) conn->transport->Arm(plan);
  }
}

void RefreshServer::ArmNextConnection(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  next_conn_plan_ = plan;
  next_conn_plan_armed_ = true;
}

void RefreshServer::AcceptLoop(int listen_fd) {
  obs::Counter* accepted_ctr = ServerCounter("net.server.connections");
  obs::Counter* rejected_ctr = ServerCounter("net.server.rejected");
  while (running_.load(std::memory_order_acquire)) {
    Result<int> accepted = wire::Accept(listen_fd);
    if (!accepted.ok()) {
      if (!running_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();  // transient accept failure (EMFILE, ...)
      continue;
    }
    const int fd = *accepted;
    if (!running_.load(std::memory_order_acquire)) {
      wire::CloseFd(fd);
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Reap connections whose handlers have finished.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->done) {
        if (it->second->handler.joinable()) it->second->handler.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    if (options_.max_connections != 0 &&
        conns_.size() >= options_.max_connections) {
      (void)wire::WriteMessage(fd, MakeServerError("server at capacity"));
      wire::ShutdownAndClose(fd);
      ++stats_.connections_rejected;
      rejected_ctr->Inc();
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->transport =
        std::make_unique<SocketTransport>(fd, options_.transport);
    if (next_conn_plan_armed_) {
      conn->transport->Arm(next_conn_plan_);
      next_conn_plan_armed_ = false;
    }
    ++stats_.connections_accepted;
    accepted_ctr->Inc();
    Connection* raw = conn.get();
    conns_.emplace(raw->id, std::move(conn));
    raw->handler = std::thread(&RefreshServer::HandleConnection, this, raw);
  }
}

void RefreshServer::HandleConnection(Connection* conn) {
  SNAPDIFF_FR_SCOPED_SPAN(
      span, obs::FlightRecorder::InternName("net.server.connection"));
  for (;;) {
    Result<Message> msg = conn->transport->Receive();
    if (!msg.ok()) break;  // peer gone, or Stop() closed us
    if (!Dispatch(conn, *msg)) break;
  }
  // EOF to the peer right away — the client's pending read must fail NOW so
  // it can reconnect and RESUME; the fd itself is released when the
  // connection is reaped.
  conn->transport->Shutdown();
  std::lock_guard<std::mutex> lock(mu_);
  conn->done = true;
  dead_transport_stats_ += conn->transport->stats();
}

bool RefreshServer::Dispatch(Connection* conn, const Message& msg) {
  const auto send_error = [&](const Status& error) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.errors;
    }
    ServerCounter("net.server.errors")->Inc();
    return conn->transport->Send(MakeServerError(error.ToString())).ok();
  };

  switch (msg.type) {
    case MessageType::kHello: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.hellos;
      }
      Result<SnapshotSystem::SnapshotWireInfo> info =
          system_->DescribeSnapshot(msg.payload);
      if (!info.ok()) return send_error(info.status());
      // Wire-capability negotiation: the client's offer rides HELLO's
      // otherwise-unused session_id, the acceptance (bitwise AND with what
      // this server enables) rides back on HELLO_ACK. Old peers offer 0
      // and keep the canonical protocol.
      conn->wire_caps = NegotiateWireCaps(
          msg.session_id,
          WireCaps(options_.wire_encoding, options_.wire_compression));
      if (conn->wire_caps & kWireCapEncoding) {
        WireCodecOptions codec;
        codec.compression = (conn->wire_caps & kWireCapCompression) != 0;
        conn->encoder = std::make_unique<WireEncoder>(
            codec,
            [sys = system_](SnapshotId id) {
              return sys->ResolveValueSchema(id);
            },
            wire_memo_);
      } else {
        conn->encoder.reset();
      }
      std::string schema_bytes;
      wire::SerializeSchema(info->value_schema, &schema_bytes);
      Message ack = MakeHelloAck(info->id, std::move(schema_bytes));
      ack.session_id = conn->wire_caps;
      return conn->transport->Send(ack).ok();
    }
    case MessageType::kRefreshRequest:
    case MessageType::kResumeRefresh: {
      SNAPDIFF_FR_SCOPED_SPAN(
          span, obs::FlightRecorder::InternName("net.server.serve"));
      Result<SnapshotSystem::ServeOutcome> outcome = system_->ServeRefresh(
          SnapshotSystem::ServeRequest::FromDemand(msg, conn->encoder.get()),
          conn->transport.get());
      if (outcome.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.sessions_served;
        if (outcome->resumed) ++stats_.resumes;
        stats_.suppressed_messages += outcome->suppressed;
        ServerCounter("net.server.sessions")->Inc();
        if (outcome->resumed) ServerCounter("net.server.resumes")->Inc();
        obs::MetricsRegistry::Default()
            .GetGauge("net.server.refreshes_concurrent")
            ->Set(static_cast<int64_t>(
                system_->refreshes_concurrent_high_water()));
        return true;
      }
      if (outcome.status().IsUnavailable()) {
        // The transport died mid-stream. The serve session stays live at
        // the base; the client reconnects and RESUMEs against it.
        return false;
      }
      return send_error(outcome.status());
    }
    case MessageType::kSessionAck: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.acks;
      }
      // NotFound = the session was superseded meanwhile; harmless, the
      // superseding serve restaged from the uncommitted state.
      Status acked =
          system_->AcknowledgeServe(msg.snapshot_id, msg.session_id);
      if (acked.ok() && conn->encoder != nullptr) {
        // The client applied the session end-to-end: the encoder's
        // in-session folds become its committed shadow (CommitStream
        // no-ops if a later serve already superseded the stream).
        conn->encoder->CommitStream(msg.snapshot_id, msg.session_id);
      }
      return true;
    }
    default:
      return send_error(Status::InvalidArgument(
          "unexpected message at refresh server: " + msg.ToString()));
  }
}

}  // namespace snapdiff
