#ifndef SNAPDIFF_NET_REFRESH_SERVER_H_
#define SNAPDIFF_NET_REFRESH_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/encoding.h"
#include "net/message.h"
#include "net/socket_transport.h"
#include "net/transport.h"

namespace snapdiff {

class SnapshotSystem;

/// One consolidated knob surface for standing up a refresh server: the
/// listener (address, backlog, connection cap) plus the TransportOptions
/// every accepted connection meters under. This is the options object the
/// shell's \serve, the bench driver, and the tests all pass — per-call
/// plumbing of ChannelOptions/fault knobs through the serve path is gone.
struct ServerOptions {
  /// "host:port" (port 0 picks a free port) or "unix:/path".
  std::string listen_addr = "127.0.0.1:0";
  int backlog = 128;
  /// Hard cap on simultaneously live connections; further accepts are
  /// answered with SERVER_ERROR + close. 0 = unlimited.
  size_t max_connections = 0;
  /// Reserved for an epoll event-loop mode; 0 (the default and currently
  /// only implemented mode) dedicates one handler thread per connection —
  /// still a reasonable fit now that refresh execution admits per base
  /// table: handler threads for the same table queue in admission, and
  /// threads for different tables stream concurrently while the rest
  /// spend their lives blocked in framed reads.
  size_t io_threads = 0;
  /// Framing/metering model applied to every accepted connection.
  TransportOptions transport;
  /// Offer the compact wire encoding (net/encoding.h) to clients. A client
  /// that also offers it (HELLO capability bits) gets delta/columnar
  /// streams; everyone else keeps the canonical protocol unchanged.
  bool wire_encoding = false;
  /// Additionally offer LZ block compression of encoded bodies.
  bool wire_compression = false;
};

/// Aggregate server-side counters (also mirrored into
/// MetricsRegistry::Default() under "net.server.*").
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // max_connections overflow
  uint64_t hellos = 0;
  uint64_t sessions_served = 0;
  uint64_t resumes = 0;
  uint64_t acks = 0;
  uint64_t suppressed_messages = 0;  // prefix elided across all resumes
  uint64_t errors = 0;               // kServerError replies sent
  /// High-water mark of concurrently executing refreshes on the backing
  /// SnapshotSystem (local + served) — the observable proof that serves of
  /// different tables actually overlap. Sourced from
  /// SnapshotSystem::refreshes_concurrent_high_water() at stats() time.
  uint64_t refreshes_concurrent = 0;
};

/// The refresh server: accepts framed-protocol connections at the base
/// site and answers HELLO / REFRESH_REQUEST / RESUME_REFRESH / SESSION_ACK
/// by driving SnapshotSystem's serve API. Thread-per-connection: each
/// accepted socket gets a SocketTransport and a handler thread running the
/// dispatch loop. Connection I/O is concurrent, and so is refresh
/// execution: serves admit per base table (copy-on-write scan epochs keep
/// writers un-blocked throughout), with SnapshotSystem::serve_mutex()
/// guarding only the short registry critical sections.
///
/// Lifecycle: construct → Start() → (clients connect) → Stop(). Stop wakes
/// the accept loop, shuts down every live connection, and joins all
/// threads; it is idempotent and also run by the destructor.
class RefreshServer {
 public:
  RefreshServer(SnapshotSystem* system, ServerOptions options = {});
  ~RefreshServer();

  RefreshServer(const RefreshServer&) = delete;
  RefreshServer& operator=(const RefreshServer&) = delete;

  /// Binds + listens + starts the accept loop. Fails if the address is
  /// unusable or the server already started.
  Status Start();
  void Stop();

  /// The dialable address ("host:port" with the real port, or
  /// "unix:/path"). Empty before Start().
  const std::string& bound_addr() const { return bound_addr_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;
  size_t live_connections() const;

  /// Sum of per-connection transport meters, dead connections included —
  /// the server-side wire accounting the load driver reports.
  ChannelStats AggregateTransportStats() const;

  /// Test hooks: arm a fault plan on every currently live connection's
  /// transport / on the next connection accepted (the kill-the-connection-
  /// mid-refresh test arms PartitionAfter on the victim link).
  void ArmLiveConnections(const FaultPlan& plan);
  void ArmNextConnection(const FaultPlan& plan);

 private:
  struct Connection {
    uint64_t id = 0;
    std::unique_ptr<SocketTransport> transport;
    std::thread handler;
    /// Capability bits accepted for this connection (HELLO ∧ server offer).
    uint64_t wire_caps = 0;
    /// Per-connection compact-wire encoder (wire_caps & kWireCapEncoding).
    /// Serve streams pass through it; SESSION_ACK commits its shadow.
    std::unique_ptr<WireEncoder> encoder;
    /// Handler finished (guarded by mu_); its meters have been folded into
    /// dead_transport_stats_ and the thread awaits a join.
    bool done = false;
  };

  void AcceptLoop(int listen_fd);
  void HandleConnection(Connection* conn);
  /// Dispatches one inbound message; returns false when the connection
  /// should close (transport dead).
  bool Dispatch(Connection* conn, const Message& msg);

  SnapshotSystem* system_;
  ServerOptions options_;
  std::string bound_addr_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  mutable std::mutex mu_;  // guards conns_, stats_, fault plans, dead meters
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;
  std::vector<std::thread> reaped_;  // finished handlers awaiting join
  uint64_t next_conn_id_ = 1;
  /// Encode-once-serve-many memo shared by every connection's encoder:
  /// same-class subscribers refreshing off one base scan reuse each
  /// other's encoded bodies.
  std::shared_ptr<WireEncodeMemo> wire_memo_;
  ServerStats stats_;
  ChannelStats dead_transport_stats_;  // meters of closed connections
  FaultPlan next_conn_plan_;
  bool next_conn_plan_armed_ = false;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_NET_REFRESH_SERVER_H_
