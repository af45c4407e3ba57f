#include "net/remote_site.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/wire.h"

namespace snapdiff {

RemoteSnapshotSite::RemoteSnapshotSite(std::string addr,
                                       std::string snapshot_name,
                                       RemoteSiteOptions options)
    : addr_(std::move(addr)),
      snapshot_name_(std::move(snapshot_name)),
      options_(options) {}

RemoteSnapshotSite::~RemoteSnapshotSite() { DropConnection(); }

void RemoteSnapshotSite::DropConnection() {
  if (fd_ < 0) return;
  wire::ShutdownAndClose(fd_);
  fd_ = -1;
}

Result<std::unique_ptr<RemoteSnapshotSite>> RemoteSnapshotSite::Connect(
    const std::string& addr, const std::string& snapshot_name,
    RemoteSiteOptions options) {
  std::unique_ptr<RemoteSnapshotSite> site(
      new RemoteSnapshotSite(addr, snapshot_name, options));
  ASSIGN_OR_RETURN(site->fd_, wire::Connect(addr));
  // Offer wire-codec capabilities in HELLO's otherwise-unused session_id;
  // the HELLO_ACK echoes what the server accepted. A legacy server leaves
  // the field 0 and both ends keep the canonical protocol.
  const uint64_t offer =
      WireCaps(options.wire_encoding, options.wire_compression);
  Message hello = MakeHello(snapshot_name);
  hello.session_id = offer;
  RETURN_IF_ERROR(wire::WriteMessage(site->fd_, hello));
  ASSIGN_OR_RETURN(Message reply, wire::ReadMessage(site->fd_));
  if (reply.type == MessageType::kServerError) {
    return Status::InvalidArgument("attach rejected: " + reply.payload);
  }
  if (reply.type != MessageType::kHelloAck) {
    return Status::Corruption("expected HELLO_ACK, got " + reply.ToString());
  }
  site->snapshot_id_ = reply.snapshot_id;
  std::string_view schema_bytes = reply.payload;
  ASSIGN_OR_RETURN(Schema value_schema,
                   wire::DeserializeSchema(&schema_bytes));
  site->disk_ = std::make_unique<MemoryDiskManager>();
  site->pool_ =
      std::make_unique<BufferPool>(site->disk_.get(), options.pool_pages);
  site->catalog_ = std::make_unique<Catalog>(site->pool_.get());
  site->oracle_ = std::make_unique<TimestampOracle>();
  ASSIGN_OR_RETURN(
      site->table_,
      SnapshotTable::Create(site->catalog_.get(), snapshot_name,
                            std::move(value_schema), site->oracle_.get()));
  site->wire_caps_ = NegotiateWireCaps(offer, reply.session_id);
  if (site->wire_caps_ & kWireCapEncoding) {
    // The resolver hands the decoder this replica's value schema; the
    // site outlives the decoder, so the raw capture is safe.
    site->decoder_ = std::make_unique<WireDecoder>(
        WireCodecOptions{}, [s = site.get()](SnapshotId id) -> const Schema* {
          if (id != s->snapshot_id_ || s->table_ == nullptr) return nullptr;
          return &s->table_->value_schema();
        });
    site->applier_ = SessionApplier(site->decoder_.get());
  }
  return site;
}

Status RemoteSnapshotSite::SendDemand() {
  const Message demand = applier_.Demand(snapshot_id_, table_->snap_time());
  pending_resume_target_ =
      demand.type == MessageType::kResumeRefresh ? demand.session_id : 0;
  return wire::WriteMessage(fd_, demand);
}

Status RemoteSnapshotSite::Reconnect(RemoteRefreshReport* report) {
  int backoff_ms = std::max(options_.reconnect_backoff_ms, 1);
  for (int attempt = 0; attempt < options_.reconnect_attempts; ++attempt) {
    if (fd_ >= 0) {
      wire::CloseFd(fd_);
      fd_ = -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 1000);
    Result<int> connected = wire::Connect(addr_);
    if (!connected.ok()) continue;
    fd_ = *connected;
    // RESUME when a session is in flight. If the server no longer has it
    // the demand's SnapTime makes the fallback serve a correct
    // differential, and its codec generation realigns the server's fresh
    // per-connection encoder with our decoder's shadow.
    if (SendDemand().ok()) {
      ++report->reconnects;
      return Status::OK();
    }
  }
  return Status::Unavailable("reconnect attempts exhausted to " + addr_);
}

Result<RemoteRefreshReport> RemoteSnapshotSite::Refresh() {
  RemoteRefreshReport report;
  const SessionApplier::Counters before = applier_.counters();
  const SessionApplier::ApplyFn apply = [&](const Message& msg,
                                            const Message&) -> Status {
    if (options_.record_stream) {
      std::string bytes;
      msg.SerializeTo(&bytes);
      recorded_.push_back(std::move(bytes));
    }
    return table_->ApplyMessage(msg, &report.stats);
  };
  // A dropped connection (crash simulation / earlier failure) reconnects,
  // which sends the demand itself.
  if (fd_ < 0 || !SendDemand().ok()) RETURN_IF_ERROR(Reconnect(&report));

  for (;;) {
    Result<Message> arrived = wire::ReadMessage(fd_);
    if (!arrived.ok()) {
      RETURN_IF_ERROR(Reconnect(&report));
      continue;
    }
    const Message& msg = *arrived;
    if (msg.type == MessageType::kServerError) {
      return Status::Internal("server error: " + msg.payload);
    }
    if (msg.type == MessageType::kHelloAck ||
        msg.type == MessageType::kSessionAck ||
        msg.type == MessageType::kHello ||
        msg.type == MessageType::kRefreshRequest ||
        msg.type == MessageType::kResumeRefresh) {
      continue;  // not part of a refresh stream; ignore
    }
    if (pending_resume_target_ != 0 && msg.session_id != 0) {
      if (msg.session_id == pending_resume_target_) ++report.resumes;
      pending_resume_target_ = 0;
    }
    RETURN_IF_ERROR(applier_.Admit(msg, apply));
    if (applier_.Complete(snapshot_id_, msg.session_id)) break;
  }

  const uint64_t session_id = applier_.session(snapshot_id_);
  if (session_id != 0) {
    report.session_id = session_id;
    // Best effort: if the ack is lost the session lingers at the base
    // until the next serve for this snapshot supersedes it. Sessionless
    // (join) streams have nothing to acknowledge.
    (void)wire::WriteMessage(
        fd_, MakeSessionAck(snapshot_id_, session_id,
                            applier_.last_applied(snapshot_id_)));
  }
  applier_.Retire(snapshot_id_);
  const SessionApplier::Counters& after = applier_.counters();
  report.messages_applied = after.applied - before.applied;
  report.duplicates_dropped =
      after.duplicates_dropped - before.duplicates_dropped;
  report.held_for_reorder = after.held_for_reorder - before.held_for_reorder;
  return report;
}

}  // namespace snapdiff
