#ifndef SNAPDIFF_NET_REMOTE_SITE_H_
#define SNAPDIFF_NET_REMOTE_SITE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/status.h"
#include "net/encoding.h"
#include "net/message.h"
#include "snapshot/refresh_types.h"
#include "snapshot/session_applier.h"
#include "snapshot/snapshot_table.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "txn/timestamp_oracle.h"

namespace snapdiff {

struct RemoteSiteOptions {
  /// Buffer-pool pages backing the local replica.
  size_t pool_pages = 256;
  /// Reconnect attempts after the connection dies mid-refresh, with
  /// doubling wall-clock backoff starting at `reconnect_backoff_ms`
  /// (network recovery is real time, unlike the simulated fault clock).
  int reconnect_attempts = 8;
  int reconnect_backoff_ms = 2;
  /// Record the serialized bytes of every admitted refresh-stream message
  /// (the byte-identity tests compare this against an in-process Channel).
  /// With the wire codec negotiated, what is recorded is the *decoded*
  /// canonical message — the decode-equivalence oracle.
  bool record_stream = false;
  /// Offer the compact wire encoding (net/encoding.h) in the HELLO
  /// handshake; effective only if the server accepts.
  bool wire_encoding = false;
  /// Additionally offer LZ block compression of encoded bodies.
  bool wire_compression = false;
};

/// What one remote refresh did, seen from the client.
struct RemoteRefreshReport {
  RefreshStats stats;  // apply-side counters + new snap time
  uint64_t session_id = 0;
  uint64_t reconnects = 0;
  /// RESUME negotiations that actually fast-forwarded (the server kept the
  /// session and suppressed the applied prefix).
  uint64_t resumes = 0;
  uint64_t messages_applied = 0;
  uint64_t duplicates_dropped = 0;
  uint64_t held_for_reorder = 0;  // early arrivals parked until their turn
};

/// The snapshot site as a network client: connects to a RefreshServer,
/// attaches to a snapshot by name (HELLO → HELLO_ACK carries the wire id
/// and value schema), builds a local SnapshotTable replica, and drives
/// Refresh() end-to-end over the framed protocol — demand, seq-ordered
/// apply, SESSION_ACK, and RESUME over reconnect when the connection dies
/// mid-stream.
///
/// Admission is the SessionApplier every snapshot site shares: messages of
/// the current session apply strictly in seq order — duplicates (seq
/// already applied) drop, early arrivals park until the gap fills. A
/// stream arriving under a *different* session id supersedes the current
/// one (the server opened a fresh session instead of resuming); the client
/// adopts it and restarts its applied-prefix accounting.
class RemoteSnapshotSite {
 public:
  /// Dials `addr`, performs the HELLO handshake for `snapshot_name`, and
  /// builds the empty local replica from the schema in the HELLO_ACK.
  static Result<std::unique_ptr<RemoteSnapshotSite>> Connect(
      const std::string& addr, const std::string& snapshot_name,
      RemoteSiteOptions options = {});

  ~RemoteSnapshotSite();

  RemoteSnapshotSite(const RemoteSnapshotSite&) = delete;
  RemoteSnapshotSite& operator=(const RemoteSnapshotSite&) = delete;

  /// One refresh round trip: demand at the replica's SnapTime, apply the
  /// stream, acknowledge the END. Survives connection death mid-stream by
  /// reconnecting and resuming (up to `reconnect_attempts`).
  Result<RemoteRefreshReport> Refresh();

  SnapshotTable* table() { return table_.get(); }
  SnapshotId snapshot_id() const { return snapshot_id_; }
  const std::string& snapshot_name() const { return snapshot_name_; }

  /// Serialized admitted messages, in apply order (record_stream only).
  const std::vector<std::string>& recorded_stream() const {
    return recorded_;
  }
  void ClearRecordedStream() { recorded_.clear(); }

  /// Drops the connection without telling the server (crash simulation);
  /// the next Refresh() reconnects.
  void DropConnection();

  /// Capability bits the server accepted in the HELLO_ACK (0 = canonical
  /// protocol end to end).
  uint64_t wire_caps() const { return wire_caps_; }
  /// Decoder counters when the compact wire encoding is active (all-zero
  /// stats otherwise).
  WireCodecStats wire_stats() const {
    return decoder_ != nullptr ? decoder_->stats() : WireCodecStats{};
  }

 private:
  RemoteSnapshotSite(std::string addr, std::string snapshot_name,
                     RemoteSiteOptions options);

  /// Sends the applier's demand for the replica: RESUME of the session in
  /// flight, else a fresh REFRESH_REQUEST.
  Status SendDemand();
  Status Reconnect(RemoteRefreshReport* report);

  std::string addr_;
  std::string snapshot_name_;
  RemoteSiteOptions options_;
  int fd_ = -1;
  SnapshotId snapshot_id_ = 0;
  uint64_t wire_caps_ = 0;
  /// Present when the server accepted kWireCapEncoding; the applier
  /// decodes every admitted stream message through it.
  std::unique_ptr<WireDecoder> decoder_;
  SessionApplier applier_;

  // Local replica plumbing (construction order matters).
  std::unique_ptr<MemoryDiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<TimestampOracle> oracle_;
  std::unique_ptr<SnapshotTable> table_;

  /// Set after a RESUME demand: the session id we asked to resume. The
  /// first stream message tells us whether the server honored it.
  uint64_t pending_resume_target_ = 0;

  std::vector<std::string> recorded_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_NET_REMOTE_SITE_H_
