#ifndef SNAPDIFF_SNAPSHOT_SESSION_APPLIER_H_
#define SNAPDIFF_SNAPSHOT_SESSION_APPLIER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "net/encoding.h"
#include "net/message.h"

namespace snapdiff {

/// The snapshot-site half of the refresh protocol: admits each snapshot's
/// refresh stream strictly in sequence order (Figure 4's apply needs the
/// transmission order), which makes the apply idempotent under duplicated,
/// reordered and re-transmitted delivery.
///
///  * A message whose seq is already applied is a duplicate and drops.
///  * An early arrival across a gap is held until the gap closes.
///  * A message under a session id other than the snapshot's current one
///    supersedes it: the base opened a fresh session (a new demand, or a
///    resume it could no longer honour), so the applied-prefix accounting
///    restarts and the old session's held arrivals are discarded.
///  * Session-less messages (ASAP propagation, join streams) apply on
///    arrival.
///
/// Admission is the decode point of compact-wire streams: exactly once, in
/// sequence order, which keeps the decoder's row shadow in lockstep with
/// the base side's encoder. A session is complete once its END applied;
/// only then may the client acknowledge it.
///
/// Both snapshot sites use it: each of SnapshotSystem's in-process site
/// links, and RemoteSnapshotSite.
class SessionApplier {
 public:
  /// Applies one admitted message: `canonical` is the decoded message,
  /// `wire` the message as it travelled (the same without a decoder).
  using ApplyFn =
      std::function<Status(const Message& canonical, const Message& wire)>;

  /// `decoder` (null: canonical wire) is borrowed.
  explicit SessionApplier(WireDecoder* decoder = nullptr)
      : decoder_(decoder) {}

  /// Routes one arrived message: drops it, holds it, or applies it — and
  /// every held arrival it unblocks — through `apply`.
  Status Admit(const Message& msg, const ApplyFn& apply);

  /// The demand that continues `snapshot`'s refresh: RESUME_REFRESH of its
  /// live session after the applied prefix, or a fresh REFRESH_REQUEST
  /// carrying `restriction` when no session is live. Both carry SnapTime
  /// (a resume the base can no longer honour falls back to a fresh serve
  /// at that time) and, with a decoder, its committed codec generation in
  /// the otherwise-unused base_addr.
  Message Demand(SnapshotId snapshot, Timestamp snap_time,
                 const std::string& restriction = "") const;

  /// True once the END of `session_id` (0: a session-less stream) applied.
  bool Complete(SnapshotId snapshot, uint64_t session_id) const;
  /// The snapshot's current session (0 when none) and its applied prefix.
  uint64_t session(SnapshotId snapshot) const;
  uint64_t last_applied(SnapshotId snapshot) const;

  /// Forgets `snapshot`'s stream: its session finished, or the client
  /// abandons it for a fresh one.
  void Retire(SnapshotId snapshot) { streams_.erase(snapshot); }

  struct Counters {
    uint64_t applied = 0;
    uint64_t duplicates_dropped = 0;
    uint64_t held_for_reorder = 0;  // early arrivals parked until their turn
  };
  /// Running totals since construction.
  const Counters& counters() const { return counters_; }

 private:
  struct Stream {
    uint64_t session_id = 0;
    uint64_t last_applied_seq = 0;
    bool end_applied = false;
    std::map<uint64_t, Message> held;  // early arrivals, by seq
  };

  /// Decodes and applies one in-order message.
  Status Apply(const Message& msg, const ApplyFn& apply);

  WireDecoder* decoder_;
  std::map<SnapshotId, Stream> streams_;
  Counters counters_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_SESSION_APPLIER_H_
