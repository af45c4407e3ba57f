#ifndef SNAPDIFF_NET_MESSAGE_H_
#define SNAPDIFF_NET_MESSAGE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace snapdiff {

/// Wire messages of the refresh protocol. One message ≈ one "item
/// transmitted to the snapshot" in the paper's accounting.
enum class MessageType : uint8_t {
  /// snapshot → base: demand a refresh. `timestamp` carries SnapTime,
  /// `payload` the restriction text (informational; plans are compiled at
  /// CREATE SNAPSHOT time).
  kRefreshRequest = 0,
  /// base → snapshot: discard all snapshot contents (full refresh preamble).
  kClear = 1,
  /// base → snapshot, differential: `base_addr` + projected values in
  /// `payload`, plus `prev_addr` = address of the *previous qualified*
  /// entry. Apply deletes every snapshot entry with BaseAddr strictly
  /// between prev_addr and base_addr, then upserts (Figure 4).
  kEntry = 2,
  /// base → snapshot: plain upsert of `base_addr` (full/ideal/log/ASAP
  /// paths; no gap semantics).
  kUpsert = 3,
  /// base → snapshot: delete the entry with BaseAddr = `base_addr`.
  kDelete = 4,
  /// base → snapshot, empty-region algorithm: delete every entry with
  /// BaseAddr in [base_addr, prev_addr] (inclusive region bounds).
  kDeleteRange = 5,
  /// base → snapshot: end of refresh. `prev_addr` = LastQual — apply
  /// deletes every entry with BaseAddr > LastQual unless prev_addr is the
  /// NULL sentinel (methods without positional semantics). `timestamp`
  /// carries the new SnapTime.
  kEndOfRefresh = 6,
  /// base → snapshot: up to N coalesced kEntry or kUpsert messages sharing
  /// one header + one per-message overhead (DBLog-style batched change
  /// records). The header carries the common snapshot id; the payload is
  /// [sub-type u8][count u32] then per entry
  /// [base_addr u64][prev_addr u64][len-prefixed payload]. Apply unpacks
  /// and processes the entries in order, so batched transmission is
  /// semantically identical to the unbatched stream.
  kEntryBatch = 7,
  /// snapshot → base: resume an interrupted refresh session. `session_id`
  /// names the session; `seq` carries the snapshot site's durably-applied
  /// prefix (last_applied_seq). The base site replies by re-running the
  /// refresh with every message whose seq <= last_applied_seq suppressed.
  kResumeRefresh = 8,
  /// client → server: attach to the snapshot named in `payload`. The
  /// refresh server replies with kHelloAck (or kServerError).
  kHello = 9,
  /// server → client: attachment accepted. `snapshot_id` is the wire id the
  /// client uses in subsequent demands; `payload` carries the snapshot's
  /// projected value schema (see wire::SerializeSchema) so the client can
  /// build its local replica.
  kHelloAck = 10,
  /// client → server: the session's END_OF_REFRESH applied durably.
  /// `session_id` names the session, `seq` the applied prefix. The server
  /// commits the refresh outcome (staged ideal shadow / log position) and
  /// releases the session's scan epoch.
  kSessionAck = 11,
  /// server → client: a demand failed at the base site; `payload` carries
  /// the error text. The connection stays usable.
  kServerError = 12,
  /// base → snapshot: a compact-wire wrapper around one data message of an
  /// encoded refresh stream (negotiated in HELLO/HELLO_ACK; see
  /// net/encoding.h). The outer header is the wrapped message's header
  /// verbatim; the payload is
  /// [inner_type u8][flags u8][varint stream_gen][varint count][body],
  /// where the body delta/columnar-encodes (and optionally compresses) the
  /// inner payload. WireDecoder::Admit restores the canonical message
  /// byte-exactly at the snapshot site's admission point.
  kEncoded = 13,
};

std::string_view MessageTypeToString(MessageType type);

struct Message {
  MessageType type = MessageType::kRefreshRequest;
  SnapshotId snapshot_id = 0;
  Address base_addr = Address::Null();
  Address prev_addr = Address::Null();
  Timestamp timestamp = kNullTimestamp;
  /// Refresh-session identity. 0 = sessionless (ASAP streams, group
  /// refresh, direct executor use): such messages are applied on arrival
  /// with no duplicate/reorder protection. Non-zero: the message belongs to
  /// a resumable refresh session and `seq` is its 1-based position in the
  /// session's stream; the snapshot-site applier admits session messages
  /// strictly in seq order, dropping duplicates and holding early arrivals
  /// (see SessionApplier).
  uint64_t session_id = 0;
  uint64_t seq = 0;
  std::string payload;

  bool IsDataMessage() const {
    return type == MessageType::kEntry || type == MessageType::kUpsert ||
           type == MessageType::kDelete || type == MessageType::kDeleteRange ||
           type == MessageType::kEntryBatch || type == MessageType::kEncoded;
  }

  void SerializeTo(std::string* dst) const;
  static Result<Message> DeserializeFrom(std::string_view* input);
  size_t SerializedSize() const;

  std::string ToString() const;
};

bool operator==(const Message& a, const Message& b);

/// Anything that accepts protocol messages on the base side of a link:
/// the Channel itself, a BatchingSender coalescing in front of it, or a
/// RefreshSession stamping session ids and sequence numbers. Executors
/// write to a sink so transmission-side concerns stack without the
/// executors knowing.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual Status Send(const Message& msg) = 0;
};

/// Factories for the common shapes.
Message MakeRefreshRequest(SnapshotId id, Timestamp snap_time,
                           std::string restriction_text);
Message MakeClear(SnapshotId id);
Message MakeEntry(SnapshotId id, Address addr, Address prev_qual,
                  std::string projected_tuple);
Message MakeUpsert(SnapshotId id, Address addr, std::string projected_tuple);
Message MakeDeleteMsg(SnapshotId id, Address addr);
Message MakeDeleteRange(SnapshotId id, Address lo, Address hi);
Message MakeEndOfRefresh(SnapshotId id, Address last_qual,
                         Timestamp new_snap_time);
/// RESUME_REFRESH(session, last_applied_seq): snapshot → base, asking the
/// base site to restart session `session_id` from the first unapplied
/// message. The checkpoint travels in `seq`.
Message MakeResumeRefresh(SnapshotId id, uint64_t session_id,
                          uint64_t last_applied_seq);
/// HELLO(snapshot_name): client → server attachment demand.
Message MakeHello(std::string snapshot_name);
/// HELLO_ACK(id, serialized value schema): server → client.
Message MakeHelloAck(SnapshotId id, std::string schema_payload);
/// SESSION_ACK(session, last_applied_seq): client → server commit demand.
Message MakeSessionAck(SnapshotId id, uint64_t session_id,
                       uint64_t last_applied_seq);
/// SERVER_ERROR(text): server → client demand failure.
Message MakeServerError(std::string error_text);

/// Coalesces `entries` into one kEntryBatch message. All entries must share
/// one snapshot id and one type (kEntry or kUpsert) and carry no timestamp;
/// `entries` must be non-empty.
Result<Message> MakeEntryBatch(const std::vector<Message>& entries);

/// Reconstructs the individual kEntry/kUpsert messages of a batch, in the
/// order they were coalesced.
Result<std::vector<Message>> UnpackEntryBatch(const Message& batch);

/// The number of entries coalesced in a kEntryBatch (cheap header read;
/// used by channel accounting).
Result<uint64_t> EntryBatchCount(const Message& batch);

}  // namespace snapdiff

#endif  // SNAPDIFF_NET_MESSAGE_H_
