#ifndef SNAPDIFF_NET_ENCODING_H_
#define SNAPDIFF_NET_ENCODING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "net/message.h"

namespace snapdiff {

/// Compact wire encoding for refresh streams (ROADMAP item 5): a
/// WireEncoder sits inside the base site's RefreshSession and rewrites
/// every data message into a MessageType::kEncoded wrapper whose payload
/// is (a) delta-encoded against the per-session row-version shadow both
/// ends maintain, (b) columnar with varint/zigzag integers and dictionary
/// strings within ENTRY_BATCH frames, and (c) optionally block-compressed
/// (common/lz.h). A WireDecoder at the snapshot site's admission point
/// reverses the transform byte-exactly, so everything above the codec —
/// session admission, suppress-by-sequence resume, ApplyMessage — still
/// sees the canonical stream. With no encoder attached nothing changes at
/// all: the canonical stream is the uncompressed-mode invariant.
///
/// ## Wrapper format
///
/// A kEncoded message keeps the canonical outer header (snapshot id,
/// base/prev address, timestamp, session id, sequence number), so fault
/// handling and admission ordering never need to look inside. The payload:
///
///   [inner_type u8][flags u8][varint stream_gen][varint count][body]
///
/// flags: bit0 = stream start (first message of a fresh session's stream),
/// bit1 = stream reset (decoder must clear its row shadow first), bit2 =
/// body is LZ-compressed ([varint raw_size][block]). `count` is the number
/// of coalesced entries (1 for single messages, 0 for wrapped control
/// messages), read cheaply by EncodedEntryCount for transport accounting.
///
/// The body packs per-entry flag bytes, zigzag-varint address deltas
/// (batches), then row payloads in three forms: *delta* rows ship only the
/// fields whose canonical slot bytes changed versus the shadowed previous
/// version ([varint nchanged]{varint field, u8 null, value}; nchanged = 0
/// means "previous version verbatim"), *columnar* rows are sliced by the
/// snapshot's value schema and encoded column-major, and *opaque* rows
/// (payloads that don't match the schema) travel as raw bytes.
///
/// ## The row shadow, sessions, and generations
///
/// Delta encoding is sound only if both ends agree on the "previous
/// version" of every row. Each side keeps, per snapshot, a map
/// addr -> canonical payload folded from the *same* message sequence: the
/// encoder folds what it encodes (including the messages a resumed attempt
/// re-encodes but suppresses), the decoder folds what it admits — and
/// admission is exactly-once and in-order, which is why decoding happens
/// there and never at the transport (drops/dups/reorders act below).
/// In-session folds are undone on rollback (a superseded or re-run
/// attempt) and committed only when the refresh completes end-to-end: the
/// encoder commits at the client's acknowledgement, the decoder when the
/// session's END applies. A committed-generation counter guards the
/// remaining divergence window (a lost ack): the client reports its
/// generation with every demand (SyncGeneration); on mismatch the encoder
/// resets its shadow and flags the stream so the decoder resets too —
/// one self-healing full-payload round, never a wrong byte.
///
/// ## Negotiation
///
/// Capability bits travel in the otherwise-unused session_id field of
/// HELLO (client offer) and HELLO_ACK (server acceptance — the bitwise
/// AND). Old peers send 0 and keep speaking the canonical protocol
/// unchanged.

/// Capability bits (HELLO / HELLO_ACK session_id field).
constexpr uint64_t kWireCapEncoding = 1;
constexpr uint64_t kWireCapCompression = 2;

/// The capability bits a peer with these switches offers (client) or
/// enables (server).
uint64_t WireCaps(bool encoding, bool compression);
/// What both ends run with: the bits offered AND accepted. Compression
/// applies only to encoded bodies, so without the encoding bit it grants
/// nothing.
uint64_t NegotiateWireCaps(uint64_t offered, uint64_t accepted);

struct WireCodecOptions {
  /// LZ-compress encoded bodies that shrink (negotiated; decode always
  /// accepts compressed bodies regardless).
  bool compression = false;
};

/// Resolves a snapshot's projected value schema, or null when unknown
/// (unknown snapshots still round-trip via the opaque row form).
using WireSchemaResolver = std::function<const Schema*(SnapshotId)>;

struct WireCodecStats {
  uint64_t encoded_messages = 0;
  uint64_t delta_rows = 0;
  uint64_t columnar_rows = 0;
  uint64_t opaque_rows = 0;
  uint64_t compressed_blocks = 0;
  uint64_t memo_hits = 0;        // encoded-body reuse (serve-many fan-out)
  uint64_t bytes_in = 0;         // canonical payload bytes seen
  uint64_t bytes_out = 0;        // encoded payload bytes produced
  uint64_t stream_resets = 0;    // generation mismatches healed
};

WireCodecStats& operator+=(WireCodecStats& a, const WireCodecStats& b);

namespace wire_internal {

/// One side's per-snapshot codec state. Shared by encoder and decoder —
/// the whole soundness story is that both sides run the same folds in the
/// same order.
struct StreamState {
  uint64_t gen = 0;  // committed generation
  /// addr raw -> canonical payload of the row's last version (committed
  /// prefix + in-session folds).
  std::map<uint64_t, std::string> rows;
  /// In-session undo log; rolled back when an attempt is superseded.
  struct UndoOp {
    uint64_t addr = 0;
    std::optional<std::string> prior;          // nullopt = row was absent
    std::optional<std::map<uint64_t, std::string>> restore_all;  // kClear
  };
  std::vector<UndoOp> undo;
  uint64_t open_session = 0;
  bool dirty = false;          // >= 1 encoded message this session
  bool pending_start = false;  // encoder: emit stream-start on next message
  bool pending_reset = false;  // encoder: emit stream-reset on next message
};

void Rollback(StreamState* s);
void FoldCanonical(StreamState* s, const Message& canonical,
                   const std::vector<Message>* batch_entries);

}  // namespace wire_internal

/// Encode-once-serve-many memo: a group refresh fans one base scan out to
/// N same-class subscribers whose canonical streams (and row shadows) are
/// identical, so the encoded body is a pure function of the memo key
/// (canonical payload + consulted shadow rows + schema shape). Shared
/// across the per-site encoders of one SnapshotSystem (or per-connection
/// in the server); exact-match ring, thread-safe.
class WireEncodeMemo {
 public:
  struct CachedBody {
    std::string body;
    bool compressed = false;
  };

  bool Lookup(std::string_view key, CachedBody* out);
  void Insert(std::string key, CachedBody body);
  uint64_t hits() const;

 private:
  static constexpr size_t kRingSize = 16;
  mutable std::mutex mu_;
  struct Entry {
    std::string key;
    CachedBody body;
  };
  std::vector<Entry> ring_;
  size_t next_ = 0;
  uint64_t hits_ = 0;
};

/// Base-site half: plugs into RefreshSession (it encodes *before* the
/// suppression check, so resumed attempts replay shadow state for messages
/// that never touch the wire). One encoder per link/connection; state is
/// keyed per snapshot inside.
class WireEncoder {
 public:
  explicit WireEncoder(WireCodecOptions options = {},
                       WireSchemaResolver resolver = nullptr,
                       std::shared_ptr<WireEncodeMemo> memo = nullptr);

  /// The peer reported its committed generation with the demand. On
  /// mismatch the shadow resets and the next stream tells the decoder to
  /// reset too.
  void SyncGeneration(SnapshotId snapshot_id, uint64_t peer_gen);

  /// A transmission attempt for `session_id` starts. Rolls back any
  /// uncommitted in-session folds; a fresh (non-resumed) stream will carry
  /// the stream-start flag on its first message.
  void BeginStream(SnapshotId snapshot_id, uint64_t session_id, bool resumed);

  /// The client confirmed the session applied end-to-end (SESSION_ACK /
  /// in-process completion): in-session folds become the committed shadow
  /// and the generation advances. No-op if the stream was superseded.
  void CommitStream(SnapshotId snapshot_id, uint64_t session_id);

  uint64_t generation(SnapshotId snapshot_id) const;

  /// Rewrites data messages of the open stream into kEncoded form and
  /// folds their canonical content into the shadow. Control messages and
  /// messages outside any open stream pass through untouched.
  Result<Message> Encode(Message msg);

  WireCodecStats stats() const;

 private:
  mutable std::mutex mu_;
  WireCodecOptions options_;
  WireSchemaResolver resolver_;
  std::shared_ptr<WireEncodeMemo> memo_;
  std::map<SnapshotId, wire_internal::StreamState> streams_;
  WireCodecStats stats_;
};

/// Snapshot-site half: feed it every admitted message (exactly once, in
/// admitted order — SnapshotSystem::ApplyDelivered, the group-refresh
/// apply loop, RemoteSnapshotSite::Admit). kEncoded messages come back
/// canonical; everything else passes through while the decoder tracks
/// stream transitions, folds, and END commits.
class WireDecoder {
 public:
  explicit WireDecoder(WireCodecOptions options = {},
                       WireSchemaResolver resolver = nullptr);

  Result<Message> Admit(Message msg);

  /// The committed generation a demand reports to the base site.
  uint64_t generation(SnapshotId snapshot_id) const;

  WireCodecStats stats() const;

 private:
  mutable std::mutex mu_;
  WireCodecOptions options_;
  WireSchemaResolver resolver_;
  std::map<SnapshotId, wire_internal::StreamState> streams_;
  WireCodecStats stats_;
};

/// Entries coalesced in a kEncoded message (cheap header read; transport
/// accounting, mirrors EntryBatchCount).
Result<uint64_t> EncodedEntryCount(const Message& msg);

/// Inner message type of a kEncoded wrapper (transport accounting).
Result<MessageType> EncodedInnerType(const Message& msg);

}  // namespace snapdiff

#endif  // SNAPDIFF_NET_ENCODING_H_
