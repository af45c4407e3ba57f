#ifndef SNAPDIFF_NET_TRANSPORT_H_
#define SNAPDIFF_NET_TRANSPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "net/message.h"
#include "obs/metrics.h"

namespace snapdiff {

/// Framing/overhead model and instrumentation surface shared by every
/// transport: the in-process Channel, the loopback pipe, and the socket
/// transport all meter under the same model, so ChannelStats are comparable
/// across deployments. R* "blocks the entries to be transmitted" — up to
/// `blocking_factor` messages share one network frame, whose fixed header
/// is paid once.
struct TransportOptions {
  size_t blocking_factor = 32;
  size_t frame_header_bytes = 64;
  size_t per_message_overhead_bytes = 8;
  /// Instrument family this link reports into (MetricsRegistry::Default()).
  /// Transports sharing a prefix aggregate; SnapshotSystem separates its
  /// data links ("net.channel.data") from the demand link
  /// ("net.channel.request") so refresh traffic can be traced in isolation.
  std::string metrics_prefix = "net.channel.data";
};

/// The pre-seam name; every existing call site keeps compiling.
using ChannelOptions = TransportOptions;

/// Traffic meters. `messages` counts logical protocol messages — the unit
/// of Figures 8/9 — split by category; `frames` counts network frames under
/// the blocking model; `wire_bytes` = payloads + per-message overhead +
/// frame headers.
struct ChannelStats {
  uint64_t messages = 0;
  uint64_t entry_messages = 0;    // kEntry + kUpsert + kEntryBatch
  uint64_t delete_messages = 0;   // kDelete + kDeleteRange
  uint64_t control_messages = 0;  // request/clear/end/hello/ack
  /// Logical entries carried inside kEntryBatch messages. A batch of k
  /// entries counts as 1 message / 1 entry_message / k batched_entries, so
  /// the pre-batching entry count is recoverable as
  /// (entry_messages - batches) + batched_entries.
  uint64_t batched_entries = 0;
  uint64_t payload_bytes = 0;
  uint64_t wire_bytes = 0;
  uint64_t frames = 0;
  uint64_t send_failures = 0;  // rejected while partitioned / socket error
  // Fault-injection effects (see FaultPlan). A dropped message consumed
  // wire (it is metered above) but was never delivered; a duplicated
  // message is metered once and delivered twice.
  uint64_t dropped_messages = 0;
  uint64_t duplicated_messages = 0;
  uint64_t reordered_messages = 0;  // deliveries displaced from FIFO order
};

ChannelStats operator-(const ChannelStats& a, const ChannelStats& b);
ChannelStats operator+(const ChannelStats& a, const ChannelStats& b);
ChannelStats& operator+=(ChannelStats& a, const ChannelStats& b);

/// How the meters classify a message: a data entry, a deletion, or control
/// traffic. An encoded message counts as the type it wraps.
enum class MessageClass { kEntry, kDelete, kControl };
/// Meters one `bytes`-long message into `stats` and returns its class.
MessageClass CountMessage(const Message& msg, uint64_t bytes,
                          ChannelStats* stats);

/// A composable description of how the link misbehaves, armed on a
/// Transport with Arm(). Build with the named constructors and chain With*
/// to compose:
///
///   transport->Arm(FaultPlan::PartitionAfter(40).WithHealAfter(8));
///   transport->Arm(FaultPlan::DropEvery(7).WithDuplicateEvery(5));
///
/// Counters (sends, bytes, cadences) count from the moment the plan is
/// armed. All faults are deterministic; reordering draws from a Random
/// seeded by `reorder_seed`. Time is virtual: HealAfter ticks elapse only
/// through Transport::AdvanceTime (the retry loop's backoff), never the
/// wall clock.
struct FaultPlan {
  /// Link dies after this many further successful sends (0 = immediately,
  /// before the next send). The partition persists until healed.
  std::optional<uint64_t> partition_after_sends;
  /// Link dies once this many further wire bytes have been transmitted.
  std::optional<uint64_t> partition_after_bytes;
  /// Every nth sent message is silently lost: metered as transmitted (the
  /// wire was consumed) but never delivered.
  uint64_t drop_every_nth = 0;
  /// Every nth sent message is delivered twice (delivery-layer duplication;
  /// metered once).
  uint64_t duplicate_every_nth = 0;
  /// Each delivery may be displaced up to this many positions earlier in
  /// the queue than FIFO order (bounded reorder window).
  uint64_t reorder_window = 0;
  uint64_t reorder_seed = 0;
  /// A fired partition self-heals after this many virtual ticks past the
  /// firing; a plan with no partition component (pure drop/duplicate/
  /// reorder cadence) instead expires this many ticks after arming. Either
  /// way, virtual time only advances via Transport::AdvanceTime.
  std::optional<uint64_t> heal_after_ticks;

  static FaultPlan None() { return FaultPlan{}; }
  static FaultPlan PartitionNow() { return PartitionAfter(0); }
  static FaultPlan PartitionAfter(uint64_t sends) {
    FaultPlan p;
    p.partition_after_sends = sends;
    return p;
  }
  static FaultPlan PartitionAfterBytes(uint64_t bytes) {
    FaultPlan p;
    p.partition_after_bytes = bytes;
    return p;
  }
  static FaultPlan DropEvery(uint64_t nth) {
    FaultPlan p;
    p.drop_every_nth = nth;
    return p;
  }
  static FaultPlan DuplicateEvery(uint64_t nth) {
    FaultPlan p;
    p.duplicate_every_nth = nth;
    return p;
  }
  static FaultPlan Reorder(uint64_t window, uint64_t seed) {
    FaultPlan p;
    p.reorder_window = window;
    p.reorder_seed = seed;
    return p;
  }

  FaultPlan WithHealAfter(uint64_t ticks) && {
    heal_after_ticks = ticks;
    return std::move(*this);
  }
  FaultPlan WithDropEvery(uint64_t nth) && {
    drop_every_nth = nth;
    return std::move(*this);
  }
  FaultPlan WithDuplicateEvery(uint64_t nth) && {
    duplicate_every_nth = nth;
    return std::move(*this);
  }
  FaultPlan WithReorder(uint64_t window, uint64_t seed) && {
    reorder_window = window;
    reorder_seed = seed;
    return std::move(*this);
  }

  bool empty() const {
    return !partition_after_sends.has_value() &&
           !partition_after_bytes.has_value() && drop_every_nth == 0 &&
           duplicate_every_nth == 0 && reorder_window == 0;
  }
};

/// Explicit fault lifecycle (the old FailAfterSends counter leaked across
/// ResetStats because the states were implicit):
///   kIdle  — no plan armed; the link is honest.
///   kArmed — a plan is armed; drop/duplicate/reorder are live, a pending
///            partition has not yet fired.
///   kFired — the partition condition fired; Send fails until healed.
///   kHealed — a fired partition was healed (by Heal() or heal_after); the
///            plan is disarmed.
enum class FaultPhase : uint8_t { kIdle, kArmed, kFired, kHealed };

std::string_view FaultPhaseToString(FaultPhase phase);

/// The transport seam: anything that carries refresh-protocol messages
/// base → snapshot. The in-process Channel, the loopback pipe, and the
/// socket transport are interchangeable behind this interface; executors,
/// RefreshSession, BatchingSender, fault plans, and ChannelStats accounting
/// all sit above it unchanged.
///
/// Contract every implementation MUST honor (the fault-matrix tests rely
/// on it; a socket transport may not silently ignore the lifecycle):
///
///  * Send() meters under the shared TransportOptions framing model and
///    applies the armed FaultPlan: a fired partition rejects with
///    Unavailable, drop consumes wire without delivering, duplicate
///    delivers twice, reorder displaces deliveries within the window.
///  * Arm(plan) replaces any previous plan and restarts the armed-side
///    counters; Arm(FaultPlan::None()) disarms. Heal() clears a partition
///    (fired or not) and disarms.
///  * AdvanceTime(ticks) advances the link's *virtual* clock — the only
///    clock fault plans see. A fired partition with heal_after_ticks heals
///    once enough ticks have elapsed; a cadence-only plan expires. Real
///    transports do not tie this to the wall clock either: retry backoff
///    drives it explicitly.
///  * ResetStats() zeroes the meters, closes the open accounting frame
///    (the next send starts a fresh frame), and disarms an armed-but-
///    unfired plan — a fresh measurement baseline implies an honest link.
///    A *fired* partition is a real outage and MUST persist across
///    ResetStats until healed.
class Transport : public MessageSink {
 public:
  ~Transport() override = default;

  /// Delivers the oldest pending inbound message. NotFound when empty
  /// (in-process queues); Unavailable when the peer is gone (sockets).
  virtual Result<Message> Receive() = 0;
  /// True when Receive() would yield a message without blocking.
  virtual bool HasPending() const = 0;
  virtual size_t pending() const = 0;

  /// Closes the current partially filled accounting frame (end of a
  /// transmission burst; implied by sending an END_OF_REFRESH).
  virtual void FlushFrame() = 0;

  /// --- fault lifecycle: Arm → (fire) → Heal (see class contract) --------
  virtual void Arm(FaultPlan plan) = 0;
  virtual void Heal() = 0;
  virtual void AdvanceTime(uint64_t ticks) = 0;
  virtual FaultPhase fault_phase() const = 0;
  virtual const FaultPlan& fault_plan() const = 0;
  virtual bool partitioned() const = 0;
  virtual uint64_t now() const = 0;

  virtual const ChannelStats& stats() const = 0;
  virtual void ResetStats() = 0;
  virtual const TransportOptions& options() const = 0;

  /// Compatibility shim for the pre-FaultPlan API: partition immediately /
  /// heal.
  void SetPartitioned(bool partitioned) {
    if (partitioned) {
      Arm(FaultPlan::PartitionNow());
    } else {
      Heal();
    }
  }
};

/// The shared send-side accounting + fault-plan engine behind every
/// Transport implementation. One OnSend() call performs, in order: the
/// partition fire check, metering (per-type counters, payload/wire bytes,
/// frame accounting), armed-counter advance, and the drop/duplicate
/// decision — exactly the sequence the in-process Channel has always used,
/// so a socket transport's ChannelStats are bit-comparable with a
/// Channel's for the same message stream.
class TransportMeter {
 public:
  explicit TransportMeter(const TransportOptions& options);

  struct SendVerdict {
    /// Partitioned: the caller must fail the send with Unavailable (the
    /// failure is already metered).
    bool rejected = false;
    /// Deliveries owed to the peer: 0 = dropped, 1 = normal, 2 = duplicated.
    int deliveries = 1;
    /// The message was an END_OF_REFRESH: close the frame after delivering.
    bool end_of_burst = false;
  };

  /// Accounts one outgoing message (`bytes` = its serialization).
  SendVerdict OnSend(const Message& msg, const std::string& bytes);

  /// Reorder displacement for the next delivery, given the number of
  /// deliveries currently queued behind the link. Draws from the plan's
  /// RNG and meters a reordered delivery when displaced; call exactly once
  /// per delivery, in delivery order.
  uint64_t NextDisplacement(size_t queue_size);

  /// Meters a send failure that is not fault-injected (e.g. a real socket
  /// error).
  void NoteSendFailure();

  void FlushFrame();
  void Arm(FaultPlan plan);
  void Heal();
  void AdvanceTime(uint64_t ticks);
  void ResetStats();

  FaultPhase fault_phase() const { return fault_phase_; }
  const FaultPlan& fault_plan() const { return fault_plan_; }
  bool partitioned() const { return partitioned_; }
  uint64_t now() const { return now_ticks_; }
  const ChannelStats& stats() const { return stats_; }
  const TransportOptions& options() const { return options_; }

 private:
  /// Per-counter instruments mirrored into MetricsRegistry::Default().
  struct Instruments {
    obs::Counter* messages;
    obs::Counter* entry_messages;
    obs::Counter* delete_messages;
    obs::Counter* control_messages;
    obs::Counter* batched_entries;
    obs::Counter* payload_bytes;
    obs::Counter* wire_bytes;
    obs::Counter* frames;
    obs::Counter* send_failures;
    obs::Counter* dropped;
    obs::Counter* duplicated;
    obs::Counter* reordered;
  };

  void FirePartition();
  /// Flight-recorder hook: emits one instant event per closed frame
  /// carrying that frame's exact wire bytes (header + messages), plus a
  /// cumulative wire-bytes counter sample. Summing the instants over a
  /// refresh reproduces ChannelStats::wire_bytes exactly — the
  /// reconciliation the observability integration test asserts.
  void NoteFrameClosed();

  TransportOptions options_;
  Instruments metrics_;
  size_t open_frame_messages_ = 0;
  uint64_t open_frame_wire_bytes_ = 0;
  const char* fr_frame_name_ = nullptr;  // interned "<prefix>.frame"
  const char* fr_wire_name_ = nullptr;   // interned "<prefix>.wire_bytes"
  bool partitioned_ = false;
  ChannelStats stats_;

  // Fault state (see FaultPhase).
  FaultPlan fault_plan_;
  FaultPhase fault_phase_ = FaultPhase::kIdle;
  uint64_t sends_since_arm_ = 0;
  uint64_t bytes_since_arm_ = 0;
  uint64_t now_ticks_ = 0;
  uint64_t armed_at_ticks_ = 0;
  uint64_t fired_at_ticks_ = 0;
  Random reorder_rng_{0};
};

}  // namespace snapdiff

#endif  // SNAPDIFF_NET_TRANSPORT_H_
