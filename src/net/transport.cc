#include "net/transport.h"

#include <algorithm>

#include "net/encoding.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"

namespace snapdiff {

ChannelStats operator-(const ChannelStats& a, const ChannelStats& b) {
  ChannelStats d;
  d.messages = a.messages - b.messages;
  d.entry_messages = a.entry_messages - b.entry_messages;
  d.delete_messages = a.delete_messages - b.delete_messages;
  d.control_messages = a.control_messages - b.control_messages;
  d.batched_entries = a.batched_entries - b.batched_entries;
  d.payload_bytes = a.payload_bytes - b.payload_bytes;
  d.wire_bytes = a.wire_bytes - b.wire_bytes;
  d.frames = a.frames - b.frames;
  d.send_failures = a.send_failures - b.send_failures;
  d.dropped_messages = a.dropped_messages - b.dropped_messages;
  d.duplicated_messages = a.duplicated_messages - b.duplicated_messages;
  d.reordered_messages = a.reordered_messages - b.reordered_messages;
  return d;
}

ChannelStats& operator+=(ChannelStats& a, const ChannelStats& b) {
  a.messages += b.messages;
  a.entry_messages += b.entry_messages;
  a.delete_messages += b.delete_messages;
  a.control_messages += b.control_messages;
  a.batched_entries += b.batched_entries;
  a.payload_bytes += b.payload_bytes;
  a.wire_bytes += b.wire_bytes;
  a.frames += b.frames;
  a.send_failures += b.send_failures;
  a.dropped_messages += b.dropped_messages;
  a.duplicated_messages += b.duplicated_messages;
  a.reordered_messages += b.reordered_messages;
  return a;
}

ChannelStats operator+(const ChannelStats& a, const ChannelStats& b) {
  ChannelStats sum = a;
  sum += b;
  return sum;
}

std::string_view FaultPhaseToString(FaultPhase phase) {
  switch (phase) {
    case FaultPhase::kIdle:
      return "idle";
    case FaultPhase::kArmed:
      return "armed";
    case FaultPhase::kFired:
      return "fired";
    case FaultPhase::kHealed:
      return "healed";
  }
  return "unknown";
}

TransportMeter::TransportMeter(const TransportOptions& options)
    : options_(options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const std::string& p = options_.metrics_prefix;
  metrics_.messages = reg.GetCounter(p + ".messages");
  metrics_.entry_messages = reg.GetCounter(p + ".entry_messages");
  metrics_.delete_messages = reg.GetCounter(p + ".delete_messages");
  metrics_.control_messages = reg.GetCounter(p + ".control_messages");
  metrics_.batched_entries = reg.GetCounter(p + ".batched_entries");
  metrics_.payload_bytes = reg.GetCounter(p + ".payload_bytes");
  metrics_.wire_bytes = reg.GetCounter(p + ".wire_bytes");
  metrics_.frames = reg.GetCounter(p + ".frames");
  metrics_.send_failures = reg.GetCounter(p + ".send_failures");
  metrics_.dropped = reg.GetCounter(p + ".dropped_messages");
  metrics_.duplicated = reg.GetCounter(p + ".duplicated_messages");
  metrics_.reordered = reg.GetCounter(p + ".reordered_messages");
#ifdef SNAPDIFF_FLIGHT_RECORDER_ENABLED
  fr_frame_name_ = obs::FlightRecorder::InternName(p + ".frame");
  fr_wire_name_ = obs::FlightRecorder::InternName(p + ".wire_bytes");
#endif
}

void TransportMeter::Arm(FaultPlan plan) {
  fault_plan_ = plan;
  fault_phase_ = plan.empty() ? FaultPhase::kIdle : FaultPhase::kArmed;
  sends_since_arm_ = 0;
  bytes_since_arm_ = 0;
  armed_at_ticks_ = now_ticks_;
  reorder_rng_ = Random(plan.reorder_seed);
  if (plan.partition_after_sends.has_value() &&
      *plan.partition_after_sends == 0) {
    FirePartition();
  }
}

void TransportMeter::Heal() {
  partitioned_ = false;
  if (fault_phase_ != FaultPhase::kIdle) fault_phase_ = FaultPhase::kHealed;
  fault_plan_ = FaultPlan{};
}

void TransportMeter::AdvanceTime(uint64_t ticks) {
  now_ticks_ += ticks;
  if (!fault_plan_.heal_after_ticks.has_value()) return;
  if (fault_phase_ == FaultPhase::kFired &&
      now_ticks_ - fired_at_ticks_ >= *fault_plan_.heal_after_ticks) {
    SNAPDIFF_LOG(Info) << "injected link loss healed"
                       << obs::kv("channel", options_.metrics_prefix)
                       << obs::kv("after_ticks", now_ticks_ - fired_at_ticks_);
    Heal();
    return;
  }
  // Cadence faults (drop/duplicate/reorder) never "fire"; with no pending
  // partition the heal deadline counts from arming, so the fault window
  // simply expires.
  const bool cadence_only = !fault_plan_.partition_after_sends.has_value() &&
                            !fault_plan_.partition_after_bytes.has_value();
  if (fault_phase_ == FaultPhase::kArmed && cadence_only &&
      now_ticks_ - armed_at_ticks_ >= *fault_plan_.heal_after_ticks) {
    SNAPDIFF_LOG(Info) << "injected fault window expired"
                       << obs::kv("channel", options_.metrics_prefix);
    Heal();
  }
}

void TransportMeter::ResetStats() {
  stats_ = ChannelStats{};
  FlushFrame();
  if (fault_phase_ == FaultPhase::kArmed) {
    fault_plan_ = FaultPlan{};
    fault_phase_ = FaultPhase::kIdle;
  }
}

void TransportMeter::FirePartition() {
  partitioned_ = true;  // the injected link loss persists until healed
  fault_phase_ = FaultPhase::kFired;
  fired_at_ticks_ = now_ticks_;
  SNAPDIFF_LOG(Warn) << "injected link loss fired"
                     << obs::kv("channel", options_.metrics_prefix);
}

void TransportMeter::NoteSendFailure() {
  ++stats_.send_failures;
  metrics_.send_failures->Inc();
}

uint64_t TransportMeter::NextDisplacement(size_t queue_size) {
  if (fault_phase_ == FaultPhase::kArmed && fault_plan_.reorder_window > 0 &&
      queue_size > 0) {
    const uint64_t bound =
        std::min<uint64_t>(fault_plan_.reorder_window, queue_size);
    const uint64_t displacement = reorder_rng_.Uniform(bound + 1);
    if (displacement > 0) {
      ++stats_.reordered_messages;
      metrics_.reordered->Inc();
      return displacement;
    }
  }
  return 0;
}

MessageClass CountMessage(const Message& msg, uint64_t bytes,
                          ChannelStats* stats) {
  ++stats->messages;
  stats->payload_bytes += bytes;
  MessageType type = msg.type;
  if (type == MessageType::kEncoded) {
    // Classify by the wrapped type so encoded streams keep the same
    // entry/delete accounting as canonical ones.
    auto inner = EncodedInnerType(msg);
    type = inner.ok() ? *inner : MessageType::kEntry;
  }
  switch (type) {
    case MessageType::kEntry:
    case MessageType::kUpsert:
      ++stats->entry_messages;
      return MessageClass::kEntry;
    case MessageType::kEntryBatch: {
      auto count = msg.type == MessageType::kEncoded ? EncodedEntryCount(msg)
                                                      : EntryBatchCount(msg);
      ++stats->entry_messages;
      stats->batched_entries += count.ok() ? *count : 0;
      return MessageClass::kEntry;
    }
    case MessageType::kDelete:
    case MessageType::kDeleteRange:
      ++stats->delete_messages;
      return MessageClass::kDelete;
    default:
      ++stats->control_messages;
      return MessageClass::kControl;
  }
}

TransportMeter::SendVerdict TransportMeter::OnSend(const Message& msg,
                                                   const std::string& bytes) {
  SendVerdict verdict;
  if (fault_phase_ == FaultPhase::kArmed) {
    if ((fault_plan_.partition_after_sends.has_value() &&
         sends_since_arm_ >= *fault_plan_.partition_after_sends) ||
        (fault_plan_.partition_after_bytes.has_value() &&
         bytes_since_arm_ >= *fault_plan_.partition_after_bytes)) {
      FirePartition();
    }
  }
  if (partitioned_) {
    NoteSendFailure();
    verdict.rejected = true;
    verdict.deliveries = 0;
    return verdict;
  }

  const uint64_t batched_before = stats_.batched_entries;
  metrics_.messages->Inc();
  switch (CountMessage(msg, bytes.size(), &stats_)) {
    case MessageClass::kEntry:
      metrics_.entry_messages->Inc();
      if (stats_.batched_entries > batched_before) {
        metrics_.batched_entries->Inc(stats_.batched_entries - batched_before);
      }
      break;
    case MessageClass::kDelete:
      metrics_.delete_messages->Inc();
      break;
    case MessageClass::kControl:
      metrics_.control_messages->Inc();
      break;
  }
  metrics_.payload_bytes->Inc(bytes.size());
  stats_.wire_bytes += bytes.size() + options_.per_message_overhead_bytes;
  metrics_.wire_bytes->Inc(bytes.size() + options_.per_message_overhead_bytes);

  // Frame accounting: opening a fresh frame pays the header.
  if (open_frame_messages_ == 0) {
    ++stats_.frames;
    metrics_.frames->Inc();
    stats_.wire_bytes += options_.frame_header_bytes;
    metrics_.wire_bytes->Inc(options_.frame_header_bytes);
    open_frame_wire_bytes_ += options_.frame_header_bytes;
  }
  open_frame_wire_bytes_ += bytes.size() + options_.per_message_overhead_bytes;
  if (++open_frame_messages_ >= options_.blocking_factor) {
    open_frame_messages_ = 0;
    NoteFrameClosed();
  }

  ++sends_since_arm_;
  bytes_since_arm_ += bytes.size() + options_.per_message_overhead_bytes;

  verdict.end_of_burst = msg.type == MessageType::kEndOfRefresh;
  if (fault_phase_ == FaultPhase::kArmed && fault_plan_.drop_every_nth > 0 &&
      sends_since_arm_ % fault_plan_.drop_every_nth == 0) {
    // Silent loss: the sender paid for the wire but nothing arrives.
    ++stats_.dropped_messages;
    metrics_.dropped->Inc();
    verdict.deliveries = 0;
  } else if (fault_phase_ == FaultPhase::kArmed &&
             fault_plan_.duplicate_every_nth > 0 &&
             sends_since_arm_ % fault_plan_.duplicate_every_nth == 0) {
    ++stats_.duplicated_messages;
    metrics_.duplicated->Inc();
    verdict.deliveries = 2;
  }
  return verdict;
}

void TransportMeter::FlushFrame() {
  open_frame_messages_ = 0;
  NoteFrameClosed();
}

void TransportMeter::NoteFrameClosed() {
  if (open_frame_wire_bytes_ > 0) {
    SNAPDIFF_FR_INSTANT(fr_frame_name_, open_frame_wire_bytes_);
    SNAPDIFF_FR_COUNTER(fr_wire_name_, stats_.wire_bytes);
  }
  open_frame_wire_bytes_ = 0;
}

}  // namespace snapdiff
