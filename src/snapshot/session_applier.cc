#include "snapshot/session_applier.h"

namespace snapdiff {

Status SessionApplier::Apply(const Message& msg, const ApplyFn& apply) {
  if (decoder_ == nullptr) {
    RETURN_IF_ERROR(apply(msg, msg));
  } else {
    ASSIGN_OR_RETURN(Message decoded, decoder_->Admit(msg));
    RETURN_IF_ERROR(apply(decoded, msg));
  }
  ++counters_.applied;
  return Status::OK();
}

Status SessionApplier::Admit(const Message& msg, const ApplyFn& apply) {
  if (msg.session_id == 0) {
    RETURN_IF_ERROR(Apply(msg, apply));
    if (msg.type == MessageType::kEndOfRefresh) {
      Stream& stream = streams_[msg.snapshot_id] = Stream{};
      stream.end_applied = true;
    }
    return Status::OK();
  }
  Stream& stream = streams_[msg.snapshot_id];
  if (msg.session_id != stream.session_id) {
    stream = Stream{};
    stream.session_id = msg.session_id;
  }
  if (msg.seq <= stream.last_applied_seq) {
    // Duplicate of the applied prefix (link duplication, or a resumed
    // attempt overlapping late arrivals).
    ++counters_.duplicates_dropped;
    return Status::OK();
  }
  if (msg.seq > stream.last_applied_seq + 1) {
    stream.held.emplace(msg.seq, msg);
    ++counters_.held_for_reorder;
    return Status::OK();
  }
  // The admitted message may close the gap in front of held arrivals.
  const Message* next = &msg;
  for (;;) {
    RETURN_IF_ERROR(Apply(*next, apply));
    stream.last_applied_seq = next->seq;
    if (next->type == MessageType::kEndOfRefresh) stream.end_applied = true;
    if (next != &msg) stream.held.erase(stream.held.begin());
    if (stream.held.empty() ||
        stream.held.begin()->first != stream.last_applied_seq + 1) {
      return Status::OK();
    }
    next = &stream.held.begin()->second;
  }
}

Message SessionApplier::Demand(SnapshotId snapshot, Timestamp snap_time,
                               const std::string& restriction) const {
  auto it = streams_.find(snapshot);
  Message demand;
  if (it != streams_.end() && it->second.session_id != 0 &&
      !it->second.end_applied) {
    demand = MakeResumeRefresh(snapshot, it->second.session_id,
                               it->second.last_applied_seq);
    demand.timestamp = snap_time;
  } else {
    demand = MakeRefreshRequest(snapshot, snap_time, restriction);
  }
  if (decoder_ != nullptr) {
    demand.base_addr = Address::FromRaw(decoder_->generation(snapshot));
  }
  return demand;
}

bool SessionApplier::Complete(SnapshotId snapshot,
                              uint64_t session_id) const {
  auto it = streams_.find(snapshot);
  return it != streams_.end() && it->second.session_id == session_id &&
         it->second.end_applied;
}

uint64_t SessionApplier::session(SnapshotId snapshot) const {
  auto it = streams_.find(snapshot);
  return it == streams_.end() ? 0 : it->second.session_id;
}

uint64_t SessionApplier::last_applied(SnapshotId snapshot) const {
  auto it = streams_.find(snapshot);
  return it == streams_.end() ? 0 : it->second.last_applied_seq;
}

}  // namespace snapdiff
