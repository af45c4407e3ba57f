#include "snapshot/ideal_refresh.h"

#include <map>

namespace snapdiff {

Status ExecuteIdealRefresh(BaseTable* base, SnapshotDescriptor* desc,
                           MessageSink* channel, RefreshStats* stats,
                           obs::Tracer* tracer,
                           const RefreshExecution& exec) {
  std::vector<size_t> projection_indices;
  projection_indices.reserve(desc->projection.size());
  for (const std::string& name : desc->projection) {
    ASSIGN_OR_RETURN(size_t idx, base->user_schema().IndexOf(name));
    projection_indices.push_back(idx);
  }
  ASSIGN_OR_RETURN(BoundExpression restriction,
                   desc->restriction->Bind(base->user_schema()));
  const Timestamp now = base->oracle()->Next();
  MessageSink* sink = exec.session != nullptr
                          ? static_cast<MessageSink*>(exec.session)
                          : channel;

  // Current qualified projection (as of the epoch's cut when one is set).
  obs::Tracer::Span scan_span(tracer, "scan");
  std::map<Address, std::string> current;
  auto visit =
      [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
    ++stats->entries_scanned;
    ASSIGN_OR_RETURN(bool qualified, restriction.Qualifies(row.user));
    if (!qualified) return Status::OK();
    std::string payload;
    RETURN_IF_ERROR(
        row.user.AppendProjectionTo(projection_indices, &payload));
    current.emplace(addr, std::move(payload));
    return Status::OK();
  };
  RETURN_IF_ERROR(exec.epoch != nullptr
                      ? base->ScanAnnotatedAtEpoch(*exec.epoch, visit)
                      : base->ScanAnnotated(visit));

  scan_span.Note("qualified", current.size());
  scan_span.Close();

  // Ship the exact difference against the last-refresh shadow.
  obs::Tracer::Span diff_span(tracer, "diff+transmit");
  for (const auto& [addr, payload] : current) {
    auto it = desc->ideal_shadow.find(addr);
    if (it == desc->ideal_shadow.end() || it->second != payload) {
      RETURN_IF_ERROR(sink->Send(MakeUpsert(desc->id, addr, payload)));
    }
  }
  for (const auto& [addr, payload] : desc->ideal_shadow) {
    if (!current.contains(addr)) {
      RETURN_IF_ERROR(sink->Send(MakeDeleteMsg(desc->id, addr)));
    }
  }
  diff_span.Close();
  obs::Tracer::Span end_span(tracer, "end-of-refresh");
  RETURN_IF_ERROR(
      sink->Send(MakeEndOfRefresh(desc->id, Address::Null(), now)));
  end_span.Close();
  // Stage the shadow advance; the caller commits it only once the snapshot
  // site confirms the refresh applied. Committing it here would silently
  // lose the delta if a message were dropped in flight (the re-run would
  // diff against the new shadow and emit a different — empty — stream).
  desc->pending_ideal_shadow = std::move(current);
  return Status::OK();
}

}  // namespace snapdiff
