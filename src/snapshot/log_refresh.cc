#include "snapshot/log_refresh.h"

#include "obs/log.h"
#include "snapshot/full_refresh.h"

namespace snapdiff {

Status ExecuteLogBasedRefresh(BaseTable* base, SnapshotDescriptor* desc,
                              MessageSink* channel, RefreshStats* stats,
                              obs::Tracer* tracer,
                              const RefreshExecution& exec) {
  if (base->wal() == nullptr) {
    return Status::InvalidArgument(
        "log-based refresh requires a recovery log");
  }
  ASSIGN_OR_RETURN(Schema projected_schema,
                   base->user_schema().Project(desc->projection));
  const Timestamp now = base->oracle()->Next();
  MessageSink* sink = exec.session != nullptr
                          ? static_cast<MessageSink*>(exec.session)
                          : channel;

  // With a scan epoch, the cull (and the staged log-position advance) stop
  // at the cut's LSN: writers committing past the cut are invisible to this
  // refresh and picked up by the next one.
  const Lsn cut_lsn =
      exec.epoch != nullptr ? exec.epoch->cut_lsn : kInvalidLsn;

  obs::Tracer::Span cull_span(tracer, "cull");
  CullStats cull;
  auto changes = base->wal()->CollectCommittedChanges(
      base->info()->id, desc->last_refresh_lsn, &cull, cut_lsn);
  stats->log_records_culled += cull.records_scanned;
  cull_span.Note("records_scanned", cull.records_scanned);
  cull_span.Note("relevant", cull.relevant_records);
  cull_span.Close();
  if (!changes.ok()) {
    if (!changes.status().IsOutOfRange()) return changes.status();
    // Log truncated past our last refresh: "one could bound the buffering
    // required and transmit the entire (restricted) base table".
    stats->fell_back_to_full = true;
    SNAPDIFF_LOG(Warn) << "log truncated past last refresh; falling back"
                       << obs::kv("snapshot", desc->name)
                       << obs::kv("last_refresh_lsn", desc->last_refresh_lsn);
    RETURN_IF_ERROR(ExecuteFullRefresh(base, desc, channel, stats, tracer,
                                       exec));
    desc->pending_refresh_lsn =
        cut_lsn != kInvalidLsn ? cut_lsn : base->wal()->LastLsn();
    return Status::OK();
  }

  ASSIGN_OR_RETURN(BoundExpression restriction,
                   desc->restriction->Bind(base->user_schema()));
  auto qualifies = [&](const std::string& image) -> Result<bool> {
    if (image.empty()) return false;
    ASSIGN_OR_RETURN(Tuple row,
                     Tuple::Deserialize(base->user_schema(), image));
    return restriction.Qualifies(row);
  };

  obs::Tracer::Span transmit_span(tracer, "transmit");
  for (const auto& [addr, change] : *changes) {
    ASSIGN_OR_RETURN(bool before_q, qualifies(change.before));
    ASSIGN_OR_RETURN(bool after_q, qualifies(change.after));
    if (after_q) {
      std::string payload;
      if (!NextSendSuppressed(exec)) {
        ASSIGN_OR_RETURN(Tuple after, Tuple::Deserialize(base->user_schema(),
                                                         change.after));
        ASSIGN_OR_RETURN(Tuple projected,
                         after.Project(base->user_schema(),
                                       desc->projection));
        ASSIGN_OR_RETURN(payload, projected.Serialize(projected_schema));
      }
      RETURN_IF_ERROR(
          sink->Send(MakeUpsert(desc->id, addr, std::move(payload))));
    } else if (before_q) {
      RETURN_IF_ERROR(sink->Send(MakeDeleteMsg(desc->id, addr)));
    }
  }
  transmit_span.Close();
  obs::Tracer::Span end_span(tracer, "end-of-refresh");
  RETURN_IF_ERROR(
      sink->Send(MakeEndOfRefresh(desc->id, Address::Null(), now)));
  end_span.Close();
  // Stage the log-position advance; the caller commits it only once the
  // snapshot site confirms the refresh applied, so a lost message leaves
  // the refresh resumable from the same point.
  desc->pending_refresh_lsn =
      cut_lsn != kInvalidLsn ? cut_lsn : base->wal()->LastLsn();
  return Status::OK();
}

}  // namespace snapdiff
