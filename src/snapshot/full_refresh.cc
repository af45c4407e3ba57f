#include "snapshot/full_refresh.h"

#include <algorithm>
#include <tuple>

#include "expr/range_analysis.h"
#include "snapshot/secondary_index.h"

namespace snapdiff {

namespace {

/// Serializes and ships one qualified row straight from its pinned view.
/// On a resumed session's fast-forward region, projection + serialization
/// are skipped: the message only spends a sequence number.
Status TransmitRow(SnapshotDescriptor* desc,
                   const std::vector<size_t>& projection_indices,
                   Address addr, const TupleView& user_row,
                   BatchingSender* sender, const RefreshExecution& exec) {
  std::string payload;
  if (!NextSendSuppressed(exec)) {
    RETURN_IF_ERROR(user_row.AppendProjectionTo(projection_indices, &payload));
  }
  return sender->Send(MakeUpsert(desc->id, addr, std::move(payload)));
}

}  // namespace

Status ExecuteFullRefresh(BaseTable* base, SnapshotDescriptor* desc,
                          MessageSink* channel, RefreshStats* stats,
                          obs::Tracer* tracer, const RefreshExecution& exec) {
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
  BatchingSender sender(sink, exec.batch_size);

  {
    obs::Tracer::Span clear_span(tracer, "clear");
    RETURN_IF_ERROR(sender.Send(MakeClear(desc->id)));
  }

  // "When an efficient method for applying the snapshot restriction is
  // available (e.g., an index), the base table sequential scan may be more
  // costly than simply re-populating the snapshot": if the restriction
  // reduces to a range over an indexed column, retrieve exactly the
  // qualified entries instead of scanning.
  std::optional<ColumnRange> range =
      AnalyzeRestrictionRange(desc->restriction);
  SecondaryIndex* index =
      range.has_value() ? base->FindSecondaryIndex(range->column) : nullptr;

  if (index != nullptr && exec.epoch == nullptr) {
    obs::Tracer::Span span(tracer, "index-select+transmit");
    ASSIGN_OR_RETURN(std::vector<Address> addresses,
                     index->SelectRange(*range));
    span.Note("candidates", addresses.size());
    const BaseTable::RowSplitter split = base->Splitter();
    for (Address addr : addresses) {
      ++stats->base_reads;
      // Point read through the pin guard: the view (and the payload
      // serialization below) runs against the pinned frame directly.
      ASSIGN_OR_RETURN(TableHeap::TupleRef ref,
                       base->info()->heap->GetView(addr));
      ASSIGN_OR_RETURN(BaseTable::AnnotatedView row, split(ref.bytes));
      if (!range->exact) {
        ASSIGN_OR_RETURN(bool qualified, restriction.Qualifies(row.user));
        if (!qualified) continue;
      }
      RETURN_IF_ERROR(TransmitRow(desc, projection_indices, addr, row.user,
                                  &sender, exec));
    }
    RETURN_IF_ERROR(sender.Flush());
  } else if (index != nullptr) {
    // Epoch-aware index path. The live index may already reflect post-cut
    // writes, so candidates are buffered through epoch point reads and the
    // result only trusted when the mutation tick proves nothing interleaved
    // between the cut and the index read; otherwise the rows are rebuilt
    // from the epoch scan and re-sorted into index order (order-preserving
    // key, then address), so the stream matches a quiesced index select
    // byte for byte either way.
    obs::Tracer::Span span(tracer, "index-select+transmit");
    const TableEpoch& epoch = *exec.epoch;
    ASSIGN_OR_RETURN(std::vector<Address> addresses,
                     index->SelectRange(*range));
    span.Note("candidates", addresses.size());
    std::vector<std::pair<Address, std::string>> rows;
    rows.reserve(addresses.size());
    const BaseTable::RowSplitter split = base->Splitter();
    bool exact = true;
    for (Address addr : addresses) {
      ++stats->base_reads;
      ASSIGN_OR_RETURN(std::optional<std::string> bytes, epoch.Read(addr));
      if (!bytes.has_value()) {
        // The index lists a row the cut never saw (post-cut insert).
        exact = false;
        break;
      }
      ASSIGN_OR_RETURN(BaseTable::AnnotatedView row, split(*bytes));
      if (!range->exact) {
        ASSIGN_OR_RETURN(bool qualified, restriction.Qualifies(row.user));
        if (!qualified) continue;
      }
      std::string payload;
      RETURN_IF_ERROR(
          row.user.AppendProjectionTo(projection_indices, &payload));
      rows.emplace_back(addr, std::move(payload));
    }
    // Post-cut deletes silently drop index entries the cut's stream must
    // still carry, so any tick movement at all voids the candidate list.
    if (exact && base->mutation_tick() != epoch.cut_tick) exact = false;
    if (!exact) {
      rows.clear();
      ASSIGN_OR_RETURN(size_t col_idx,
                       base->user_schema().IndexOf(range->column));
      // (order-preserving key, raw address, payload) — the index's own sort.
      std::vector<std::tuple<std::string, uint64_t, std::string>> sorted;
      RETURN_IF_ERROR(base->ScanAnnotatedAtEpoch(
          epoch,
          [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
            ++stats->entries_scanned;
            ASSIGN_OR_RETURN(bool qualified, restriction.Qualifies(row.user));
            if (!qualified) return Status::OK();
            ASSIGN_OR_RETURN(Value v, row.user.Field(col_idx));
            if (v.is_null()) return Status::OK();  // never indexed
            ASSIGN_OR_RETURN(std::string key, OrderPreservingKey(v));
            std::string payload;
            RETURN_IF_ERROR(
                row.user.AppendProjectionTo(projection_indices, &payload));
            sorted.emplace_back(std::move(key), addr.raw(),
                                std::move(payload));
            return Status::OK();
          }));
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) {
                  if (std::get<0>(a) != std::get<0>(b)) {
                    return std::get<0>(a) < std::get<0>(b);
                  }
                  return std::get<1>(a) < std::get<1>(b);
                });
      for (auto& [key, raw, payload] : sorted) {
        rows.emplace_back(Address::FromRaw(raw), std::move(payload));
      }
    }
    for (auto& [addr, payload] : rows) {
      RETURN_IF_ERROR(
          sender.Send(MakeUpsert(desc->id, addr, std::move(payload))));
    }
    RETURN_IF_ERROR(sender.Flush());
  } else {
    obs::Tracer::Span span(tracer, "scan+transmit");
    auto visit =
        [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
      ++stats->entries_scanned;
      ASSIGN_OR_RETURN(bool qualified, restriction.Qualifies(row.user));
      if (!qualified) return Status::OK();
      return TransmitRow(desc, projection_indices, addr, row.user, &sender,
                         exec);
    };
    Status scan_status =
        exec.epoch != nullptr
            ? base->ScanAnnotatedAtEpoch(*exec.epoch, visit)
            : base->ScanAnnotated(visit);
    RETURN_IF_ERROR(scan_status);
    RETURN_IF_ERROR(sender.Flush());
  }

  // No positional tail semantics: the snapshot was cleared up front.
  obs::Tracer::Span end_span(tracer, "end-of-refresh");
  RETURN_IF_ERROR(
      sender.Send(MakeEndOfRefresh(desc->id, Address::Null(), now)));
  return Status::OK();
}

}  // namespace snapdiff
