#include "snapshot/join_refresh.h"

#include <unordered_map>

namespace snapdiff {

Result<Schema> BuildJoinSchema(BaseTable* left, BaseTable* right,
                               const std::string& join_left_column,
                               const std::string& join_right_column) {
  ASSIGN_OR_RETURN(size_t left_idx,
                   left->user_schema().IndexOf(join_left_column));
  ASSIGN_OR_RETURN(size_t right_idx,
                   right->user_schema().IndexOf(join_right_column));
  const TypeId left_type = left->user_schema().column(left_idx).type;
  const TypeId right_type = right->user_schema().column(right_idx).type;
  if (left_type != right_type) {
    return Status::InvalidArgument(
        "join columns have different types: " +
        std::string(TypeIdToString(left_type)) + " vs " +
        std::string(TypeIdToString(right_type)));
  }
  std::vector<Column> combined;
  for (const Column& c : left->user_schema().columns()) combined.push_back(c);
  for (const Column& c : right->user_schema().columns()) {
    if (left->user_schema().HasColumn(c.name)) {
      return Status::InvalidArgument("column name collision in join: " +
                                     c.name);
    }
    combined.push_back(c);
  }
  return Schema(std::move(combined));
}

namespace {

/// The hash key of a join value: its self-describing serialization. NULL
/// join keys never match (SQL semantics) and are skipped entirely.
Result<std::string> JoinKey(const Value& v) {
  if (v.is_null()) return Status::InvalidArgument("null join key");
  std::string key;
  v.SerializeTo(&key);
  return key;
}

/// Runs the hash join, invoking `emit` for every restricted, projected
/// result row in deterministic (left scan × right insertion) order.
Status EvaluateJoin(
    JoinDescriptor* desc, RefreshStats* stats,
    const std::function<Status(uint64_t ordinal, const Tuple& projected)>&
        emit) {
  ASSIGN_OR_RETURN(size_t left_key_idx,
                   desc->left->user_schema().IndexOf(desc->join_left_column));
  ASSIGN_OR_RETURN(
      size_t right_key_idx,
      desc->right->user_schema().IndexOf(desc->join_right_column));
  ASSIGN_OR_RETURN(BoundExpression restriction,
                   desc->restriction->Bind(desc->combined_schema));

  // Build side: the right input.
  std::unordered_multimap<std::string, Tuple> build;
  RETURN_IF_ERROR(desc->right->ScanAnnotated(
      [&](Address, const BaseTable::AnnotatedView& row) -> Status {
        if (stats != nullptr) ++stats->entries_scanned;
        ASSIGN_OR_RETURN(Value key, row.user.Field(right_key_idx));
        if (key.is_null()) return Status::OK();
        ASSIGN_OR_RETURN(std::string k, JoinKey(key));
        // The build table outlives the scan's pins: cross from view to
        // owning Tuple here.
        ASSIGN_OR_RETURN(Tuple user, row.user.Materialize());
        build.emplace(std::move(k), std::move(user));
        return Status::OK();
      }));

  // Probe side: the left input.
  uint64_t ordinal = 0;
  RETURN_IF_ERROR(desc->left->ScanAnnotated(
      [&](Address, const BaseTable::AnnotatedView& row) -> Status {
        if (stats != nullptr) ++stats->entries_scanned;
        ASSIGN_OR_RETURN(Value key, row.user.Field(left_key_idx));
        if (key.is_null()) return Status::OK();
        ASSIGN_OR_RETURN(std::string k, JoinKey(key));
        auto [lo, hi] = build.equal_range(k);
        if (lo == hi) return Status::OK();
        ASSIGN_OR_RETURN(Tuple probe, row.user.Materialize());
        for (auto it = lo; it != hi; ++it) {
          std::vector<Value> combined = probe.values();
          for (const Value& v : it->second.values()) combined.push_back(v);
          Tuple joined(std::move(combined));
          ASSIGN_OR_RETURN(bool qualified, restriction.Qualifies(joined));
          if (!qualified) continue;
          ASSIGN_OR_RETURN(Tuple projected,
                           joined.Project(desc->combined_schema,
                                          desc->projection));
          RETURN_IF_ERROR(emit(++ordinal, projected));
        }
        return Status::OK();
      }));
  return Status::OK();
}

}  // namespace

Status ExecuteJoinFullRefresh(JoinDescriptor* desc, MessageSink* channel,
                              RefreshStats* stats, obs::Tracer* tracer) {
  ASSIGN_OR_RETURN(Schema projected_schema,
                   desc->combined_schema.Project(desc->projection));
  const Timestamp now = desc->left->oracle()->Next();

  {
    obs::Tracer::Span clear_span(tracer, "clear");
    RETURN_IF_ERROR(channel->Send(MakeClear(desc->id)));
  }
  obs::Tracer::Span join_span(tracer, "join+transmit");
  RETURN_IF_ERROR(EvaluateJoin(
      desc, stats,
      [&](uint64_t ordinal, const Tuple& projected) -> Status {
        ASSIGN_OR_RETURN(std::string payload,
                         projected.Serialize(projected_schema));
        return channel->Send(MakeUpsert(desc->id, Address::FromRaw(ordinal),
                                        std::move(payload)));
      }));
  join_span.Close();
  obs::Tracer::Span end_span(tracer, "end-of-refresh");
  RETURN_IF_ERROR(
      channel->Send(MakeEndOfRefresh(desc->id, Address::Null(), now)));
  return Status::OK();
}

Result<std::map<Address, Tuple>> ExpectedJoinContents(JoinDescriptor* desc) {
  std::map<Address, Tuple> out;
  RETURN_IF_ERROR(EvaluateJoin(
      desc, nullptr,
      [&](uint64_t ordinal, const Tuple& projected) -> Status {
        out.emplace(Address::FromRaw(ordinal), projected);
        return Status::OK();
      }));
  return out;
}

}  // namespace snapdiff
