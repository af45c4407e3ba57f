#include "snapshot/dense_table.h"

namespace snapdiff {

DenseTable::DenseTable(Schema user_schema, size_t capacity,
                       TimestampOracle* oracle)
    : user_schema_(std::move(user_schema)),
      oracle_(oracle),
      elements_(capacity) {}

Status DenseTable::CheckIndex(size_t index) const {
  if (index < 1 || index > elements_.size()) {
    return Status::OutOfRange("address " + std::to_string(index) +
                              " outside dense space [1, " +
                              std::to_string(elements_.size()) + "]");
  }
  return Status::OK();
}

Status DenseTable::InsertAt(size_t index, const Tuple& row) {
  RETURN_IF_ERROR(CheckIndex(index));
  Element& e = elements_[index - 1];
  if (e.occupied) {
    return Status::AlreadyExists("address " + std::to_string(index) +
                                 " occupied");
  }
  e.occupied = true;
  e.row = row;
  e.ts = oracle_->Next();
  return Status::OK();
}

Result<size_t> DenseTable::Insert(const Tuple& row) {
  for (size_t i = 1; i <= elements_.size(); ++i) {
    if (!elements_[i - 1].occupied) {
      RETURN_IF_ERROR(InsertAt(i, row));
      return i;
    }
  }
  return Status::ResourceExhausted("dense space full");
}

Status DenseTable::Update(size_t index, const Tuple& row) {
  RETURN_IF_ERROR(CheckIndex(index));
  Element& e = elements_[index - 1];
  if (!e.occupied) {
    return Status::NotFound("address " + std::to_string(index) + " empty");
  }
  e.row = row;
  e.ts = oracle_->Next();
  return Status::OK();
}

Status DenseTable::Delete(size_t index) {
  RETURN_IF_ERROR(CheckIndex(index));
  Element& e = elements_[index - 1];
  if (!e.occupied) {
    return Status::NotFound("address " + std::to_string(index) + " empty");
  }
  e.occupied = false;
  e.row.reset();
  e.ts = oracle_->Next();  // emptiness is a state change too
  return Status::OK();
}

bool DenseTable::IsOccupied(size_t index) const {
  return index >= 1 && index <= elements_.size() &&
         elements_[index - 1].occupied;
}

Result<Tuple> DenseTable::Get(size_t index) const {
  RETURN_IF_ERROR(CheckIndex(index));
  const Element& e = elements_[index - 1];
  if (!e.occupied) {
    return Status::NotFound("address " + std::to_string(index) + " empty");
  }
  return *e.row;
}

Timestamp DenseTable::TimestampOf(size_t index) const {
  if (CheckIndex(index).ok()) return elements_[index - 1].ts;
  return kNullTimestamp;
}

Status DenseTable::SetTimestamp(size_t index, Timestamp ts) {
  RETURN_IF_ERROR(CheckIndex(index));
  elements_[index - 1].ts = ts;
  return Status::OK();
}

Status DenseTable::SimpleRefresh(Timestamp snap_time,
                                 const Expression& restriction,
                                 SnapshotId snapshot_id, MessageSink* channel,
                                 RefreshStats* stats) {
  ASSIGN_OR_RETURN(BoundExpression bound, restriction.Bind(user_schema_));
  const Timestamp now = oracle_->Next();
  for (size_t i = 1; i <= elements_.size(); ++i) {
    const Element& e = elements_[i - 1];
    ++stats->entries_scanned;
    if (e.ts <= snap_time) continue;
    const Address addr = Address::FromRaw(i);
    bool send_value = false;
    if (e.occupied) {
      ASSIGN_OR_RETURN(bool qualified, bound.Qualifies(*e.row));
      send_value = qualified;
    }
    if (send_value) {
      ASSIGN_OR_RETURN(std::string payload, e.row->Serialize(user_schema_));
      RETURN_IF_ERROR(
          channel->Send(MakeUpsert(snapshot_id, addr, std::move(payload))));
    } else {
      // "only the element address and 'empty' status are transmitted".
      RETURN_IF_ERROR(channel->Send(MakeDeleteMsg(snapshot_id, addr)));
    }
  }
  RETURN_IF_ERROR(
      channel->Send(MakeEndOfRefresh(snapshot_id, Address::Null(), now)));
  return Status::OK();
}

}  // namespace snapdiff
