#include "catalog/tuple_view.h"

#include <algorithm>

#include "common/coding.h"

namespace snapdiff {

size_t FixedSlotWidth(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return 1;
    case TypeId::kInt64:
    case TypeId::kDouble:
    case TypeId::kTimestamp:
    case TypeId::kAddress:
      return 8;
    case TypeId::kString:
      return 0;
  }
  return 0;  // not a TypeId; SlotWidth reports it
}

namespace {

/// Width of one encoded slot at the front of `payload`, or an error when
/// the payload is truncated. Strings include their 4-byte length prefix.
Result<size_t> SlotWidth(TypeId type, std::string_view payload) {
  if (type != TypeId::kString) {
    const size_t width = FixedSlotWidth(type);
    if (width == 0) return Status::Corruption("bad column type");
    if (payload.size() < width) return Status::Corruption("fixed underflow");
    return width;
  }
  if (payload.size() < 4) return Status::Corruption("string underflow");
  uint32_t len = 0;
  std::string_view in = payload;
  RETURN_IF_ERROR(GetFixed32(&in, &len));
  if (in.size() < len) return Status::Corruption("string underflow");
  return size_t{4} + len;
}

}  // namespace

Result<TupleView> TupleView::Parse(const Schema& schema,
                                   std::string_view bytes) {
  std::string_view in = bytes;
  uint16_t stored = 0;
  RETURN_IF_ERROR(GetFixed16(&in, &stored));
  const size_t bitmap_len = (stored + 7) / 8;
  if (in.size() < bitmap_len) return Status::Corruption("bitmap underflow");
  std::string_view bitmap = in.substr(0, bitmap_len);
  in.remove_prefix(bitmap_len);
  return TupleView(&schema, bytes, stored, bitmap, in);
}

bool TupleView::IsNull(size_t i) const {
  if (i >= stored_) return true;
  return (bitmap_[i / 8] >> (i % 8)) & 1;
}

Result<std::string_view> TupleView::SeekField(size_t i) const {
  // Columns up to the first variable-width one sit at fixed offsets; walk
  // slot by slot only past it.
  const std::vector<uint32_t>& fixed = schema_->fixed_offsets();
  size_t j = std::min(i, fixed.size() - 1);
  if (payload_.size() < fixed[j]) return Status::Corruption("fixed underflow");
  std::string_view payload = payload_.substr(fixed[j]);
  for (; j < i; ++j) {
    ASSIGN_OR_RETURN(size_t width, SlotWidth(schema_->column(j).type, payload));
    payload.remove_prefix(width);
  }
  return payload;
}

Result<std::string_view> TupleView::FieldSlot(size_t i) const {
  if (i >= schema_->column_count()) {
    return Status::InvalidArgument("field index out of range");
  }
  if (i >= stored_) return std::string_view();
  ASSIGN_OR_RETURN(std::string_view payload, SeekField(i));
  ASSIGN_OR_RETURN(size_t width, SlotWidth(schema_->column(i).type, payload));
  return payload.substr(0, width);
}

Result<std::string_view> TupleView::SlotsFrom(size_t i) const {
  if (i >= schema_->column_count()) {
    return Status::InvalidArgument("field index out of range");
  }
  if (i >= stored_) return Status::InvalidArgument("field not stored");
  return SeekField(i);
}

Result<Value> TupleView::Field(size_t i) const {
  if (i >= schema_->column_count()) {
    return Status::InvalidArgument("field index out of range");
  }
  const TypeId type = schema_->column(i).type;
  if (IsNull(i)) return Value::Null(type);
  ASSIGN_OR_RETURN(std::string_view slot, FieldSlot(i));
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(slot[0] != 0);
    case TypeId::kInt64: {
      uint64_t raw = 0;
      RETURN_IF_ERROR(GetFixed64(&slot, &raw));
      return Value::Int64(static_cast<int64_t>(raw));
    }
    case TypeId::kDouble: {
      double d = 0;
      RETURN_IF_ERROR(GetDouble(&slot, &d));
      return Value::Double(d);
    }
    case TypeId::kString:
      return Value::StringView(slot.substr(4));
    case TypeId::kTimestamp: {
      uint64_t raw = 0;
      RETURN_IF_ERROR(GetFixed64(&slot, &raw));
      return Value::Ts(static_cast<Timestamp>(raw));
    }
    case TypeId::kAddress: {
      uint64_t raw = 0;
      RETURN_IF_ERROR(GetFixed64(&slot, &raw));
      return Value::Addr(Address::FromRaw(raw));
    }
  }
  return Status::Corruption("bad column type");
}

Status TupleView::AppendProjectionTo(const std::vector<size_t>& indices,
                                     std::string* out) const {
  const size_t n = indices.size();
  PutFixed16(out, static_cast<uint16_t>(n));
  const size_t bitmap_at = out->size();
  out->append((n + 7) / 8, '\0');
  for (size_t k = 0; k < n; ++k) {
    const size_t i = indices[k];
    if (i >= schema_->column_count()) {
      return Status::InvalidArgument("projection index out of range");
    }
    if (IsNull(i)) {
      (*out)[bitmap_at + k / 8] |= static_cast<char>(1 << (k % 8));
    }
    if (i < stored_) {
      // NULL slots are zeroed at serialization time, so the stored bytes
      // are exactly what Tuple::Serialize would emit — copy them through.
      ASSIGN_OR_RETURN(std::string_view slot, FieldSlot(i));
      out->append(slot);
      continue;
    }
    // Field added after this row was written: synthesize the zeroed slot.
    const TypeId type = schema_->column(i).type;
    if (type == TypeId::kString) {
      PutFixed32(out, 0);
    } else {
      out->append(FixedSlotWidth(type), '\0');
    }
  }
  return Status::OK();
}

Result<Tuple> TupleView::Materialize() const {
  std::vector<Value> values;
  values.reserve(schema_->column_count());
  for (size_t i = 0; i < schema_->column_count(); ++i) {
    ASSIGN_OR_RETURN(Value v, Field(i));
    // Field() returns views into our (borrowed) bytes; an owning Tuple
    // must own its strings.
    if (v.type() == TypeId::kString && !v.is_null()) {
      v = Value::String(std::string(v.as_string_view()));
    }
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

}  // namespace snapdiff
