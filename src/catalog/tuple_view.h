#ifndef SNAPDIFF_CATALOG_TUPLE_VIEW_H_
#define SNAPDIFF_CATALOG_TUPLE_VIEW_H_

#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "catalog/value.h"
#include "common/result.h"
#include "common/status.h"

namespace snapdiff {

/// Encoded slot width of a column of `type` in the tuple wire format (see
/// Tuple): 1 for BOOL, 8 for the other fixed-width types, 0 for STRING
/// (a 4-byte length prefix plus the bytes) and for an unknown type.
size_t FixedSlotWidth(TypeId type);

/// A non-owning, lazily decoded view over one serialized tuple (the wire
/// format documented on Tuple). Field access jumps to the schema's fixed
/// offsets (Schema::fixed_offsets) and walks slot by slot only past the
/// first STRING — for the narrow schemas this system handles, the walk is
/// a handful of adds and beats materializing a std::vector<Value> per row
/// by a wide margin. String fields decode to Value::StringView, so no
/// field access ever allocates.
///
/// Ownership rules (see DESIGN.md "Row representation"): a TupleView
/// aliases bytes it does not own — typically a buffer-pool frame pinned by
/// a TableHeap::Cursor or TupleRef guard. The view (and every Value /
/// string_view obtained from it) dies with that pin. Tuple remains the
/// owning representation and is required at mutation boundaries
/// (Insert/Update payloads, join build sides, observer snapshots);
/// Materialize() crosses from view to owner.
///
/// Schema tolerance, both directions:
///   - stored < schema columns: trailing fields read as NULL (R*'s "add
///     fields without touching entries" — how annotation columns appear).
///   - stored > schema columns: the schema is treated as a prefix of the
///     stored layout (reading an annotated row through the user schema —
///     valid because annotations are always appended after user columns).
class TupleView {
 public:
  TupleView() = default;

  /// Binds `bytes` (which must stay alive and pinned) to `schema`.
  /// Validates the header + null bitmap; payload bytes are validated
  /// lazily as fields are accessed.
  static Result<TupleView> Parse(const Schema& schema,
                                 std::string_view bytes);

  /// The same bytes read through `layout`, which must describe the same
  /// leading columns as this view's schema (e.g. the user columns of an
  /// annotated row). No re-parse.
  TupleView WithSchema(const Schema& layout) const {
    return TupleView(&layout, bytes_, stored_, bitmap_, payload_);
  }

  const Schema& schema() const { return *schema_; }
  std::string_view bytes() const { return bytes_; }
  /// Fields physically present in the serialized bytes.
  size_t stored_field_count() const { return stored_; }
  /// Fields visible through the schema (the logical width).
  size_t field_count() const { return schema_->column_count(); }

  /// NULL-ness of schema column `i` (missing trailing fields are NULL).
  bool IsNull(size_t i) const;

  /// Decodes schema column `i`. Strings come back as Value::StringView
  /// aliasing the underlying bytes. Precondition: i < field_count().
  Result<Value> Field(size_t i) const;

  /// The full encoded slot of schema column `i` — fixed-width payload or
  /// length-prefix + bytes — as it sits in the serialized tuple. Empty
  /// for fields beyond stored_field_count().
  Result<std::string_view> FieldSlot(size_t i) const;

  /// The stored payload from the start of schema column `i`'s slot to the
  /// end of the row, so adjacent fixed-width fields decode in one walk.
  /// Fails for fields beyond field_count() or stored_field_count().
  Result<std::string_view> SlotsFrom(size_t i) const;

  /// Serializes the projection onto schema columns `indices` (in that
  /// order) into `*out`, byte-identical to
  /// Tuple::Project(schema, names).Serialize(projected_schema) — the
  /// zero-intermediate path from a stored row to a Message payload.
  Status AppendProjectionTo(const std::vector<size_t>& indices,
                            std::string* out) const;

  /// Decodes every schema column into an owning Tuple (the view-to-owner
  /// crossing used at mutation boundaries).
  Result<Tuple> Materialize() const;

 private:
  TupleView(const Schema* schema, std::string_view bytes, uint16_t stored,
            std::string_view bitmap, std::string_view payload)
      : schema_(schema),
        bytes_(bytes),
        stored_(stored),
        bitmap_(bitmap),
        payload_(payload) {}

  /// Payload bytes remaining at the start of field `i`'s slot.
  Result<std::string_view> SeekField(size_t i) const;

  const Schema* schema_ = nullptr;
  std::string_view bytes_;
  uint16_t stored_ = 0;
  std::string_view bitmap_;
  std::string_view payload_;  // bytes after the bitmap
};

}  // namespace snapdiff

#endif  // SNAPDIFF_CATALOG_TUPLE_VIEW_H_
