#ifndef SNAPDIFF_CATALOG_SCHEMA_H_
#define SNAPDIFF_CATALOG_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"
#include "common/status.h"

namespace snapdiff {

/// One column of a table schema.
struct Column {
  std::string name;
  TypeId type;
  bool nullable = true;
};

bool operator==(const Column& a, const Column& b);

/// An ordered list of columns with by-name lookup.
///
/// Differential-refresh annotation fields are ordinary columns with "funny"
/// names (the paper's R* trick): `$PREVADDR$` (ADDRESS, nullable) and
/// `$TIMESTAMP$` (TIMESTAMP, nullable), always appended *after* all user
/// columns by `WithAnnotations()`. Tuples written before the annotation
/// columns were added deserialize with NULLs in the missing trailing fields,
/// so adding the columns never touches existing entries.
class Schema {
 public:
  static constexpr std::string_view kPrevAddrColumn = "$PREVADDR$";
  static constexpr std::string_view kTimestampColumn = "$TIMESTAMP$";

  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t column_count() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Serialized payload offsets of the leading columns whose position
  /// does not depend on the row: every column up to and including the
  /// first variable-width (STRING) one. Never empty for a non-empty
  /// schema.
  const std::vector<uint32_t>& fixed_offsets() const { return fixed_offsets_; }

  Result<size_t> IndexOf(std::string_view name) const;
  bool HasColumn(std::string_view name) const;

  /// Whether the funny annotation columns are present.
  bool HasAnnotations() const;

  /// Index of the annotation columns. Precondition: HasAnnotations().
  size_t PrevAddrIndex() const;
  size_t TimestampIndex() const;

  /// Number of leading user (non-funny) columns.
  size_t UserColumnCount() const;

  /// Returns a copy with the annotation columns appended. Fails if a user
  /// column already uses a funny name or annotations are already present.
  Result<Schema> WithAnnotations() const;

  /// Returns the schema of a projection onto `names` (in the given order).
  Result<Schema> Project(const std::vector<std::string>& names) const;

  bool Equals(const Schema& other) const;

  std::string ToString() const;

 private:
  /// Transparent hash/eq so IndexOf(string_view) never builds a temporary
  /// std::string — by-name column lookup sits on the predicate hot path.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct NameEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  std::vector<Column> columns_;
  std::vector<uint32_t> fixed_offsets_;
  std::unordered_map<std::string, size_t, NameHash, NameEq> index_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_CATALOG_SCHEMA_H_
