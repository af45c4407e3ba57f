#include "catalog/schema.h"

#include "catalog/tuple_view.h"
#include "common/logging.h"

namespace snapdiff {

bool operator==(const Column& a, const Column& b) {
  return a.name == b.name && a.type == b.type && a.nullable == b.nullable;
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    SNAPDIFF_CHECK(index_.emplace(columns_[i].name, i).second)
        << "duplicate column name: " << columns_[i].name;
  }
  uint32_t offset = 0;
  for (const Column& c : columns_) {
    fixed_offsets_.push_back(offset);
    const size_t width = FixedSlotWidth(c.type);
    if (width == 0) break;  // STRING: later offsets depend on the row
    offset += width;
  }
}

Result<size_t> Schema::IndexOf(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no column named " + std::string(name));
  }
  return it->second;
}

bool Schema::HasColumn(std::string_view name) const {
  return index_.contains(name);
}

bool Schema::HasAnnotations() const {
  return HasColumn(kPrevAddrColumn) && HasColumn(kTimestampColumn);
}

size_t Schema::PrevAddrIndex() const {
  auto r = IndexOf(kPrevAddrColumn);
  SNAPDIFF_CHECK(r.ok()) << "schema has no annotations";
  return *r;
}

size_t Schema::TimestampIndex() const {
  auto r = IndexOf(kTimestampColumn);
  SNAPDIFF_CHECK(r.ok()) << "schema has no annotations";
  return *r;
}

size_t Schema::UserColumnCount() const {
  size_t n = columns_.size();
  if (HasColumn(kPrevAddrColumn)) --n;
  if (HasColumn(kTimestampColumn)) --n;
  return n;
}

Result<Schema> Schema::WithAnnotations() const {
  if (HasColumn(kPrevAddrColumn) || HasColumn(kTimestampColumn)) {
    return Status::AlreadyExists("schema already has annotation columns");
  }
  std::vector<Column> cols = columns_;
  cols.push_back({std::string(kPrevAddrColumn), TypeId::kAddress,
                  /*nullable=*/true});
  cols.push_back({std::string(kTimestampColumn), TypeId::kTimestamp,
                  /*nullable=*/true});
  return Schema(std::move(cols));
}

Result<Schema> Schema::Project(const std::vector<std::string>& names) const {
  std::vector<Column> cols;
  cols.reserve(names.size());
  for (const std::string& name : names) {
    ASSIGN_OR_RETURN(size_t idx, IndexOf(name));
    cols.push_back(columns_[idx]);
  }
  return Schema(std::move(cols));
}

bool Schema::Equals(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!(columns_[i] == other.columns_[i])) return false;
  }
  return true;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += TypeIdToString(columns_[i].type);
    if (!columns_[i].nullable) out += " NOT NULL";
  }
  out += ")";
  return out;
}

}  // namespace snapdiff
