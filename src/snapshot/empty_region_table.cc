#include "snapshot/empty_region_table.h"

#include <optional>

namespace snapdiff {

EmptyRegionTable::EmptyRegionTable(Schema user_schema, uint64_t address_space,
                                   TimestampOracle* oracle)
    : user_schema_(std::move(user_schema)),
      address_space_(address_space),
      oracle_(oracle) {
  if (address_space_ > 0) {
    // The initial all-empty region is created "now".
    regions_.emplace(1, RegionBody{address_space_, oracle_->Next()});
  }
}

std::map<uint64_t, EmptyRegionTable::RegionBody>::iterator
EmptyRegionTable::FindRegionFor(uint64_t addr) {
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) return regions_.end();
  --it;
  if (addr < it->first || addr > it->second.hi) return regions_.end();
  return it;
}

std::map<uint64_t, EmptyRegionTable::RegionBody>::const_iterator
EmptyRegionTable::FindRegionFor(uint64_t addr) const {
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) return regions_.end();
  --it;
  if (addr < it->first || addr > it->second.hi) return regions_.end();
  return it;
}

Status EmptyRegionTable::InsertAt(uint64_t addr, const Tuple& row) {
  if (addr < 1 || addr > address_space_) {
    return Status::OutOfRange("address outside space");
  }
  auto region = FindRegionFor(addr);
  if (region == regions_.end()) {
    return Status::AlreadyExists("address " + std::to_string(addr) +
                                 " occupied");
  }
  const Timestamp now = oracle_->Next();
  const uint64_t lo = region->first;
  const uint64_t hi = region->second.hi;
  regions_.erase(region);
  // "empty regions must be split ... and the empty region timestamp must
  // be set".
  if (lo <= addr - 1 && addr > 1) {
    regions_.emplace(lo, RegionBody{addr - 1, now});
  }
  if (addr + 1 <= hi) {
    regions_.emplace(addr + 1, RegionBody{hi, now});
  }
  entries_.emplace(addr, Entry{row, now});
  return Status::OK();
}

Result<uint64_t> EmptyRegionTable::Insert(const Tuple& row) {
  if (regions_.empty()) return Status::ResourceExhausted("space full");
  const uint64_t addr = regions_.begin()->first;
  RETURN_IF_ERROR(InsertAt(addr, row));
  return addr;
}

Status EmptyRegionTable::Update(uint64_t addr, const Tuple& row) {
  auto it = entries_.find(addr);
  if (it == entries_.end()) {
    return Status::NotFound("no entry at " + std::to_string(addr));
  }
  it->second.row = row;
  it->second.ts = oracle_->Next();
  return Status::OK();
}

Status EmptyRegionTable::Delete(uint64_t addr) {
  auto it = entries_.find(addr);
  if (it == entries_.end()) {
    return Status::NotFound("no entry at " + std::to_string(addr));
  }
  entries_.erase(it);
  const Timestamp now = oracle_->Next();
  // Coalesce with the adjacent empty regions, if any.
  uint64_t lo = addr;
  uint64_t hi = addr;
  if (addr > 1) {
    auto left = FindRegionFor(addr - 1);
    if (left != regions_.end()) {
      lo = left->first;
      regions_.erase(left);
    }
  }
  if (addr < address_space_) {
    auto right = FindRegionFor(addr + 1);
    if (right != regions_.end()) {
      hi = right->second.hi;
      regions_.erase(right);
    }
  }
  regions_.emplace(lo, RegionBody{hi, now});
  return Status::OK();
}

Result<Tuple> EmptyRegionTable::Get(uint64_t addr) const {
  auto it = entries_.find(addr);
  if (it == entries_.end()) {
    return Status::NotFound("no entry at " + std::to_string(addr));
  }
  return it->second.row;
}

bool EmptyRegionTable::IsOccupied(uint64_t addr) const {
  return entries_.contains(addr);
}

Result<EmptyRegionTable::Region> EmptyRegionTable::RegionContaining(
    uint64_t addr) const {
  auto it = FindRegionFor(addr);
  if (it == regions_.end()) {
    return Status::NotFound("address " + std::to_string(addr) +
                            " is not empty");
  }
  return Region{it->first, it->second.hi, it->second.ts};
}

Status EmptyRegionTable::Validate() const {
  uint64_t expect = 1;
  auto region_it = regions_.begin();
  auto entry_it = entries_.begin();
  while (region_it != regions_.end() || entry_it != entries_.end()) {
    const bool take_region =
        entry_it == entries_.end() ||
        (region_it != regions_.end() && region_it->first < entry_it->first);
    if (take_region) {
      if (region_it->first != expect) {
        return Status::Internal("gap/overlap before region at " +
                                std::to_string(region_it->first));
      }
      if (region_it->second.hi < region_it->first) {
        return Status::Internal("inverted region");
      }
      expect = region_it->second.hi + 1;
      ++region_it;
    } else {
      if (entry_it->first != expect) {
        return Status::Internal("gap/overlap before entry at " +
                                std::to_string(entry_it->first));
      }
      expect = entry_it->first + 1;
      ++entry_it;
    }
  }
  if (expect != address_space_ + 1) {
    return Status::Internal("space not fully tiled: reached " +
                            std::to_string(expect));
  }
  return Status::OK();
}

Status EmptyRegionTable::Refresh(Timestamp snap_time,
                                 const Expression& restriction,
                                 SnapshotId snapshot_id,
                                 bool merge_across_unqualified,
                                 MessageSink* channel, RefreshStats* stats) {
  ASSIGN_OR_RETURN(BoundExpression bound, restriction.Bind(user_schema_));
  const Timestamp now = oracle_->Next();

  struct Pending {
    uint64_t lo;
    uint64_t hi;
    bool dirty;
  };
  std::optional<Pending> pending;

  auto flush_pending = [&]() -> Status {
    if (pending.has_value() && pending->dirty) {
      RETURN_IF_ERROR(channel->Send(
          MakeDeleteRange(snapshot_id, Address::FromRaw(pending->lo),
                          Address::FromRaw(pending->hi))));
    }
    pending.reset();
    return Status::OK();
  };

  auto region_it = regions_.begin();
  auto entry_it = entries_.begin();
  while (region_it != regions_.end() || entry_it != entries_.end()) {
    const bool take_region =
        entry_it == entries_.end() ||
        (region_it != regions_.end() && region_it->first < entry_it->first);
    if (take_region) {
      const uint64_t lo = region_it->first;
      const uint64_t hi = region_it->second.hi;
      const bool dirty = region_it->second.ts > snap_time;
      if (merge_across_unqualified) {
        if (pending.has_value()) {
          pending->hi = hi;
          pending->dirty |= dirty;
        } else {
          pending = Pending{lo, hi, dirty};
        }
      } else if (dirty) {
        RETURN_IF_ERROR(channel->Send(MakeDeleteRange(
            snapshot_id, Address::FromRaw(lo), Address::FromRaw(hi))));
      }
      ++region_it;
      continue;
    }
    const uint64_t addr = entry_it->first;
    const Entry& entry = entry_it->second;
    ++stats->entries_scanned;
    ASSIGN_OR_RETURN(bool qualified, bound.Qualifies(entry.row));
    const bool dirty = entry.ts > snap_time;
    if (qualified) {
      // A qualified entry bounds any combined empty region.
      RETURN_IF_ERROR(flush_pending());
      if (dirty) {
        ASSIGN_OR_RETURN(std::string payload,
                         entry.row.Serialize(user_schema_));
        RETURN_IF_ERROR(channel->Send(MakeUpsert(
            snapshot_id, Address::FromRaw(addr), std::move(payload))));
      }
    } else {
      if (merge_across_unqualified) {
        // "empty regions ... separated by entries which do not satisfy the
        // snapshot restriction [are] combined before transmitting".
        if (pending.has_value()) {
          pending->hi = addr;
          pending->dirty |= dirty;
        } else {
          pending = Pending{addr, addr, dirty};
        }
      } else if (dirty) {
        RETURN_IF_ERROR(channel->Send(
            MakeDeleteMsg(snapshot_id, Address::FromRaw(addr))));
      }
    }
    ++entry_it;
  }
  RETURN_IF_ERROR(flush_pending());
  RETURN_IF_ERROR(
      channel->Send(MakeEndOfRefresh(snapshot_id, Address::Null(), now)));
  return Status::OK();
}

}  // namespace snapdiff
