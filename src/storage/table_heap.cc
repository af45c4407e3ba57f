#include "storage/table_heap.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "storage/slotted_page.h"

namespace snapdiff {

std::string_view PlacementPolicyToString(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFirstFit:
      return "first-fit";
    case PlacementPolicy::kAppend:
      return "append";
    case PlacementPolicy::kRandom:
      return "random";
  }
  return "unknown";
}

namespace {

uint64_t NextHeapId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TableHeap::TableHeap(BufferPool* pool, PlacementPolicy policy, uint64_t seed)
    : pool_(pool),
      policy_(policy),
      rng_(seed),
      stamps_(std::make_unique<std::unique_ptr<std::atomic<uint64_t>[]>[]>(
          kStampChunks)),
      id_(NextHeapId()) {}

void TableHeap::StampIndex(size_t page_idx) {
  const uint64_t now = clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
  stamps_[page_idx / kStampChunk][page_idx % kStampChunk].store(
      now, std::memory_order_relaxed);
}

Result<size_t> TableHeap::PageIndex(PageId page_id) const {
  const auto it = std::lower_bound(pages_.begin(), pages_.end(), page_id);
  if (it == pages_.end() || *it != page_id) {
    return Status::NotFound("page " + std::to_string(page_id) +
                            " is not in this table");
  }
  return static_cast<size_t>(it - pages_.begin());
}

Status TableHeap::AppendStamp() {
  const size_t idx = pages_.size();
  if (idx >= kStampChunk * kStampChunks) {
    return Status::ResourceExhausted("table heap: page directory full");
  }
  std::unique_ptr<std::atomic<uint64_t>[]>& chunk = stamps_[idx / kStampChunk];
  if (chunk == nullptr) {
    chunk = std::make_unique<std::atomic<uint64_t>[]>(kStampChunk);
  }
  return Status::OK();
}

void TableHeap::StampAll() {
  const uint64_t now = clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (size_t i = 0; i < pages_.size(); ++i) {
    stamps_[i / kStampChunk][i % kStampChunk].store(
        now, std::memory_order_relaxed);
  }
}

std::shared_ptr<TableEpoch> TableHeap::OpenEpoch() {
  std::vector<PageId> pages = pages_;
  std::shared_ptr<ScanEpoch> cow = pool_->OpenScanEpoch(pages);
  return std::shared_ptr<TableEpoch>(
      new TableEpoch(pool_, std::move(cow), std::move(pages)));
}

TableEpoch::Cursor::Cursor(const TableEpoch* epoch, size_t first_page_idx,
                           size_t end_page_idx)
    : epoch_(epoch),
      page_idx_(first_page_idx),
      end_page_idx_(end_page_idx),
      scratch_(std::make_unique<char[]>(Page::kPageSize)) {}

Status TableEpoch::Cursor::LoadPage() {
  const PageId page_id = epoch_->pages_[page_idx_];
  SNAPDIFF_FR_INSTANT("storage.epoch_cursor.page", page_id);
  // Fast path: a writer already froze the pre-image for us — read the
  // clone directly, no pin, no latch, no copy.
  cur_bytes_ = epoch_->cow_->FindClone(page_id);
  if (cur_bytes_ != nullptr) return Status::OK();
  ASSIGN_OR_RETURN(Page * page, epoch_->pool_->FetchPage(page_id));
  PageGuard guard(epoch_->pool_, page);
  {
    std::lock_guard<std::mutex> latch(page->latch());
    // A writer may have cloned-and-mutated between the check above and the
    // latch acquisition; under the latch the answer is definitive.
    cur_bytes_ = epoch_->cow_->FindClone(page_id);
    if (cur_bytes_ == nullptr) {
      // Live frame still holds the cut image. Copy it out under the latch
      // so a concurrent writer can't tear the read; this 4 KB memcpy is
      // the entire window a writer can block on.
      std::memcpy(scratch_.get(), page->data(), Page::kPageSize);
      cur_bytes_ = scratch_.get();
    }
  }
  return Status::OK();
}

Status TableEpoch::Cursor::FindNext() {
  valid_ = false;
  while (page_idx_ < end_page_idx_) {
    if (cur_bytes_ == nullptr) {
      RETURN_IF_ERROR(LoadPage());
    }
    const PageId page_id = epoch_->pages_[page_idx_];
    SlottedPage sp = SlottedPage::ReadOnlyView(cur_bytes_);
    while (slot_ < sp.slot_count()) {
      const SlotId s = static_cast<SlotId>(slot_);
      ++slot_;
      if (sp.IsOccupied(s)) {
        ASSIGN_OR_RETURN(tuple_, sp.Get(s));
        address_ = Address::FromPageSlot(page_id, s);
        valid_ = true;
        return Status::OK();
      }
    }
    cur_bytes_ = nullptr;
    ++page_idx_;
    slot_ = 0;
  }
  tuple_ = {};
  return Status::OK();
}

Status TableEpoch::Cursor::Next() {
  if (!valid_) return Status::Internal("Next() past end");
  return FindNext();
}

Result<TableEpoch::Cursor> TableEpoch::OpenCursor(size_t first_page_idx,
                                                  size_t page_count) const {
  if (first_page_idx > pages_.size() ||
      page_count > pages_.size() - first_page_idx) {
    return Status::InvalidArgument("OpenCursor: page range out of bounds");
  }
  Cursor cur(this, first_page_idx, first_page_idx + page_count);
  RETURN_IF_ERROR(cur.FindNext());
  return cur;
}

Result<std::optional<std::string>> TableEpoch::Read(Address addr) const {
  if (!addr.IsReal()) return Status::InvalidArgument("epoch read: bad address");
  if (!cow_->Covers(addr.page())) {
    return std::optional<std::string>();  // page allocated after the cut
  }
  const char* clone = cow_->FindClone(addr.page());
  if (clone != nullptr) {
    SlottedPage sp = SlottedPage::ReadOnlyView(clone);
    if (addr.slot() >= sp.slot_count() || !sp.IsOccupied(addr.slot())) {
      return std::optional<std::string>();
    }
    ASSIGN_OR_RETURN(std::string_view view, sp.Get(addr.slot()));
    return std::optional<std::string>(std::string(view));
  }
  ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(addr.page()));
  PageGuard guard(pool_, page);
  std::lock_guard<std::mutex> latch(page->latch());
  clone = cow_->FindClone(addr.page());
  const char* bytes = clone != nullptr ? clone : page->data();
  SlottedPage sp = SlottedPage::ReadOnlyView(bytes);
  if (addr.slot() >= sp.slot_count() || !sp.IsOccupied(addr.slot())) {
    return std::optional<std::string>();
  }
  ASSIGN_OR_RETURN(std::string_view view, sp.Get(addr.slot()));
  return std::optional<std::string>(std::string(view));
}

Result<std::unique_ptr<TableHeap>> TableHeap::Attach(
    BufferPool* pool, std::vector<PageId> pages, PlacementPolicy policy,
    uint64_t seed) {
  if (!std::is_sorted(pages.begin(), pages.end())) {
    return Status::InvalidArgument("Attach: pages must be in address order");
  }
  auto heap = std::make_unique<TableHeap>(pool, policy, seed);
  for (PageId id : pages) {
    RETURN_IF_ERROR(heap->AppendStamp());
    heap->pages_.push_back(id);
  }
  RETURN_IF_ERROR(heap->RecountLive());
  return heap;
}

Result<PageId> TableHeap::AllocatePage() {
  RETURN_IF_ERROR(AppendStamp());
  PageId id;
  ASSIGN_OR_RETURN(Page * page, pool_->NewPage(&id));
  PageGuard guard(pool_, page, /*dirty=*/true);
  SlottedPage sp(page);
  sp.Init();
  pages_.push_back(id);
  StampIndex(pages_.size() - 1);
  ++stats_.page_allocations;
  return id;
}

Result<PageId> TableHeap::PickPageForInsert(size_t len) {
  const bool reuse = SlotReuseAllowed();
  switch (policy_) {
    case PlacementPolicy::kFirstFit: {
      for (PageId id : pages_) {
        ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(id));
        PageGuard guard(pool_, page);
        if (SlottedPage(page).CanInsert(len, reuse)) return id;
      }
      break;
    }
    case PlacementPolicy::kAppend: {
      if (!pages_.empty()) {
        const PageId id = pages_.back();
        ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(id));
        PageGuard guard(pool_, page);
        if (SlottedPage(page).CanInsert(len, reuse)) return id;
      }
      break;
    }
    case PlacementPolicy::kRandom: {
      // Try a handful of random probes, then fall back to a linear scan so
      // behaviour stays deterministic and complete.
      if (!pages_.empty()) {
        for (int probe = 0; probe < 4; ++probe) {
          const PageId id = pages_[rng_.Uniform(pages_.size())];
          ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(id));
          PageGuard guard(pool_, page);
          if (SlottedPage(page).CanInsert(len, reuse)) return id;
        }
        for (PageId id : pages_) {
          ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(id));
          PageGuard guard(pool_, page);
          if (SlottedPage(page).CanInsert(len, reuse)) return id;
        }
      }
      break;
    }
  }
  return AllocatePage();
}

Result<Address> TableHeap::Insert(std::string_view bytes) {
  if (bytes.size() > SlottedPage::kMaxTupleSize) {
    return Status::InvalidArgument("tuple larger than page capacity");
  }
  ASSIGN_OR_RETURN(PageId page_id, PickPageForInsert(bytes.size()));
  ASSIGN_OR_RETURN(size_t page_idx, PageIndex(page_id));
  ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  PageGuard guard(pool_, page, /*dirty=*/true);
  std::unique_lock<std::mutex> latch(page->latch());
  pool_->CloneForEpochs(page_id, page->data());
  ASSIGN_OR_RETURN(SlotId slot,
                   SlottedPage(page).Insert(bytes, SlotReuseAllowed()));
  StampIndex(page_idx);
  latch.unlock();
  live_tuples_.fetch_add(1, std::memory_order_relaxed);
  ++stats_.inserts;
  return Address::FromPageSlot(page_id, slot);
}

Status TableHeap::Delete(Address addr) {
  if (!addr.IsReal()) return Status::InvalidArgument("delete: bad address");
  ASSIGN_OR_RETURN(size_t page_idx, PageIndex(addr.page()));
  ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(addr.page()));
  PageGuard guard(pool_, page, /*dirty=*/true);
  std::unique_lock<std::mutex> latch(page->latch());
  pool_->CloneForEpochs(addr.page(), page->data());
  RETURN_IF_ERROR(SlottedPage(page).Delete(addr.slot()));
  StampIndex(page_idx);
  latch.unlock();
  live_tuples_.fetch_sub(1, std::memory_order_relaxed);
  ++stats_.deletes;
  return Status::OK();
}

Status TableHeap::Update(Address addr, std::string_view bytes) {
  if (!addr.IsReal()) return Status::InvalidArgument("update: bad address");
  ASSIGN_OR_RETURN(size_t page_idx, PageIndex(addr.page()));
  ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(addr.page()));
  PageGuard guard(pool_, page, /*dirty=*/true);
  std::unique_lock<std::mutex> latch(page->latch());
  pool_->CloneForEpochs(addr.page(), page->data());
  RETURN_IF_ERROR(SlottedPage(page).Update(addr.slot(), bytes));
  StampIndex(page_idx);
  latch.unlock();
  ++stats_.updates;
  return Status::OK();
}

Result<std::string> TableHeap::Get(Address addr) {
  if (!addr.IsReal()) return Status::InvalidArgument("get: bad address");
  ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(addr.page()));
  PageGuard guard(pool_, page);
  ASSIGN_OR_RETURN(std::string_view view, SlottedPage(page).Get(addr.slot()));
  return std::string(view);
}

Result<TableHeap::TupleRef> TableHeap::GetView(Address addr) {
  if (!addr.IsReal()) return Status::InvalidArgument("get: bad address");
  ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(addr.page()));
  PageGuard guard(pool_, page);
  ASSIGN_OR_RETURN(std::string_view view, SlottedPage(page).Get(addr.slot()));
  TupleRef ref;
  ref.guard = std::move(guard);
  ref.bytes = view;
  return ref;
}

Result<TableHeap::MutableTupleRef> TableHeap::GetMutable(Address addr) {
  if (!addr.IsReal()) return Status::InvalidArgument("get: bad address");
  ASSIGN_OR_RETURN(size_t page_idx, PageIndex(addr.page()));
  ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(addr.page()));
  PageGuard guard(pool_, page, /*dirty=*/true);
  std::unique_lock<std::mutex> latch(page->latch());
  pool_->CloneForEpochs(addr.page(), page->data());
  ASSIGN_OR_RETURN(std::string_view view, SlottedPage(page).Get(addr.slot()));
  StampIndex(page_idx);
  MutableTupleRef ref;
  ref.guard = std::move(guard);
  ref.latch = std::move(latch);
  ref.data = page->data() + (view.data() - page->data());
  ref.size = view.size();
  ++stats_.updates;
  return ref;
}

Status TableHeap::StampPageLsn(PageId page_id, Lsn lsn) {
  ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  PageGuard guard(pool_, page, /*dirty=*/true);
  std::lock_guard<std::mutex> latch(page->latch());
  pool_->CloneForEpochs(page_id, page->data());
  SlottedPage(page).set_page_lsn(lsn);
  return Status::OK();
}

Status TableHeap::AppendPage(PageId page_id) {
  if (std::binary_search(pages_.begin(), pages_.end(), page_id)) {
    return Status::OK();
  }
  if (!pages_.empty() && page_id < pages_.back()) {
    return Status::InvalidArgument("AppendPage: page id out of order");
  }
  RETURN_IF_ERROR(AppendStamp());
  pages_.push_back(page_id);
  StampIndex(pages_.size() - 1);
  ++stats_.page_allocations;
  return Status::OK();
}

Status TableHeap::RecountLive() {
  uint64_t live = 0;
  for (PageId id : pages_) {
    ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(id));
    PageGuard guard(pool_, page);
    live += SlottedPage(page).live_count();
  }
  live_tuples_.store(live, std::memory_order_relaxed);
  StampAll();
  return Status::OK();
}

Result<bool> TableHeap::Exists(Address addr) {
  if (!addr.IsReal()) return false;
  // The address may name a page this table never allocated.
  if (!std::binary_search(pages_.begin(), pages_.end(), addr.page())) {
    return false;
  }
  ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(addr.page()));
  PageGuard guard(pool_, page);
  return SlottedPage(page).IsOccupied(addr.slot());
}

Result<Address> TableHeap::NextLiveAfter(Address addr) {
  // First candidate page: the page containing addr (later slots), then all
  // subsequent pages.
  size_t page_idx = 0;
  uint32_t slot = 0;
  if (addr.IsReal()) {
    page_idx = std::lower_bound(pages_.begin(), pages_.end(), addr.page()) -
               pages_.begin();
    if (page_idx < pages_.size() && pages_[page_idx] == addr.page()) {
      slot = static_cast<uint32_t>(addr.slot()) + 1;
    }
  } else if (addr.IsNull()) {
    return Address::Null();
  }
  for (; page_idx < pages_.size(); ++page_idx, slot = 0) {
    const PageId page_id = pages_[page_idx];
    ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
    PageGuard guard(pool_, page);
    SlottedPage sp(page);
    for (; slot < sp.slot_count(); ++slot) {
      if (sp.IsOccupied(static_cast<SlotId>(slot))) {
        return Address::FromPageSlot(page_id, static_cast<SlotId>(slot));
      }
    }
  }
  return Address::Null();
}

Result<Address> TableHeap::PrevLiveBefore(Address addr) {
  if (addr.IsOrigin()) return Address::Origin();
  size_t page_idx = pages_.size();
  int32_t slot_limit = -1;  // exclusive upper bound within the first page
  if (addr.IsReal()) {
    page_idx = std::upper_bound(pages_.begin(), pages_.end(), addr.page()) -
               pages_.begin();
    if (page_idx > 0 && pages_[page_idx - 1] == addr.page()) {
      slot_limit = static_cast<int32_t>(addr.slot());
    }
  }
  for (size_t i = page_idx; i-- > 0;) {
    const PageId page_id = pages_[i];
    ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
    PageGuard guard(pool_, page);
    SlottedPage sp(page);
    int32_t start = static_cast<int32_t>(sp.slot_count()) - 1;
    if (i + 1 == page_idx && slot_limit >= 0) start = slot_limit - 1;
    for (int32_t s = start; s >= 0; --s) {
      if (sp.IsOccupied(static_cast<SlotId>(s))) {
        return Address::FromPageSlot(page_id, static_cast<SlotId>(s));
      }
    }
    slot_limit = -1;
  }
  return Address::Origin();
}

Status TableHeap::Iterator::FindNext() {
  valid_ = false;
  while (page_idx_ < heap_->pages_.size()) {
    const PageId page_id = heap_->pages_[page_idx_];
    ASSIGN_OR_RETURN(Page * page, heap_->pool_->FetchPage(page_id));
    PageGuard guard(heap_->pool_, page);
    SlottedPage sp(page);
    while (slot_ < sp.slot_count()) {
      const SlotId s = static_cast<SlotId>(slot_);
      ++slot_;
      if (sp.IsOccupied(s)) {
        ASSIGN_OR_RETURN(std::string_view view, sp.Get(s));
        tuple_.assign(view);
        address_ = Address::FromPageSlot(page_id, s);
        valid_ = true;
        return Status::OK();
      }
    }
    ++page_idx_;
    slot_ = 0;
  }
  return Status::OK();
}

Status TableHeap::Iterator::Next() {
  if (!valid_) return Status::Internal("Next() past end");
  return FindNext();
}

Result<TableHeap::Iterator> TableHeap::Begin() {
  Iterator it(this);
  RETURN_IF_ERROR(it.FindNext());
  return it;
}

Status TableHeap::Cursor::FindNext() {
  valid_ = false;
  while (page_idx_ < end_page_idx_) {
    const PageId page_id = heap_->pages_[page_idx_];
    if (!guard_) {
      // Per-page (never per-row) flight-recorder event: the cursor crossed
      // onto a new page and repins.
      SNAPDIFF_FR_INSTANT("storage.cursor.page", page_id);
      ASSIGN_OR_RETURN(Page * page, heap_->pool_->FetchPage(page_id));
      guard_ = PageGuard(heap_->pool_, page);
    }
    SlottedPage sp(guard_.page());
    while (slot_ < sp.slot_count()) {
      const SlotId s = static_cast<SlotId>(slot_);
      ++slot_;
      if (sp.IsOccupied(s)) {
        ASSIGN_OR_RETURN(tuple_, sp.Get(s));
        address_ = Address::FromPageSlot(page_id, s);
        valid_ = true;
        return Status::OK();
      }
    }
    guard_.Release();
    ++page_idx_;
    slot_ = 0;
  }
  tuple_ = {};
  return Status::OK();
}

Status TableHeap::Cursor::Next() {
  if (!valid_) return Status::Internal("Next() past end");
  return FindNext();
}

Result<TableHeap::Cursor> TableHeap::OpenCursor() {
  return OpenCursor(0, pages_.size());
}

Result<TableHeap::Cursor> TableHeap::OpenCursor(size_t first_page_idx,
                                                size_t page_count) {
  if (first_page_idx > pages_.size() ||
      page_count > pages_.size() - first_page_idx) {
    return Status::InvalidArgument("OpenCursor: page range out of bounds");
  }
  Cursor cur(this, first_page_idx, first_page_idx + page_count);
  RETURN_IF_ERROR(cur.FindNext());
  return cur;
}

}  // namespace snapdiff
