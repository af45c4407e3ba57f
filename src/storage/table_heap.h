#ifndef SNAPDIFF_STORAGE_TABLE_HEAP_H_
#define SNAPDIFF_STORAGE_TABLE_HEAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/buffer_pool.h"

namespace snapdiff {

/// Where newly inserted tuples are placed. The paper's algorithm must cope
/// with inserts landing at "some empty address", including interior holes
/// left by deletions; the policy is a first-class experimental knob
/// (bench_placement) because it changes how often PrevAddr anomalies arise.
enum class PlacementPolicy {
  /// Scan pages in address order and reuse the first hole (default; the
  /// behaviour the paper's examples exhibit, e.g. Laura inserted at addr 2).
  kFirstFit,
  /// Always place at the end of the table; freed slots are never reused.
  kAppend,
  /// Place on a uniformly random page with room (hot-hole stress test).
  kRandom,
};

std::string_view PlacementPolicyToString(PlacementPolicy policy);

struct TableHeapStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t updates = 0;
  uint64_t page_allocations = 0;
};

/// A consistent copy-on-write cut over one table, opened while writers keep
/// mutating the live heap. The epoch freezes two things at open: the
/// table's page list (pages allocated later are invisible) and, via the
/// buffer pool's ScanEpoch, the byte image of every frozen page (writers
/// clone a page's pre-image into the epoch before first touching it). A
/// Cursor therefore iterates exactly the rows that were live at the cut, in
/// address order, byte-for-byte — while Insert/Update/Delete proceed
/// concurrently on the live heap. All clone storage is reclaimed when the
/// last shared_ptr to the epoch drops.
class TableEpoch {
 public:
  TableEpoch(const TableEpoch&) = delete;
  TableEpoch& operator=(const TableEpoch&) = delete;

  /// The table's page ids at the cut (a prefix of the live heap's pages(),
  /// since the heap only ever appends).
  const std::vector<PageId>& pages() const { return pages_; }
  size_t page_count() const { return pages_.size(); }

  /// Pages a writer has touched (and therefore cloned) since the cut.
  uint64_t cloned_pages() const { return cow_->cloned_pages(); }

  /// BaseTable::mutation_tick() at the cut — the validity token delta-cache
  /// fills must carry (a fill built from this epoch describes the table as
  /// of this tick, not as of fill completion).
  uint64_t cut_tick = 0;

  /// WAL end at the cut: the log-based executor collects committed changes
  /// only up to this LSN, so its delta ends at the same cut a heap scan
  /// would. kInvalidLsn when the table has no WAL.
  Lsn cut_lsn = kInvalidLsn;

  /// Forward cursor over the rows live at the cut, in address order. Reads
  /// a page's frozen clone when a writer has touched it, else copies the
  /// live frame under its latch (bounded writer stall: one 4 KB memcpy).
  /// tuple() is valid until the next Next() call.
  class Cursor {
   public:
    Cursor() = default;
    Cursor(Cursor&&) noexcept = default;
    Cursor& operator=(Cursor&&) noexcept = default;

    bool Valid() const { return valid_; }
    Address address() const { return address_; }
    std::string_view tuple() const { return tuple_; }

    Status Next();

   private:
    friend class TableEpoch;
    Cursor(const TableEpoch* epoch, size_t first_page_idx,
           size_t end_page_idx);

    /// Resolves pages_[page_idx_] to a frozen byte image (clone or latched
    /// scratch copy) in cur_bytes_.
    Status LoadPage();
    Status FindNext();

    const TableEpoch* epoch_ = nullptr;
    size_t page_idx_ = 0;
    size_t end_page_idx_ = 0;
    uint32_t slot_ = 0;               // next slot to examine
    const char* cur_bytes_ = nullptr; // frozen image of the current page
    std::unique_ptr<char[]> scratch_; // backing store when copying live
    bool valid_ = false;
    Address address_;
    std::string_view tuple_;
  };

  /// Opens a cursor over the epoch's pages [first_page_idx, first_page_idx
  /// + page_count) — the same partitioned-scan shape the live cursor has.
  Result<Cursor> OpenCursor(size_t first_page_idx, size_t page_count) const;
  Result<Cursor> OpenCursor() const { return OpenCursor(0, pages_.size()); }

  /// Point read at the cut: the tuple bytes at `addr` as of the epoch, or
  /// nullopt if no live tuple occupied `addr` then (including addresses on
  /// pages allocated after the cut).
  Result<std::optional<std::string>> Read(Address addr) const;

  /// Calls `fn(address, bytes)` for every row live at the cut, in address
  /// order. `bytes` is invalidated by the next iteration — copy to keep.
  template <typename Fn>
  Status ForEach(Fn&& fn) const {
    ASSIGN_OR_RETURN(Cursor cur, OpenCursor());
    while (cur.Valid()) {
      RETURN_IF_ERROR(fn(cur.address(), cur.tuple()));
      RETURN_IF_ERROR(cur.Next());
    }
    return Status::OK();
  }

  /// ForEach over the epoch's pages [first_page_idx, first_page_idx +
  /// page_count) — the differential scan's shape.
  template <typename Fn>
  Status ForEachInPageRange(size_t first_page_idx, size_t page_count,
                            Fn&& fn) const {
    ASSIGN_OR_RETURN(Cursor cur, OpenCursor(first_page_idx, page_count));
    while (cur.Valid()) {
      RETURN_IF_ERROR(fn(cur.address(), cur.tuple()));
      RETURN_IF_ERROR(cur.Next());
    }
    return Status::OK();
  }

 private:
  friend class TableHeap;
  TableEpoch(BufferPool* pool, std::shared_ptr<ScanEpoch> cow,
             std::vector<PageId> pages)
      : pool_(pool), cow_(std::move(cow)), pages_(std::move(pages)) {}

  BufferPool* pool_;
  std::shared_ptr<ScanEpoch> cow_;
  std::vector<PageId> pages_;
};

/// A heap table of byte-string tuples with stable, totally ordered
/// `Address`es (page id, slot). Updates never move a tuple to a different
/// address; deletes free the slot for possible reuse (policy permitting).
///
/// Iteration via `Iterator` / `ForEach` visits live tuples in strictly
/// increasing address order — the scan order the refresh algorithms rely on.
///
/// Page directory: the heap keeps a change clock and, per page, the clock
/// value of the page's last change. Every mutation (Insert, Update, Delete,
/// GetMutable, page allocation) advances the clock by one and stamps the
/// page it changed with the new value; Attach, AppendPage and RecountLive
/// stamp every page they register or recount, because pages changed
/// beneath the heap (restart, recovery) changed at an unknown time. A page
/// whose stamp is at most T is therefore byte-for-byte unchanged, in its
/// rows, since the clock read T — which lets a delta-cache fill reuse it.
class TableHeap {
 public:
  TableHeap(BufferPool* pool, PlacementPolicy policy = PlacementPolicy::kFirstFit,
            uint64_t seed = 0x5eed);

  /// Reattaches a heap to pages that already exist on disk (site restart
  /// with a durable DiskManager). `pages` must be the table's page ids in
  /// allocation order; the live-tuple count is recomputed by scanning.
  static Result<std::unique_ptr<TableHeap>> Attach(
      BufferPool* pool, std::vector<PageId> pages,
      PlacementPolicy policy = PlacementPolicy::kFirstFit,
      uint64_t seed = 0x5eed);

  TableHeap(const TableHeap&) = delete;
  TableHeap& operator=(const TableHeap&) = delete;

  /// Inserts a tuple and returns its (new) address.
  Result<Address> Insert(std::string_view bytes);

  /// Deletes the tuple at `addr`. NotFound if the slot is empty.
  Status Delete(Address addr);

  /// Replaces the tuple bytes at `addr`, keeping the address.
  Status Update(Address addr, std::string_view bytes);

  /// Copies out the tuple at `addr`.
  Result<std::string> Get(Address addr);

  /// A pinned, read-only view of one tuple. `bytes` aliases the
  /// buffer-pool frame and stays valid exactly as long as `guard` holds
  /// the pin (and the page is not mutated). The zero-copy replacement for
  /// Get() on point-read paths.
  struct TupleRef {
    PageGuard guard;
    std::string_view bytes;
  };

  /// Pins the tuple's page and returns a view of its bytes — no copy.
  Result<TupleRef> GetView(Address addr);

  /// A pinned, mutable window over one tuple's bytes, already marked
  /// dirty. In-place patching only: the tuple's length cannot change.
  /// Holds the page latch for its lifetime (writers and epoch scans stay
  /// out while the caller patches), so keep it short-lived. Declared after
  /// `guard` so destruction releases the latch before dropping the pin.
  struct MutableTupleRef {
    PageGuard guard;
    std::unique_lock<std::mutex> latch;
    char* data = nullptr;
    size_t size = 0;
  };

  /// Pins and latches the tuple's page for an in-place overwrite (counts
  /// as an update); the page's pre-image is cloned into any open scan
  /// epoch first. Callers may rewrite bytes within [data, data + size) but
  /// must not change the tuple length.
  Result<MutableTupleRef> GetMutable(Address addr);

  /// Whether a live tuple exists at `addr`.
  Result<bool> Exists(Address addr);

  /// The smallest live address strictly greater than `addr`
  /// (Address::Origin() scans from the start). Returns Address::Null()
  /// when none exists. Used by eager annotation maintenance to find the
  /// successor whose PrevAddr must be fixed.
  Result<Address> NextLiveAfter(Address addr);

  /// The largest live address strictly smaller than `addr`
  /// (Address::Null() scans from the end). Returns Address::Origin() when
  /// none exists.
  Result<Address> PrevLiveBefore(Address addr);

  /// Stamps the slotted page's LSN field (and marks the page dirty). Called
  /// by BaseTable after each logged mutation so restart recovery can decide
  /// idempotently whether a redo record is already reflected on the page.
  Status StampPageLsn(PageId page_id, Lsn lsn);

  /// Registers a page that already exists in the DiskManager as the new
  /// last page of this heap (restart recovery replaying an ALLOC_PAGE
  /// record for a page the persisted catalog predates). Idempotent: a page
  /// already registered is left alone.
  Status AppendPage(PageId page_id);

  /// Recounts live_tuples() by scanning every page — recovery mutates pages
  /// directly underneath the heap, so the cached count must be rebuilt.
  Status RecountLive();

  /// Opens a copy-on-write scan epoch over the table's current pages. See
  /// TableEpoch. Callers that need a tick/LSN cut (BaseTable::OpenEpoch)
  /// must open the epoch while holding their mutation lock so the page
  /// list, tick, and LSN describe the same instant.
  std::shared_ptr<TableEpoch> OpenEpoch();

  uint64_t live_tuples() const {
    return live_tuples_.load(std::memory_order_relaxed);
  }

  /// The change clock: the number of page changes this heap has made
  /// (BaseTable::mutation_tick reads it).
  uint64_t clock() const { return clock_.load(std::memory_order_acquire); }

  /// Advances the clock without changing a page: a change in how rows read
  /// (BaseTable::SetMode) that must still invalidate cached images.
  void Tick() { clock_.fetch_add(1, std::memory_order_acq_rel); }

  /// The clock value of the last change to pages()[page_idx]. Readers may
  /// call it while a writer runs, for any page that existed when they
  /// synchronized with the writers (an epoch's pages, for instance).
  uint64_t page_stamp(size_t page_idx) const {
    return stamps_[page_idx / kStampChunk][page_idx % kStampChunk].load(
        std::memory_order_relaxed);
  }

  /// Process-unique identity: a clock value means nothing for another heap
  /// (a table re-attached after a restart starts a new clock).
  uint64_t id() const { return id_; }
  const TableHeapStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TableHeapStats{}; }
  const std::vector<PageId>& pages() const { return pages_; }
  PlacementPolicy policy() const { return policy_; }
  void set_policy(PlacementPolicy policy) { policy_ = policy; }

  /// Forward iterator over live tuples in address order. The tuple bytes are
  /// copied into the iterator, so it remains valid across page evictions.
  /// Mutating the heap invalidates iterators.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    Address address() const { return address_; }
    const std::string& tuple() const { return tuple_; }

    /// Advances to the next live tuple; clears Valid() at the end.
    Status Next();

   private:
    friend class TableHeap;
    Iterator(TableHeap* heap) : heap_(heap) {}

    /// Advances from the current (page_idx_, slot_) position to the next
    /// occupied slot, loading its bytes.
    Status FindNext();

    TableHeap* heap_;
    size_t page_idx_ = 0;
    uint32_t slot_ = 0;  // next slot to examine on the current page
    bool valid_ = false;
    Address address_;
    std::string tuple_;
  };

  /// Positions an iterator at the first live tuple.
  Result<Iterator> Begin();

  /// Pin-aware forward cursor over live tuples in address order: the
  /// zero-copy counterpart of Iterator. The current page stays pinned
  /// while the cursor is positioned on it, so `tuple()` is a view into
  /// the buffer-pool frame — valid until the next `Next()` call or the
  /// cursor's destruction, whichever comes first. Advancing across a page
  /// boundary releases the old pin before taking the next, so a cursor
  /// holds at most one pin at a time. Mutating the heap under an open
  /// cursor invalidates it (the refresh executors defer all fix-up
  /// writes until after the scan for exactly this reason).
  class Cursor {
   public:
    Cursor() = default;
    Cursor(Cursor&&) noexcept = default;
    Cursor& operator=(Cursor&&) noexcept = default;

    bool Valid() const { return valid_; }
    Address address() const { return address_; }
    /// Aliases the pinned frame; invalidated by Next() / destruction.
    std::string_view tuple() const { return tuple_; }

    /// Advances to the next live tuple; clears Valid() at the end.
    Status Next();

   private:
    friend class TableHeap;
    Cursor(TableHeap* heap, size_t first_page_idx, size_t end_page_idx)
        : heap_(heap), page_idx_(first_page_idx), end_page_idx_(end_page_idx) {}

    /// Advances from (page_idx_, slot_) to the next occupied slot,
    /// repinning across page boundaries.
    Status FindNext();

    TableHeap* heap_ = nullptr;
    size_t page_idx_ = 0;
    size_t end_page_idx_ = 0;
    uint32_t slot_ = 0;  // next slot to examine on the current page
    PageGuard guard_;    // pin on the current page while positioned
    bool valid_ = false;
    Address address_;
    std::string_view tuple_;
  };

  /// Opens a cursor over the whole table.
  Result<Cursor> OpenCursor();

  /// Opens a cursor over the heap's pages [first_page_idx, first_page_idx
  /// + page_count) — indexes into pages(), i.e. address order (the
  /// partitioned-scan shape the parallel refresh workers use).
  Result<Cursor> OpenCursor(size_t first_page_idx, size_t page_count);

  /// Calls `fn(address, bytes)` for every live tuple in address order;
  /// stops early on error. `bytes` aliases the pinned buffer-pool frame
  /// and is invalidated when `fn` returns — copy it if it must outlive
  /// the callback. Statically dispatched (no std::function) so the
  /// per-row call is direct on the scan hot path.
  template <typename Fn>
  Status ForEach(Fn&& fn) {
    ASSIGN_OR_RETURN(Cursor cur, OpenCursor());
    while (cur.Valid()) {
      RETURN_IF_ERROR(fn(cur.address(), cur.tuple()));
      RETURN_IF_ERROR(cur.Next());
    }
    return Status::OK();
  }

  /// Like ForEach, restricted to the heap's pages [first_page_idx,
  /// first_page_idx + page_count). Each page is pinned once and all its
  /// slots visited under that single pin, so a partitioned scan takes one
  /// FetchPage per page instead of one per row.
  template <typename Fn>
  Status ForEachInPageRange(size_t first_page_idx, size_t page_count,
                            Fn&& fn) {
    ASSIGN_OR_RETURN(Cursor cur, OpenCursor(first_page_idx, page_count));
    while (cur.Valid()) {
      RETURN_IF_ERROR(fn(cur.address(), cur.tuple()));
      RETURN_IF_ERROR(cur.Next());
    }
    return Status::OK();
  }

 private:
  /// Picks (or allocates) a page that can hold `len` bytes under the current
  /// placement policy.
  Result<PageId> PickPageForInsert(size_t len);

  Result<PageId> AllocatePage();

  /// Advances the clock and stamps pages()[page_idx] with the new value.
  void StampIndex(size_t page_idx);
  /// The position of `page_id` in pages(); NotFound if another table's.
  Result<size_t> PageIndex(PageId page_id) const;
  /// Makes room in the directory for one more page; call before appending
  /// to pages_ (and stamp the new entry after).
  Status AppendStamp();
  /// Advances the clock once and stamps every page with it.
  void StampAll();

  bool SlotReuseAllowed() const {
    return policy_ != PlacementPolicy::kAppend;
  }

  BufferPool* pool_;
  PlacementPolicy policy_;
  Random rng_;
  std::vector<PageId> pages_;  // in allocation (= address) order
  // Atomic because refresh bookkeeping reads it while writers mutate; the
  // writers themselves are serialized externally (BaseTable::mutate_mu_).
  std::atomic<uint64_t> live_tuples_{0};
  TableHeapStats stats_;

  // The page directory, indexed like pages_. Fixed-size chunks behind a
  // fixed-size table so appending a page never moves an entry a
  // concurrent reader may be loading.
  static constexpr size_t kStampChunk = 1024;
  static constexpr size_t kStampChunks = 4096;  // 4 M pages per table
  std::atomic<uint64_t> clock_{0};
  std::unique_ptr<std::unique_ptr<std::atomic<uint64_t>[]>[]> stamps_;
  const uint64_t id_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_STORAGE_TABLE_HEAP_H_
