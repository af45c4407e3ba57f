#ifndef SNAPDIFF_STORAGE_BUFFER_POOL_H_
#define SNAPDIFF_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/spin_mutex.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace snapdiff {

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;
};

/// A consistent copy-on-write cut over a fixed set of pages. Opened by a
/// refresh scan via BufferPool::OpenScanEpoch; writers that are about to
/// mutate a covered page first deposit the page's pre-image here (see
/// BufferPool::CloneForEpochs), so readers of the epoch always observe the
/// bytes as of the open. Clones are epoch-private, memory-only, and never
/// flushed or WAL-logged — the live frame keeps its own dirty/LSN state.
/// All clone storage is reclaimed when the last reference to the epoch is
/// dropped (the handle is a shared_ptr; BufferPool only holds a weak ref).
class ScanEpoch {
 public:
  explicit ScanEpoch(std::vector<PageId> cover);

  ScanEpoch(const ScanEpoch&) = delete;
  ScanEpoch& operator=(const ScanEpoch&) = delete;

  /// Whether the page existed at the epoch's cut (pages allocated later are
  /// outside the epoch and are never cloned).
  bool Covers(PageId page_id) const;

  /// The frozen pre-image of `page_id`, or nullptr if no writer has touched
  /// it since the cut (in which case the live frame still holds the cut
  /// bytes). The returned pointer is immutable and stable for the epoch's
  /// lifetime.
  const char* FindClone(PageId page_id) const;

  /// Number of pages cloned so far (writer touched them since the cut).
  uint64_t cloned_pages() const;

 private:
  friend class BufferPool;

  /// Deposits `bytes` as the pre-image of `page_id` if the page is covered
  /// and not already cloned. Called by writers with the page latch held.
  void CloneIfNeeded(PageId page_id, const char* bytes);

  mutable std::mutex mu_;
  /// Sorted; immutable after construction. Binary-searched by Covers() —
  /// a hash set here would cost one node allocation per covered page on
  /// every epoch open, putting O(pages) heap traffic on each refresh.
  std::vector<PageId> cover_;
  std::unordered_map<PageId, std::unique_ptr<char[]>> clones_;
};

/// A classic pin-count buffer pool with LRU replacement over unpinned
/// frames. Fetched pages stay resident while pinned; unpinning with
/// `dirty = true` schedules a write-back on eviction or flush.
///
/// Fetch/New/Unpin/Flush are serialized by one coarse latch so parallel
/// refresh workers can scan concurrently. A pinned page cannot be evicted,
/// so reading a pinned page's data outside the latch is safe; writing page
/// data still requires external coordination (the refresh executors only
/// write single-threaded). stats()/ResetStats() remain unsynchronized —
/// read them only while no worker is active.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t pool_size);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins and returns the page. Fails with ResourceExhausted when every
  /// frame is pinned.
  Result<Page*> FetchPage(PageId page_id);

  /// Allocates a fresh page on disk, pins it, and returns it.
  /// The new page id is reported through `*page_id`.
  Result<Page*> NewPage(PageId* page_id);

  /// Drops one pin; `dirty` marks the frame as needing write-back.
  Status UnpinPage(PageId page_id, bool dirty);

  /// Writes the page back if resident and dirty (regardless of pin state).
  Status FlushPage(PageId page_id);

  /// Writes back every dirty resident page — the write phase of a fuzzy
  /// checkpoint (pins are ignored; pages keep changing afterwards, which is
  /// what makes the checkpoint fuzzy).
  Status FlushDirty();

  /// Alias of FlushDirty() kept for existing call sites.
  Status FlushAll() { return FlushDirty(); }

  /// Called with (page_id, page bytes) immediately before any dirty page is
  /// written to disk — eviction, FlushPage, or FlushDirty. The snapshot
  /// system uses it to log a full-page image and sync the WAL first, which
  /// is what makes torn page writes and dropped fsyncs recoverable
  /// (WAL-before-data). A failing hook aborts the write.
  using PreFlushHook = std::function<Status(PageId, const char*)>;
  void SetPreFlushHook(PreFlushHook hook);

  /// Opens a copy-on-write scan epoch over `cover` (a table's page list at
  /// the cut). Writers mutating a covered page clone its pre-image into the
  /// epoch first, so epoch readers see a consistent snapshot while the live
  /// table keeps moving. Dropping the returned handle closes the epoch and
  /// reclaims its clones.
  std::shared_ptr<ScanEpoch> OpenScanEpoch(std::vector<PageId> cover);

  /// Writer-side copy-on-write hook: deposits `bytes` (the page's current
  /// contents) into every open epoch that covers `page_id` and has not yet
  /// cloned it. Must be called with the page's latch held, *before* the
  /// first mutation of the page bytes in that critical section. No-op (one
  /// relaxed atomic load) when no epoch is open.
  void CloneForEpochs(PageId page_id, const char* bytes);

  /// Number of scan epochs currently open (expired handles are counted
  /// until the next OpenScanEpoch/CloneForEpochs sweeps them out).
  size_t open_epochs() const {
    return open_epoch_count_.load(std::memory_order_relaxed);
  }

  /// The backing page store (restart recovery extends it when replaying
  /// ALLOC_PAGE records for pages the crash left unallocated).
  DiskManager* disk() const { return disk_; }

  size_t pool_size() const { return frames_.size(); }
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

 private:
  /// Finds a frame for a new resident page: a free frame if any, else the
  /// least recently used unpinned frame (evicting its current page).
  /// Requires mu_ held.
  Result<size_t> GetVictimFrame();

  void TouchLru(size_t frame_idx);
  void RemoveFromLru(size_t frame_idx);

  /// Hook + write for one dirty page. Requires mu_ held.
  Status WriteDirtyPage(PageId page_id, const char* data);

  /// Spins before it blocks: a hit holds it for a table lookup and a miss
  /// for a page copy or two, both shorter than a futex sleep and wake-up,
  /// and parallel refresh workers and writers take it for every page.
  mutable SpinThenBlockMutex mu_;
  DiskManager* disk_;
  PreFlushHook pre_flush_hook_;
  std::vector<std::unique_ptr<Page>> frames_;
  std::unordered_map<PageId, size_t> page_table_;
  std::vector<size_t> free_frames_;
  // LRU order of unpinned frames as an intrusive doubly linked list over
  // frame indices (head = least recently used). Pin/unpin transitions are
  // pointer swaps in preallocated arrays — no heap traffic on the scan hot
  // path, unlike the std::list + iterator-map this replaces.
  static constexpr size_t kLruNil = static_cast<size_t>(-1);
  std::vector<size_t> lru_prev_;
  std::vector<size_t> lru_next_;
  std::vector<uint8_t> in_lru_;
  size_t lru_head_ = kLruNil;
  size_t lru_tail_ = kLruNil;
  // Open scan epochs, weakly held (the handle returned by OpenScanEpoch is
  // the owning reference; expired entries are swept on the next open/clone).
  // open_epoch_count_ is the writers' fast-path gate: when zero, a mutation
  // skips epochs_mu_ entirely, so the no-refresh-running write path costs
  // one relaxed load. Lock order: page latch -> epochs_mu_ -> ScanEpoch::mu_.
  mutable std::mutex epochs_mu_;
  std::vector<std::weak_ptr<ScanEpoch>> open_epochs_;
  std::atomic<size_t> open_epoch_count_{0};
  BufferPoolStats stats_;
  // System-wide aggregates ("storage.buffer_pool.*"): every pool of the
  // process feeds the same registry counters.
  obs::Counter* metric_hits_;
  obs::Counter* metric_misses_;
  obs::Counter* metric_evictions_;
  obs::Counter* metric_flushes_;
};

/// RAII pin guard. Unpins on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, Page* page, bool dirty = false)
      : pool_(pool), page_(page), dirty_(dirty) {}

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      page_ = other.page_;
      dirty_ = other.dirty_;
      other.pool_ = nullptr;
      other.page_ = nullptr;
    }
    return *this;
  }

  ~PageGuard() { Release(); }

  Page* page() const { return page_; }
  Page* operator->() const { return page_; }
  explicit operator bool() const { return page_ != nullptr; }

  /// Marks the underlying frame dirty at unpin time.
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (pool_ != nullptr && page_ != nullptr) {
      // Unpin cannot fail for a page we hold pinned.
      (void)pool_->UnpinPage(page_->page_id(), dirty_);
    }
    pool_ = nullptr;
    page_ = nullptr;
    dirty_ = false;
  }

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_STORAGE_BUFFER_POOL_H_
