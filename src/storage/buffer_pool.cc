#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"

namespace snapdiff {

ScanEpoch::ScanEpoch(std::vector<PageId> cover) : cover_(std::move(cover)) {
  std::sort(cover_.begin(), cover_.end());
}

bool ScanEpoch::Covers(PageId page_id) const {
  // cover_ is immutable after construction; no lock needed.
  return std::binary_search(cover_.begin(), cover_.end(), page_id);
}

const char* ScanEpoch::FindClone(PageId page_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clones_.find(page_id);
  // The clone allocation is stable once inserted (never mutated, never
  // erased before the epoch dies), so handing the raw pointer out of the
  // lock is safe.
  return it == clones_.end() ? nullptr : it->second.get();
}

uint64_t ScanEpoch::cloned_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clones_.size();
}

void ScanEpoch::CloneIfNeeded(PageId page_id, const char* bytes) {
  if (!Covers(page_id)) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = clones_.try_emplace(page_id);
  if (!inserted) return;  // first writer already froze the pre-image
  it->second = std::make_unique<char[]>(Page::kPageSize);
  std::memcpy(it->second.get(), bytes, Page::kPageSize);
}

std::shared_ptr<ScanEpoch> BufferPool::OpenScanEpoch(
    std::vector<PageId> cover) {
  auto epoch = std::make_shared<ScanEpoch>(std::move(cover));
  std::lock_guard<std::mutex> lock(epochs_mu_);
  open_epochs_.erase(
      std::remove_if(open_epochs_.begin(), open_epochs_.end(),
                     [](const std::weak_ptr<ScanEpoch>& e) {
                       return e.expired();
                     }),
      open_epochs_.end());
  open_epochs_.push_back(epoch);
  open_epoch_count_.store(open_epochs_.size(), std::memory_order_relaxed);
  return epoch;
}

void BufferPool::CloneForEpochs(PageId page_id, const char* bytes) {
  if (open_epoch_count_.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> lock(epochs_mu_);
  size_t live = 0;
  for (const std::weak_ptr<ScanEpoch>& weak : open_epochs_) {
    if (std::shared_ptr<ScanEpoch> epoch = weak.lock()) {
      epoch->CloneIfNeeded(page_id, bytes);
      ++live;
    }
  }
  if (live != open_epochs_.size()) {
    open_epochs_.erase(
        std::remove_if(open_epochs_.begin(), open_epochs_.end(),
                       [](const std::weak_ptr<ScanEpoch>& e) {
                         return e.expired();
                       }),
        open_epochs_.end());
    open_epoch_count_.store(open_epochs_.size(), std::memory_order_relaxed);
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t pool_size) : disk_(disk) {
  SNAPDIFF_CHECK(pool_size > 0);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metric_hits_ = reg.GetCounter("storage.buffer_pool.hits");
  metric_misses_ = reg.GetCounter("storage.buffer_pool.misses");
  metric_evictions_ = reg.GetCounter("storage.buffer_pool.evictions");
  metric_flushes_ = reg.GetCounter("storage.buffer_pool.flushes");
  frames_.reserve(pool_size);
  free_frames_.reserve(pool_size);
  lru_prev_.assign(pool_size, kLruNil);
  lru_next_.assign(pool_size, kLruNil);
  in_lru_.assign(pool_size, 0);
  for (size_t i = 0; i < pool_size; ++i) {
    frames_.push_back(std::make_unique<Page>());
    free_frames_.push_back(pool_size - 1 - i);
  }
}

void BufferPool::TouchLru(size_t frame_idx) {
  RemoveFromLru(frame_idx);
  // Append at the tail (most recently used end).
  lru_prev_[frame_idx] = lru_tail_;
  lru_next_[frame_idx] = kLruNil;
  if (lru_tail_ != kLruNil) {
    lru_next_[lru_tail_] = frame_idx;
  } else {
    lru_head_ = frame_idx;
  }
  lru_tail_ = frame_idx;
  in_lru_[frame_idx] = 1;
}

void BufferPool::RemoveFromLru(size_t frame_idx) {
  if (!in_lru_[frame_idx]) return;
  const size_t prev = lru_prev_[frame_idx];
  const size_t next = lru_next_[frame_idx];
  if (prev != kLruNil) {
    lru_next_[prev] = next;
  } else {
    lru_head_ = next;
  }
  if (next != kLruNil) {
    lru_prev_[next] = prev;
  } else {
    lru_tail_ = prev;
  }
  lru_prev_[frame_idx] = kLruNil;
  lru_next_[frame_idx] = kLruNil;
  in_lru_[frame_idx] = 0;
}

void BufferPool::SetPreFlushHook(PreFlushHook hook) {
  std::lock_guard<SpinThenBlockMutex> lock(mu_);
  pre_flush_hook_ = std::move(hook);
}

Status BufferPool::WriteDirtyPage(PageId page_id, const char* data) {
  if (pre_flush_hook_) {
    RETURN_IF_ERROR(pre_flush_hook_(page_id, data));
  }
  return disk_->WritePage(page_id, data);
}

Result<size_t> BufferPool::GetVictimFrame() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  if (lru_head_ == kLruNil) {
    return Status::ResourceExhausted("buffer pool: all frames pinned");
  }
  const size_t idx = lru_head_;
  Page* victim = frames_[idx].get();
  SNAPDIFF_DCHECK(victim->pin_count_ == 0);
  if (victim->is_dirty_) {
    RETURN_IF_ERROR(WriteDirtyPage(victim->page_id_, victim->data_));
    ++stats_.flushes;
    metric_flushes_->Inc();
  }
  SNAPDIFF_LOG(Trace) << "evicting page"
                      << obs::kv("page", victim->page_id_);
  SNAPDIFF_FR_INSTANT("storage.buffer_pool.evict", victim->page_id_);
  page_table_.erase(victim->page_id_);
  RemoveFromLru(idx);
  victim->Reset();
  ++stats_.evictions;
  metric_evictions_->Inc();
  return idx;
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  std::lock_guard<SpinThenBlockMutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    Page* page = frames_[it->second].get();
    if (page->pin_count_ == 0) RemoveFromLru(it->second);
    ++page->pin_count_;
    ++stats_.hits;
    metric_hits_->Inc();
    return page;
  }
  ++stats_.misses;
  metric_misses_->Inc();
  SNAPDIFF_FR_INSTANT("storage.buffer_pool.miss", page_id);
  ASSIGN_OR_RETURN(size_t idx, GetVictimFrame());
  Page* page = frames_[idx].get();
  Status read = disk_->ReadPage(page_id, page->data_);
  if (!read.ok()) {
    free_frames_.push_back(idx);
    return read;
  }
  page->page_id_ = page_id;
  page->pin_count_ = 1;
  page->is_dirty_ = false;
  page_table_[page_id] = idx;
  return page;
}

Result<Page*> BufferPool::NewPage(PageId* page_id) {
  std::lock_guard<SpinThenBlockMutex> lock(mu_);
  ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
  ASSIGN_OR_RETURN(size_t idx, GetVictimFrame());
  Page* page = frames_[idx].get();
  page->Zero();
  page->page_id_ = id;
  page->pin_count_ = 1;
  page->is_dirty_ = true;  // must be written even if untouched
  page_table_[id] = idx;
  *page_id = id;
  return page;
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  std::lock_guard<SpinThenBlockMutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::NotFound("UnpinPage: page not resident");
  }
  Page* page = frames_[it->second].get();
  if (page->pin_count_ <= 0) {
    return Status::Internal("UnpinPage: pin count already zero");
  }
  page->is_dirty_ = page->is_dirty_ || dirty;
  if (--page->pin_count_ == 0) TouchLru(it->second);
  return Status::OK();
}

Status BufferPool::FlushPage(PageId page_id) {
  std::lock_guard<SpinThenBlockMutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::NotFound("FlushPage: page not resident");
  }
  Page* page = frames_[it->second].get();
  if (!page->is_dirty_) return Status::OK();
  RETURN_IF_ERROR(WriteDirtyPage(page_id, page->data_));
  page->is_dirty_ = false;
  ++stats_.flushes;
  metric_flushes_->Inc();
  return Status::OK();
}

Status BufferPool::FlushDirty() {
  std::lock_guard<SpinThenBlockMutex> lock(mu_);
  for (const auto& [page_id, idx] : page_table_) {
    Page* page = frames_[idx].get();
    if (page->is_dirty_) {
      RETURN_IF_ERROR(WriteDirtyPage(page_id, page->data_));
      page->is_dirty_ = false;
      ++stats_.flushes;
      metric_flushes_->Inc();
    }
  }
  return Status::OK();
}

}  // namespace snapdiff
