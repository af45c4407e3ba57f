#ifndef SNAPDIFF_STORAGE_PAGE_H_
#define SNAPDIFF_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <mutex>

#include "common/types.h"

namespace snapdiff {

/// A fixed-size in-memory frame holding one disk page. Pin counts and the
/// dirty bit are managed by BufferPool; client code obtains Page pointers
/// from the pool and must unpin them when done (see PageGuard for the RAII
/// wrapper).
class Page {
 public:
  static constexpr size_t kPageSize = 4096;

  Page() { Zero(); }

  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  char* data() { return data_; }
  const char* data() const { return data_; }

  PageId page_id() const { return page_id_; }
  int pin_count() const { return pin_count_; }
  bool is_dirty() const { return is_dirty_; }

  /// Short-duration latch over the page *bytes*. Writers hold it across a
  /// single slotted-page mutation (plus the copy-on-write clone that
  /// precedes it); epoch scans hold it just long enough to copy the frame.
  /// It is a property of the frame, not the page: it survives Reset() and
  /// therefore eviction/reload, which is harmless — a latch on the wrong
  /// incarnation only costs a moment of false contention. Lock order:
  /// page latch before any buffer-pool epoch mutex, never after.
  std::mutex& latch() const { return latch_; }

 private:
  friend class BufferPool;

  /// Detaches the frame from its page. The bytes stay: a fetch overwrites
  /// the whole frame with the page it reads, and NewPage zeroes it.
  void Reset() {
    page_id_ = kInvalidPageId;
    pin_count_ = 0;
    is_dirty_ = false;
  }

  void Zero() { std::memset(data_, 0, kPageSize); }

  char data_[kPageSize];
  PageId page_id_ = kInvalidPageId;
  int pin_count_ = 0;
  bool is_dirty_ = false;
  mutable std::mutex latch_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_STORAGE_PAGE_H_
