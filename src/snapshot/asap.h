#ifndef SNAPDIFF_SNAPSHOT_ASAP_H_
#define SNAPDIFF_SNAPSHOT_ASAP_H_

#include <cstdint>
#include <deque>
#include <mutex>

#include "net/channel.h"
#include "obs/metrics.h"
#include "snapshot/base_table.h"
#include "snapshot/refresh_types.h"

namespace snapdiff {

/// ASAP ("As Soon As Possible") update propagation — the eager alternative
/// the paper argues against. Attached as a BaseTable observer, it restricts
/// every base change and immediately sends UPSERT/DELETE to the snapshot.
///
/// Reproduced drawbacks:
///   * every base operation pays a message (and a restriction evaluation);
///   * when the channel is partitioned, changes "must be buffered or
///     rejected" — `buffer_on_partition` selects which, and the meters
///     expose the buffering high-water mark / the loss count. Rejected
///     changes make the snapshot permanently stale until a full refresh.
class AsapPropagator : public TableObserver {
 public:
  struct Stats {
    uint64_t propagated = 0;        // messages sent at operation time
    uint64_t buffered = 0;          // queued while partitioned
    uint64_t buffered_high_water = 0;
    uint64_t rejected = 0;          // dropped while partitioned
  };

  AsapPropagator(SnapshotDescriptor* desc, BaseTable* base, Channel* channel,
                 bool buffer_on_partition = true);

  /// Re-sends buffered changes after the partition heals, in order.
  Status FlushBuffered();

  /// While paused, Propagate buffers unconditionally (even in reject mode,
  /// even on a healthy channel). Taken around an epoch-based initial full
  /// copy: the copy streams the cut, and changes after the cut must land
  /// at the site *after* it — a concurrently propagated change would be
  /// overwritten by the copy's older image of the same row.
  void PauseToBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = true;
  }

  /// Ends a PauseToBuffer window and re-sends what it held, in order.
  Status ResumeAndFlush() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_ = false;
    }
    return FlushBuffered();
  }

  size_t buffered() const {
    std::lock_guard<std::mutex> lock(mu_);
    return buffer_.size();
  }
  /// Meters. Read quiesced (no writer mid-operation): the returned
  /// reference is unguarded.
  const Stats& stats() const { return stats_; }

  // TableObserver:
  void OnInsert(Address addr, const Tuple& after) override;
  void OnUpdate(Address addr, const Tuple& before,
                const Tuple& after) override;
  void OnDelete(Address addr, const Tuple& before) override;

 private:
  Result<bool> Qualifies(const Tuple& user_row) const;
  void Propagate(Message msg);

  SnapshotDescriptor* desc_;
  BaseTable* base_;
  Channel* channel_;
  bool buffer_on_partition_;
  /// Bound once: ASAP evaluates on every base operation, and a base
  /// table's user columns never change (annotations are appended to the
  /// stored schema only).
  BoundExpression restriction_;
  Schema projected_schema_;
  /// Guards buffer_ + stats_ against a refresh draining (FlushBuffered)
  /// while writer threads propagate. Observer callbacks already run under
  /// the table's mutation lock; this latch only bridges to the drain side.
  mutable std::mutex mu_;
  bool paused_ = false;  // PauseToBuffer window open (initial copy in flight)
  std::deque<Message> buffer_;
  Stats stats_;
  obs::Counter* metric_propagated_;
  obs::Counter* metric_buffered_;
  obs::Counter* metric_rejected_;
  obs::Gauge* metric_buffer_depth_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_ASAP_H_
