#ifndef SNAPDIFF_SNAPSHOT_DELTA_CACHE_H_
#define SNAPDIFF_SNAPSHOT_DELTA_CACHE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "snapshot/base_table.h"
#include "snapshot/refresh_types.h"

namespace snapdiff {

/// Identity of one *snapshot class*. Two descriptors over the same base
/// table with identical restriction text and projection are served the very
/// same differential stream for any SnapTime, so they share one cached
/// image (the anchor optimization is applied per descriptor at serve time
/// and deliberately excluded from the key).
struct DeltaCacheKey {
  TableId table_id = 0;
  std::string restriction_text;
  std::vector<std::string> projection;

  bool operator<(const DeltaCacheKey& o) const {
    if (table_id != o.table_id) return table_id < o.table_id;
    if (restriction_text != o.restriction_text) {
      return restriction_text < o.restriction_text;
    }
    return projection < o.projection;
  }
};

/// The epoch delta cache: the memory that lets one base scan serve N
/// subscribers.
///
/// Each refresh scan is an *epoch* bounded by its FixupTime. The scan
/// repairs every annotation (Figure 7), so immediately afterwards each live
/// row carries an exact post-fixup (PrevAddr, TimeStamp) — and the
/// differential stream a fresh rescan would transmit to a subscriber at
/// SnapTime T is a pure function of the live rows' (address, timestamp,
/// qualified, projected payload) sequence. The cache therefore keeps, per
/// snapshot class, that sequence as a *class image*: a flat array of rows
/// sorted by address plus one payload arena, folding every cached epoch
/// last-writer-wins (a later epoch's observation of a row replaces the
/// earlier one's; rows deleted in a later epoch drop out of the array and
/// survive only as the successor's repaired timestamp, exactly as on the
/// base table itself).
///
/// Serving SnapTime T replays the paper's Figure 3 transmit rule over the
/// image — qualified rows send iff TimeStamp > T or a deletion gap is open;
/// unqualified rows with TimeStamp > T raise the Deletion flag — which is
/// byte-for-byte the stream the rescan would emit, for *any* T, without
/// touching a single base page. A serve is one linear walk of the array;
/// it copies a payload out of the arena only for the rows it sends.
///
/// Validity: an image is serveable only while the base table is unchanged
/// since the epoch that filled it (BaseTable::mutation_tick compare). Any
/// base mutation invalidates; the next refresh falls back to the scan and
/// re-fills as a side effect. A fill appends one row per live base row, in
/// the scan's address order, to a new array and arena: rows that changed
/// since the previous image bring a freshly serialized payload, unchanged
/// rows have their payload bytes copied over from the previous image, found
/// by a forward cursor that walks it in step with the scan (a merge of the
/// two address-ordered sequences, no search). The previous image is only
/// read, so an abandoned fill leaves it intact for the next one. A fill
/// that observes an address not strictly above its predecessor, or an
/// unchanged qualified row the previous image does not hold, is discarded
/// at CommitFill.
///
/// Memory is bounded by a byte budget with LRU class eviction; evicted
/// classes fall back to rescan, metered ("snapshot.delta_cache.*" counters,
/// flight-recorder spans around serve and fill).
///
/// Thread safety: public methods are serialized by an internal mutex, so
/// refreshes of *different* tables (each under its own per-table admission
/// token) may share one cache. A fill borrows the previous image across the
/// whole scan; the class is pinned against eviction until the filler
/// commits or dies. Refreshes of the *same* table remain externally
/// serialized (SnapshotSystem's per-table admission), so a borrowed image
/// is never replaced mid-fill.
class DeltaCache {
 public:
  /// `byte_budget` caps the summed image bytes (0 = unbounded).
  explicit DeltaCache(size_t byte_budget = 0);

  struct StatsSnapshot {
    uint64_t hits = 0;           // refreshes served without a scan
    uint64_t misses = 0;         // refreshes that fell through to the scan
    uint64_t fills = 0;          // committed class-image fills
    uint64_t evictions = 0;      // classes dropped by the LRU budget
    uint64_t aborted_fills = 0;  // fills discarded as inconsistent
    uint64_t classes = 0;        // currently cached classes
    uint64_t epochs = 0;         // ledgered epochs across classes
    uint64_t bytes = 0;          // accounted image bytes
    uint64_t byte_budget = 0;    // 0 = unbounded
  };

 private:
  /// One live row as the differential stream cares about it. Unqualified
  /// rows are kept too: their fresh timestamps raise the Deletion flag.
  /// The projected payload is the image arena's bytes [off, off + len);
  /// empty if unqualified.
  struct Row {
    Address addr;
    Timestamp ts = kNullTimestamp;
    size_t off = 0;
    uint32_t len = 0;
    bool qualified = false;
  };
  /// A class image: rows in strictly increasing address order, their
  /// payloads back to back in one arena. No per-row allocation.
  struct Image {
    std::vector<Row> rows;
    std::string arena;

    std::string_view payload(const Row& row) const {
      return std::string_view(arena.data() + row.off, row.len);
    }
  };

 public:
  static DeltaCacheKey KeyFor(const BaseTable& base,
                              const SnapshotDescriptor& desc);
  /// Same base table assumed (group members always share one).
  static bool SameClass(const SnapshotDescriptor& a,
                        const SnapshotDescriptor& b);

  /// True when `desc`'s class image exists and the base table is unchanged
  /// since the epoch that filled it — Serve would be exact.
  bool CanServe(const BaseTable& base, const SnapshotDescriptor& desc) const;

  /// One member of a group serve: its descriptor, SnapTime, output sink,
  /// meters, and where to deposit the final LastQual for the caller's
  /// END_OF_REFRESH message.
  struct ServeTarget {
    const SnapshotDescriptor* desc = nullptr;
    Timestamp snap_time = kNullTimestamp;
    MessageSink* sink = nullptr;
    RefreshStats* stats = nullptr;
    Address* last_qual = nullptr;
  };

  /// Replays the differential streams of a whole group from the class
  /// images, interleaved exactly like the combined scan: address-major,
  /// member-minor (a scan visits each live row once and emits for every
  /// member that needs it, in member order) — so even members sharing one
  /// sink see the byte-identical wire, batching included. Sends ENTRY
  /// messages only; the caller flushes and closes each member with
  /// END_OF_REFRESH, mirroring the scan path. Counts one hit per target
  /// and marks `stats->served_from_cache`. Fails unless CanServe holds for
  /// every target.
  Status ServeGroup(const BaseTable& base, const RefreshExecution& exec,
                    std::vector<ServeTarget>* targets);

  /// Meters one refresh that had to scan (image missing, stale or evicted).
  void CountMiss();

  /// Accumulates one scan's observations for one class. Created by
  /// BeginFill, fed one Observe per live row in address order, committed by
  /// CommitFill (which discards inconsistent fills instead of installing
  /// them).
  class Filler {
   public:
    /// Unpins the class if the fill was abandoned without CommitFill (an
    /// error path, or an epoch fill judged inexact and dropped).
    ~Filler();

    /// Rows whose post-fixup timestamp is <= this (and whose stored
    /// annotations were intact, so no repair fired) are value-unchanged
    /// since the previous image and may be observed with `unchanged=true`,
    /// skipping payload serialization. kNullTimestamp for a first fill:
    /// nothing can be reused.
    Timestamp reuse_floor() const { return floor_; }

    /// One live row, in strictly increasing address order: its post-fixup
    /// timestamp, the class predicate's verdict, and — unless `unchanged` —
    /// its projected payload (required iff qualified; copied, so the caller
    /// may reuse the buffer). `unchanged=true` reuses the payload stored by
    /// the previous image.
    void Observe(Address addr, Timestamp ts, bool qualified, bool unchanged,
                 std::string_view payload);

   private:
    friend class DeltaCache;
    Filler() = default;

    /// The previous image's row at `addr`, or null. Advances the merge
    /// cursor, so successive calls must ask for increasing addresses.
    const Row* SeekPrior(Address addr);

    DeltaCacheKey key_;
    DeltaCache* cache_ = nullptr;       // for the abandon-unpin path
    bool pinned_ = false;               // prior class pinned against eviction
    Timestamp floor_ = kNullTimestamp;  // previous image's epoch upper bound
    Timestamp upper_ = kNullTimestamp;  // this scan's FixupTime
    const Image* prior_ = nullptr;      // previous image, borrowed; may be 0
    size_t cursor_ = 0;                 // merge-walk position in prior_->rows
    Image image_;                       // image under construction
    size_t bytes_ = 0;
    uint64_t changed_ = 0;
    uint64_t reused_ = 0;
    bool failed_ = false;
  };

  /// Starts a fill of `desc`'s class for the epoch ending at `fixup_time`.
  /// The previous image (if any) stays serve-invalid but is retained for
  /// payload reuse until CommitFill replaces it.
  std::unique_ptr<Filler> BeginFill(const BaseTable& base,
                                    const SnapshotDescriptor& desc,
                                    Timestamp fixup_time);

  /// Installs the filled image. `base_tick` is the table's mutation tick
  /// *after* the scan's fix-up repairs were applied — the validity stamp
  /// CanServe compares against. Runs LRU eviction if over budget.
  void CommitFill(std::unique_ptr<Filler> filler, uint64_t base_tick);

  StatsSnapshot Stats() const;
  /// Per-class lines (restriction, bytes, epoch intervals) for \cachestats.
  std::string DebugString() const;
  /// Drops every image (keeps cumulative meters).
  void Clear();

  size_t byte_budget() const { return budget_; }

 private:
  struct Epoch {
    Timestamp lower = kNullTimestamp;  // previous epoch's FixupTime
    Timestamp upper = kNullTimestamp;  // this epoch's FixupTime
    uint64_t rows_changed = 0;
    uint64_t rows_reused = 0;
  };

  struct ClassEntry {
    Image image;
    std::deque<Epoch> epochs;  // newest at the back, ledger only
    uint64_t valid_tick = 0;
    size_t bytes = 0;
    uint64_t last_used = 0;
    uint64_t fill_pins = 0;  // open fills borrowing this image; not evictable
  };

  // Accounting constants: a fixed charge per row (the Row entry plus vector
  // slack, rounded up; budgets are configured in these units), payload bytes
  // on top.
  static constexpr size_t kRowOverhead = 64;
  static constexpr size_t kEpochLedger = 16;  // retained ledger entries

  static size_t KeyBytes(const DeltaCacheKey& key);
  void EvictOverBudget();
  void RemoveClass(std::map<DeltaCacheKey, ClassEntry>::iterator it);
  void UpdateGauges();
  /// Releases an abandoned filler's eviction pin (~Filler).
  void Unpin(const DeltaCacheKey& key);
  StatsSnapshot StatsLocked() const;

  mutable std::mutex mu_;
  size_t budget_;
  uint64_t use_clock_ = 0;
  size_t total_bytes_ = 0;
  std::map<DeltaCacheKey, ClassEntry> classes_;

  // Cumulative per-cache meters (StatsSnapshot) ...
  StatsSnapshot stats_;
  // ... mirrored into the process-wide registry for \metrics / Prometheus.
  obs::Counter* metric_hits_;
  obs::Counter* metric_misses_;
  obs::Counter* metric_fills_;
  obs::Counter* metric_evictions_;
  obs::Counter* metric_aborted_fills_;
  obs::Gauge* metric_bytes_;
  obs::Gauge* metric_classes_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_DELTA_CACHE_H_
