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
/// subscribers, and lets each later scan read only the pages that changed.
///
/// Each refresh is an *epoch* bounded by its FixupTime. The refresh repairs
/// every annotation (Figure 7), so immediately afterwards each live row
/// carries an exact post-fixup (PrevAddr, TimeStamp) — and the differential
/// stream a fresh rescan would transmit to a subscriber at SnapTime T is a
/// pure function of the live rows' (address, timestamp, qualified,
/// projected payload) sequence. The cache therefore keeps, per snapshot
/// class, that sequence as a *class image*: a flat array of rows sorted by
/// address plus one payload arena, stamped with the base table's
/// mutation tick it describes (`valid_tick`).
///
/// Serving SnapTime T replays the paper's Figure 3 transmit rule over the
/// image — qualified rows send iff TimeStamp > T or a deletion gap is open;
/// unqualified rows with TimeStamp > T raise the Deletion flag — which is
/// byte-for-byte the stream the rescan would emit, for *any* T. A serve is
/// one linear walk of the array; it copies a payload out of the arena only
/// for the rows it sends.
///
/// Every refresh with the cache on runs through a Splice per snapshot
/// class (BeginSplice). A class whose image still holds the table's
/// current tick is *current*: the refresh replays it as is, touching no
/// base page (a hit). Otherwise the image is stale and the refresh splices
/// it up to its epoch cut (a miss and a fill): it reads the heap's page
/// directory (TableHeap::page_stamp), copies the rows, verdicts and
/// payloads of every page stamped at or below the image's tick from the old
/// image, rescans the pages stamped above it, and re-derives the Figure 7
/// chain over the merged sequence — a clean row's stored PrevAddr is its
/// predecessor in the old image and its stored TimeStamp its image stamp,
/// so the first clean row after a changed run gets its deletion or chain
/// repair without a page read. A class with no usable image is the case
/// where every page is dirty. The replay of a spliced image then emits
/// what the scan would have, and the splice is installed only if no writer
/// interleaved the refresh (CommitSplice); the old image is only read, so
/// an abandoned splice leaves it intact. A splice that copies rows the old
/// image does not hold, or whose addresses do not strictly increase, is
/// discarded at CommitSplice.
///
/// Memory is bounded by a byte budget with LRU class eviction; evicted
/// classes are rebuilt from a full scan, metered ("snapshot.delta_cache.*"
/// counters, flight-recorder spans around serve and splice commit).
///
/// Thread safety: public methods are serialized by an internal mutex, so
/// refreshes of *different* tables (each under its own per-table admission
/// token) may share one cache. A Splice pins its class against eviction
/// until it commits or dies, so its old image may be read without the
/// mutex. Refreshes of the *same* table remain externally serialized
/// (SnapshotSystem's per-table admission), so a pinned image is never
/// replaced mid-refresh.
class DeltaCache {
 public:
  /// `byte_budget` caps the summed image bytes (0 = unbounded).
  explicit DeltaCache(size_t byte_budget = 0);

  struct StatsSnapshot {
    uint64_t hits = 0;             // refreshes replayed without a page read
    uint64_t misses = 0;           // refreshes whose image had to be spliced
    uint64_t fills = 0;            // committed splices
    uint64_t evictions = 0;        // classes dropped by the LRU budget
    uint64_t aborted_fills = 0;    // splices discarded as inconsistent
    uint64_t pages_rescanned = 0;  // pages splices read from the base
    uint64_t pages_reused = 0;     // pages splices copied from old images
    uint64_t classes = 0;          // currently cached classes
    uint64_t epochs = 0;           // ledgered epochs across classes
    uint64_t bytes = 0;            // accounted image bytes
    uint64_t byte_budget = 0;      // 0 = unbounded
  };

 private:
  /// One live row as the differential stream cares about it. Unqualified
  /// rows are kept too: their fresh timestamps raise the Deletion flag.
  /// The projected payload is the image arena's bytes [off, off + len);
  /// empty if unqualified.
  struct Row {
    Address addr;
    Timestamp ts = kNullTimestamp;
    /// The stamp the anchor optimization compares against SnapTime: the
    /// row's stored TimeStamp before this epoch's repairs when its
    /// annotations were intact, else `ts`. Equal to `ts` in every
    /// installed image (the repairs have landed by then).
    Timestamp anchor_ts = kNullTimestamp;
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
  /// since the tick it describes — a replay would be exact.
  bool CanServe(const BaseTable& base, const SnapshotDescriptor& desc) const;

  /// One snapshot class as one refresh replays it: either its current
  /// image, or a new image spliced up to the refresh's cut from the old
  /// one's clean pages and the base's dirty ones. Made by BeginSplice;
  /// pins the class against eviction until CommitSplice or destruction.
  class Splice {
   public:
    ~Splice();

    /// The image holds the table's current tick: nothing to splice.
    bool current() const { return current_; }
    /// An old image can supply clean pages. False for a new class, an
    /// evicted one, or an image of another heap or of a later cut.
    bool has_prior() const { return prior_ != nullptr; }
    /// The tick the old image describes: pages stamped above it changed
    /// since. 0 without an old image (every page is stamped above 0).
    uint64_t prior_tick() const { return prior_tick_; }

    /// The old image's rows on one run of clean pages, and what the Figure
    /// 7 chain needs of them: the first row's stored annotations (its
    /// predecessor in the old image, its image stamp) and the last row's
    /// address. Rows past the first are chain-consistent with their
    /// predecessors, so they need no fix-up.
    struct PriorRun {
      size_t begin = 0;  // index range in the old image
      size_t end = 0;
      Address first;
      Address first_prev;
      Timestamp first_ts = kNullTimestamp;
      Address last;
      bool empty() const { return begin == end; }
    };
    /// The old image's rows on pages [first_page, last_page].
    PriorRun FindPrior(PageId first_page, PageId last_page) const;

    /// Appends `run`'s rows with their verdicts and payloads. Its first row
    /// must be `first` and takes the chain's verdict (ts, anchor_ts); the
    /// rest keep their image stamps.
    void CopyPrior(const PriorRun& run, Address first, Timestamp ts,
                   Timestamp anchor_ts);
    /// Appends one rescanned row: its post-fixup timestamp, its anchor
    /// stamp, the class predicate's verdict and its projected payload
    /// (required iff qualified; copied).
    void Append(Address addr, Timestamp ts, Timestamp anchor_ts,
                bool qualified, std::string_view payload);

   private:
    friend class DeltaCache;
    Splice() = default;

    /// Whether `addr` may follow the rows appended so far.
    bool Ascends(Address addr);
    /// The image to replay: the current one or the spliced one.
    const Image& image() const { return current_ ? *prior_ : next_; }

    DeltaCacheKey key_;
    uint64_t heap_id_ = 0;
    DeltaCache* cache_ = nullptr;
    bool pinned_ = false;                  // class pinned against eviction
    bool current_ = false;
    const Image* prior_ = nullptr;         // old image, borrowed; may be 0
    uint64_t prior_tick_ = 0;
    Timestamp lower_ = kNullTimestamp;     // old image's epoch upper bound
    Timestamp upper_ = kNullTimestamp;     // this refresh's FixupTime
    Image next_;                           // spliced image
    std::vector<size_t> reanchored_;       // rows with anchor_ts != ts
    size_t bytes_ = 0;
    uint64_t rescanned_rows_ = 0;
    uint64_t reused_rows_ = 0;
    bool failed_ = false;
  };

  /// Starts `desc`'s class for one refresh at FixupTime `fixup_time` over a
  /// cut at mutation tick `cut_tick`. The old image (if any, of this heap,
  /// and not newer than the cut) is pinned and borrowed.
  std::unique_ptr<Splice> BeginSplice(const BaseTable& base,
                                      const SnapshotDescriptor& desc,
                                      uint64_t cut_tick, Timestamp fixup_time);

  /// One member of a group serve: its descriptor, SnapTime, output sink,
  /// meters, the image it replays, and where to deposit the final LastQual
  /// for the caller's END_OF_REFRESH message.
  struct ServeTarget {
    const SnapshotDescriptor* desc = nullptr;
    Timestamp snap_time = kNullTimestamp;
    MessageSink* sink = nullptr;
    RefreshStats* stats = nullptr;
    Address* last_qual = nullptr;
    const Splice* image = nullptr;
  };

  /// Replays the differential streams of a whole group from their images,
  /// interleaved exactly like the combined scan: address-major,
  /// member-minor (a scan visits each live row once and emits for every
  /// member that needs it, in member order) — so even members sharing one
  /// sink see the byte-identical wire, batching included. Sends ENTRY
  /// messages only; the caller flushes and closes each member with
  /// END_OF_REFRESH, mirroring the scan path. When every image is current
  /// this is a hit: it counts one per target and marks
  /// `stats->served_from_cache`; otherwise it counts a miss per target
  /// whose image was spliced. An inconsistent splice is not replayed: its
  /// class is dropped (the next refresh rebuilds it from every page) and
  /// the serve fails.
  Status ServeGroup(const RefreshExecution& exec,
                    std::vector<ServeTarget>* targets);

  /// Meters one splice walk: pages read from the base, pages copied.
  void CountPages(uint64_t rescanned, uint64_t reused);

  /// Installs a spliced image as describing mutation tick `base_tick` —
  /// the table's tick *after* the refresh's fix-up repairs. A current
  /// splice installs nothing; an inconsistent one drops its class. Runs
  /// LRU eviction if over budget.
  void CommitSplice(std::unique_ptr<Splice> splice, uint64_t base_tick);

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
    uint64_t rows_changed = 0;         // rows rescanned from the base
    uint64_t rows_reused = 0;          // rows copied from the old image
  };

  struct ClassEntry {
    Image image;
    Image spare;  // the image before, recycled as the next splice's buffers
    std::deque<Epoch> epochs;  // newest at the back, ledger only
    uint64_t heap_id = 0;      // the heap whose clock valid_tick reads
    uint64_t valid_tick = 0;
    size_t bytes = 0;
    uint64_t last_used = 0;
    uint64_t pins = 0;  // live splices borrowing this image; not evictable
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
  /// Releases a dead splice's eviction pin (~Splice).
  void Unpin(const DeltaCacheKey& key);
  /// Counts an inconsistent splice and drops its class; requires mu_.
  void AbortLocked(const DeltaCacheKey& key);
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
  obs::Counter* metric_pages_rescanned_;
  obs::Counter* metric_pages_reused_;
  obs::Gauge* metric_bytes_;
  obs::Gauge* metric_classes_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_DELTA_CACHE_H_
