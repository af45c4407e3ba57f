#ifndef SNAPDIFF_SNAPSHOT_BASE_TABLE_H_
#define SNAPDIFF_SNAPSHOT_BASE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tuple_view.h"
#include "txn/timestamp_oracle.h"
#include "wal/log_manager.h"

namespace snapdiff {

class SecondaryIndex;

/// How the funny annotation columns are maintained by base-table mutators.
enum class AnnotationMode {
  /// No annotation columns; only full refresh is possible.
  kNone,
  /// §"Associating Empty Regions with Actual Entries": inserts and deletes
  /// synchronously repair the successor's PrevAddr/TimeStamp. Base
  /// operations pay; refresh is a pure read scan.
  kEager,
  /// §"Batch Maintenance" (the paper's recommendation): mutators only write
  /// NULLs; the combined fix-up + refresh scan repairs annotations at
  /// refresh time, detecting deletions as PrevAddr-chain anomalies.
  kLazy,
};

std::string_view AnnotationModeToString(AnnotationMode mode);

/// Extra work charged to base-table operations for snapshot support — the
/// cost axis of the eager-vs-lazy ablation (bench_base_op_overhead).
struct AnnotationMaintenanceStats {
  uint64_t successor_searches = 0;  // NextLiveAfter/PrevLiveBefore scans
  uint64_t extra_entry_writes = 0;  // neighbour rows rewritten
  uint64_t extra_entry_reads = 0;   // neighbour rows read
};

/// A change observer (ASAP propagation hook). Callbacks fire after the
/// heap mutation succeeds; `before`/`after` are user-level tuples.
class TableObserver {
 public:
  virtual ~TableObserver() = default;

  virtual void OnInsert(Address addr, const Tuple& after) = 0;
  virtual void OnUpdate(Address addr, const Tuple& before,
                        const Tuple& after) = 0;
  virtual void OnDelete(Address addr, const Tuple& before) = 0;
};

/// An updatable table that transparently maintains the differential-refresh
/// annotations ($PREVADDR$, $TIMESTAMP$) behind a user-schema interface,
/// writes full before/after images to the WAL (when attached), and notifies
/// observers.
///
/// A row read through `ReadUserRow` never exposes the funny columns, just
/// as R* hides them from user queries.
///
/// Thread safety: mutators (Insert, Update, Delete, WriteAnnotations*) are
/// serialized by an internal mutation lock, so concurrent writer threads
/// are safe against each other. Refresh scans do NOT take that lock — they
/// read a copy-on-write epoch (OpenEpoch + ScanAnnotatedAtEpoch) and apply
/// fix-ups through the conditional WriteAnnotationsIf, so writers never
/// block on a refresh for longer than one page latch.
class BaseTable {
 public:
  /// A stored row split into its user part and its annotations.
  struct AnnotatedRow {
    Tuple user;
    Address prev_addr;    // Address::Null() encodes SQL NULL
    Timestamp timestamp;  // kNullTimestamp encodes SQL NULL
  };

  /// The zero-copy counterpart of AnnotatedRow: the user part is a
  /// TupleView over the stored bytes (which alias a pinned buffer-pool
  /// frame) and the funny columns are decoded in place. Valid only for
  /// the lifetime of the underlying pin — inside a ScanAnnotated callback
  /// or while a TupleRef guard is held.
  struct AnnotatedView {
    TupleView user;
    Address prev_addr;    // Address::Null() encodes SQL NULL
    Timestamp timestamp;  // kNullTimestamp encodes SQL NULL
    /// The full stored-row bytes the view was split from (user columns +
    /// annotations). Same lifetime as `user`. Epoch refreshes capture it
    /// for rows whose fix-up needs an identity check (see
    /// WriteAnnotationsIf).
    std::string_view raw;
  };

  /// `info` must already carry the annotation columns when `mode` is not
  /// kNone. `wal` may be null (no logging).
  BaseTable(TableInfo* info, AnnotationMode mode, TimestampOracle* oracle,
            LogManager* wal);
  ~BaseTable();

  BaseTable(const BaseTable&) = delete;
  BaseTable& operator=(const BaseTable&) = delete;

  /// Inserts a user row "into some empty address" chosen by the heap's
  /// placement policy. Annotations per mode: eager repairs the successor;
  /// lazy stores NULLs.
  Result<Address> Insert(const Tuple& user_row);

  /// Rewrites the user fields in place. Eager: TimeStamp := now; lazy:
  /// TimeStamp := NULL. PrevAddr is preserved either way.
  Status Update(Address addr, const Tuple& user_row);

  /// Deletes the row. Eager: the successor inherits the deleted row's
  /// PrevAddr and gets TimeStamp := now. Lazy: "unaffected by the
  /// snapshots — the base table entry is simply deleted".
  Status Delete(Address addr);

  Result<Tuple> ReadUserRow(Address addr);
  Result<AnnotatedRow> ReadAnnotated(Address addr);

  /// Splits stored rows into a user-schema TupleView plus decoded
  /// annotations, with the annotation slots the table bound at
  /// construction or its last SetMode: each row is parsed once and no
  /// column name is looked up per row. Make one per scan — SetMode
  /// reassigns the schemas it reads in place.
  class RowSplitter {
   public:
    Result<AnnotatedView> operator()(std::string_view bytes) const;

   private:
    friend class BaseTable;
    RowSplitter(const Schema* stored, const Schema* user)
        : stored_(stored), user_(user) {}

    const Schema* stored_;
    const Schema* user_;
    bool annotated_ = false;
    size_t prev_index_ = 0;  // $TIMESTAMP$ follows at prev_index_ + 1
  };
  RowSplitter Splitter() const;

  /// Splits one stored row (pinned by the caller) into a user-schema
  /// TupleView plus decoded annotations — no materialization. Scans use a
  /// Splitter() made once instead.
  Result<AnnotatedView> SplitStoredView(std::string_view bytes) const {
    return Splitter()(bytes);
  }

  /// Visits live rows in address order with their annotations, handing
  /// each one to `fn(Address, const AnnotatedView&)`. The view (and
  /// everything obtained from it) aliases a page pinned only for the
  /// duration of the callback — materialize what must outlive it. Writing
  /// to this table from inside `fn` is not allowed (the refresh executors
  /// defer fix-up writes until after the scan).
  template <typename Fn>
  Status ScanAnnotated(Fn&& fn) {
    const RowSplitter split = Splitter();
    return info_->heap->ForEach(
        [&](Address addr, std::string_view bytes) -> Status {
          ASSIGN_OR_RETURN(AnnotatedView row, split(bytes));
          return fn(addr, row);
        });
  }

  /// A contiguous run of the heap's pages, scanned by one refresh worker.
  struct ScanPartition {
    size_t first_page = 0;
    size_t page_count = 0;
  };

  /// Splits the table into at most `max_partitions` contiguous page runs of
  /// near-equal size. Addresses are (page, slot) pairs ordered by page, so
  /// page boundaries are exact address-range boundaries: concatenating the
  /// partitions' rows in order reproduces the ScanAnnotated order. Returns
  /// fewer runs when the table has fewer pages than `max_partitions`.
  std::vector<ScanPartition> Partition(size_t max_partitions) const;

  /// ScanAnnotated restricted to one partition. Read-only; safe to call
  /// concurrently from multiple threads (storage below is latched). Same
  /// view-lifetime rules as ScanAnnotated.
  template <typename Fn>
  Status ScanAnnotatedRange(const ScanPartition& part, Fn&& fn) {
    const RowSplitter split = Splitter();
    return info_->heap->ForEachInPageRange(
        part.first_page, part.page_count,
        [&](Address addr, std::string_view bytes) -> Status {
          ASSIGN_OR_RETURN(AnnotatedView row, split(bytes));
          return fn(addr, row);
        });
  }

  /// Opens a consistent copy-on-write scan epoch over this table: the page
  /// list, mutation tick, and WAL position are captured atomically with
  /// respect to the mutation lock, so the epoch describes one instant.
  /// Writers proceed concurrently; the first touch of a frozen page clones
  /// its pre-image into the epoch (see TableEpoch).
  std::shared_ptr<TableEpoch> OpenEpoch();

  /// ScanAnnotated against an epoch's cut instead of the live heap: visits
  /// exactly the rows (and bytes) that were live when the epoch opened,
  /// while writers keep mutating. Same view-lifetime rules as ScanAnnotated.
  template <typename Fn>
  Status ScanAnnotatedAtEpoch(const TableEpoch& epoch, Fn&& fn) {
    const RowSplitter split = Splitter();
    return epoch.ForEach(
        [&](Address addr, std::string_view bytes) -> Status {
          ASSIGN_OR_RETURN(AnnotatedView row, split(bytes));
          return fn(addr, row);
        });
  }

  /// ScanAnnotatedRange against an epoch's cut (the differential scan's
  /// shape; partitions must come from PartitionEpoch).
  template <typename Fn>
  Status ScanAnnotatedRangeAtEpoch(const TableEpoch& epoch,
                                   const ScanPartition& part, Fn&& fn) {
    const RowSplitter split = Splitter();
    return epoch.ForEachInPageRange(
        part.first_page, part.page_count,
        [&](Address addr, std::string_view bytes) -> Status {
          ASSIGN_OR_RETURN(AnnotatedView row, split(bytes));
          return fn(addr, row);
        });
  }

  /// Partition() over an epoch's frozen page list (pages allocated after
  /// the cut are excluded, matching what ScanAnnotatedAtEpoch visits).
  std::vector<ScanPartition> PartitionEpoch(const TableEpoch& epoch,
                                            size_t max_partitions) const;

  /// Rewrites one row's annotations, keeping the user fields (fix-up
  /// primitive; also exercised by fault-injection tests).
  Status WriteAnnotations(Address addr, Address prev_addr, Timestamp ts);

  /// Conditional fix-up for lock-free refresh: writes (prev_addr, ts) only
  /// if the row still exists and its stored annotations equal
  /// (expect_prev, expect_ts) — i.e. no writer touched the row since the
  /// refresh's epoch cut. Otherwise the fix-up is skipped (`*applied` =
  /// false) and deliberately *lost*: a lazy-mode writer NULLed the
  /// timestamp when it touched the row, so the next refresh re-repairs it;
  /// an eager-mode writer repaired the chain itself. Runs under the
  /// mutation lock plus the page latch, so it is atomic against writers.
  ///
  /// When expect_ts is NULL the annotations alone cannot identify the row:
  /// a post-cut delete + slot reuse reproduces (NULL, NULL), and a post-cut
  /// lazy update reproduces (prev, NULL) — stamping either would hide a
  /// changed row from the next refresh behind a pre-SnapTime timestamp.
  /// `expect_bytes`, when non-empty, must then equal the live stored-row
  /// bytes exactly (the image the scan saw at the cut) for the fix-up to
  /// apply. Rows with a non-NULL stored timestamp need no byte check:
  /// timestamps are unique oracle draws, so no post-cut writer can
  /// reproduce them.
  Status WriteAnnotationsIf(Address addr, Address expect_prev,
                            Timestamp expect_ts, std::string_view expect_bytes,
                            Address prev_addr, Timestamp ts, bool* applied);

  void AddObserver(TableObserver* observer);
  void RemoveObserver(TableObserver* observer);

  /// Creates (and thereafter maintains) a secondary index on a user
  /// column. Full refresh uses it automatically when the restriction
  /// reduces to a range over the indexed column.
  Result<SecondaryIndex*> CreateSecondaryIndex(const std::string& column);

  /// The index on `column`, or nullptr.
  SecondaryIndex* FindSecondaryIndex(const std::string& column) const;

  Status DropSecondaryIndex(const std::string& column);

  TableInfo* info() const { return info_; }
  const Schema& stored_schema() const { return info_->schema; }
  const Schema& user_schema() const { return user_schema_; }
  AnnotationMode mode() const { return mode_; }
  TimestampOracle* oracle() const { return oracle_; }
  LogManager* wal() const { return wal_; }
  uint64_t live_rows() const { return info_->heap->live_tuples(); }

  /// Bumped by every mutation of this table — user writes (Insert, Update,
  /// Delete), annotation repairs and mode changes alike: the heap's change
  /// clock, on which every page's directory stamp is taken
  /// (TableHeap::page_stamp). The delta cache stamps each class image with
  /// the tick it describes; it replays the image as is while the tick is
  /// unchanged and otherwise rescans only the pages stamped above it.
  uint64_t mutation_tick() const { return info_->heap->clock(); }

  /// Transaction-id high-water mark. Restart recovery bumps it past every
  /// id found in the recovered WAL so new autocommit brackets never collide
  /// with (possibly rolled-back) pre-crash transactions.
  TxnId next_txn() const { return next_txn_; }
  void set_next_txn(TxnId txn) { next_txn_ = txn; }

  /// Switches maintenance mode. Used when the first differential snapshot
  /// is created on a previously annotation-free table (the schema must
  /// already have been extended via Catalog::AddAnnotationColumns; this
  /// rebinds the write path and the scans to the grown layout).
  Status SetMode(AnnotationMode mode);

  const AnnotationMaintenanceStats& maintenance_stats() const {
    return maintenance_stats_;
  }
  void ResetMaintenanceStats() {
    maintenance_stats_ = AnnotationMaintenanceStats{};
  }

  /// The names of the user columns, in order (the default projection).
  std::vector<std::string> UserColumnNames() const;

 private:
  /// Resolves the user schema and the annotation slots from the stored
  /// schema: once at construction and again at each SetMode, so no write
  /// or scan looks a column up by name.
  void BindLayout();

  /// Builds the stored tuple = user values + (prev, ts).
  Tuple MakeStored(const Tuple& user_row, Address prev, Timestamp ts) const;

  /// Splits a stored tuple into user part + annotations.
  AnnotatedRow SplitStored(const Tuple& stored) const;

  /// Opens / closes the autocommit transaction bracket around one mutator.
  /// While a bracket is open, WriteAnnotations logs its redo record under
  /// the same transaction (eager successor repairs commit atomically with
  /// the triggering op). Commit syncs the WAL before the op is acked.
  TxnId BeginAutocommit();
  Status CommitAutocommit(TxnId txn, LogRecordType logical_type, Address addr,
                          std::string before, std::string after);

  /// Copies the raw stored bytes at `addr` (redo/undo images).
  Result<std::string> RawBytes(Address addr);

  /// WriteAnnotations body; requires mutate_mu_ held (mutators repairing
  /// successors already hold it).
  Status WriteAnnotationsLocked(Address addr, Address prev_addr, Timestamp ts);

  TableInfo* info_;
  AnnotationMode mode_;
  TimestampOracle* oracle_;
  LogManager* wal_;
  Schema user_schema_;
  bool annotated_ = false;  // stored schema carries $PREVADDR$/$TIMESTAMP$
  size_t prev_index_ = 0;   // $TIMESTAMP$ follows at prev_index_ + 1
  std::vector<TableObserver*> observers_;
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_;
  AnnotationMaintenanceStats maintenance_stats_;
  // Serializes all mutators (heap write, WAL bracket, index/observer
  // updates form one atomic unit against other writers). Refresh scans do
  // not take it — they read epochs; only the conditional fix-up does.
  // Lock order: mutate_mu_ -> page latch -> LogManager::mu_.
  mutable std::mutex mutate_mu_;
  TxnId next_txn_ = 1;
  TxnId active_txn_ = 0;  // open autocommit bracket (0 = none)
};

/// Verifies the repaired-annotation invariant: every live row's $PREVADDR$
/// equals the address of the previous live row (Origin for the first) and
/// no NULL annotations remain. Holds immediately after a differential
/// refresh (any mode) and at all times under eager maintenance with no
/// pre-annotation rows. Quiescence is the caller's responsibility.
Status ValidateAnnotationChain(BaseTable* table);

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_BASE_TABLE_H_
