#ifndef SNAPDIFF_WAL_LOG_MANAGER_H_
#define SNAPDIFF_WAL_LOG_MANAGER_H_

#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "wal/log_record.h"
#include "wal/wal_file.h"

namespace snapdiff {

/// The net, committed effect on one base-table entry over a log interval.
struct NetChange {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind;
  Address addr;
  /// Image before the interval (empty when the entry did not exist).
  std::string before;
  /// Image after the interval (empty for kDelete).
  std::string after;
};

/// Cost counters for a culling pass (the paper: "considerable effort will
/// be needed to cull the relevant, committed data from the log").
struct CullStats {
  uint64_t records_scanned = 0;   // every log record in the interval
  uint64_t relevant_records = 0;  // data records of the requested table
  uint64_t bytes_scanned = 0;     // serialized size of scanned records
};

/// An append-only recovery log shared by all tables of a site.
///
/// Besides plain append/scan, it implements the *log-based refresh
/// alternative* the paper weighs against annotation: CollectCommittedChanges
/// walks the interval (from_lsn, end], keeps only records of committed
/// transactions touching one table, and coalesces multiple changes to the
/// same address into a net change.
///
/// Thread safety: all methods are internally serialized by one mutex, so
/// writers of different tables (each under its own BaseTable mutation lock)
/// can append concurrently while a lock-free refresh culls or truncates.
/// Records live in a deque, so the pointers Get()/Scan() hand out stay
/// valid across concurrent appends; they are still invalidated by
/// Truncate(), which only runs quiesced (restart recovery, checkpoints).
class LogManager {
 public:
  LogManager();

  /// Appends a record, assigning its LSN (returned). LSNs start at 1.
  Lsn Append(LogRecord record);

  /// Convenience wrappers.
  Lsn LogBegin(TxnId txn);
  Lsn LogCommit(TxnId txn);
  Lsn LogAbort(TxnId txn);
  Lsn LogInsert(TxnId txn, TableId table, Address addr, std::string after);
  Lsn LogUpdate(TxnId txn, TableId table, Address addr, std::string before,
                std::string after);
  Lsn LogDelete(TxnId txn, TableId table, Address addr, std::string before);

  /// Physiological redo wrappers (restart recovery; images are *stored*
  /// bytes, annotations included).
  Lsn LogPageInsert(TxnId txn, TableId table, Address addr, std::string after);
  Lsn LogPageUpdate(TxnId txn, TableId table, Address addr, std::string before,
                    std::string after);
  Lsn LogPageDelete(TxnId txn, TableId table, Address addr,
                    std::string before);
  Lsn LogAllocPage(TxnId txn, TableId table, PageId page);
  Lsn LogPageImage(PageId page, std::string image);
  Lsn LogCheckpoint(std::string payload);

  /// Attaches the durable sink: every Append is also framed into `sink`'s
  /// pending buffer; Sync() makes the appended prefix durable. Pass nullptr
  /// for a purely in-memory log (the default; memory-backed sites).
  void AttachSink(WalFile* sink) {
    std::lock_guard<std::mutex> lock(mu_);
    sink_ = sink;
  }
  WalFile* sink() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sink_;
  }

  /// Syncs the durable sink (no-op without one). Called after each
  /// autocommit operation before it is acknowledged, and by checkpoints.
  Status Sync();

  /// Rebuilds the in-memory log from recovered records (restart). The
  /// records must have contiguous LSNs; the first record's LSN becomes the
  /// base, so a compacted WAL restores with its original numbering.
  Status RestoreFrom(std::vector<LogRecord> records);

  /// The LSN of the most recent record (kInvalidLsn when empty).
  Lsn LastLsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return base_lsn_ + records_.size();
  }

  /// LSNs at or below this are gone from the in-memory log (a compacted
  /// restore or Truncate).
  Lsn base_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return base_lsn_;
  }

  /// The record at `lsn` (1-based).
  Result<const LogRecord*> Get(Lsn lsn) const;

  /// All records with lsn in (from_lsn, LastLsn()].
  std::vector<const LogRecord*> Scan(Lsn from_lsn) const;

  /// Culls committed changes to `table` from the interval (from_lsn,
  /// LastLsn()], coalescing per address:
  ///   insert + ... + delete  → (nothing)
  ///   insert + updates       → kInsert with the final image
  ///   updates                → kUpdate with first before / last after
  ///   updates + delete       → kDelete with the first before image
  /// Changes of uncommitted or aborted transactions are ignored. The result
  /// is keyed (and therefore ordered) by address. `end_lsn` bounds the
  /// interval to (from_lsn, end_lsn] — the log-based executor passes its
  /// epoch's cut LSN so concurrent writers committing past the cut are
  /// excluded; kInvalidLsn means "through the end of the log".
  Result<std::map<Address, NetChange>> CollectCommittedChanges(
      TableId table, Lsn from_lsn, CullStats* stats = nullptr,
      Lsn end_lsn = kInvalidLsn) const;

  /// Drops records with lsn <= up_to (log-space reclamation once every
  /// dependent snapshot has refreshed past them): their deque slots are
  /// freed and base_lsn() advances to the last dropped LSN. Truncated LSNs
  /// stay assigned — Get() on them fails with NotFound, a cull starting
  /// before them fails with OutOfRange, and the next Append continues from
  /// LastLsn(). Invalidates pointers to the dropped records only.
  void Truncate(Lsn up_to);

  /// Number of retained (non-truncated) records.
  size_t retained_records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  /// Bytes held by retained records — the buffering cost the paper worries
  /// about ("considerable space ... to recoverably buffer changes").
  size_t retained_bytes() const;

 private:
  mutable std::mutex mu_;
  std::deque<LogRecord> records_;   // index i holds lsn base_lsn_ + i + 1
  Lsn base_lsn_ = 0;                // lsns <= base_lsn_ truncated away
  WalFile* sink_ = nullptr;         // not owned; durable frame sink
  obs::Counter* metric_records_;
  obs::Counter* metric_bytes_;
  obs::Counter* metric_culls_;
  obs::Counter* metric_cull_records_scanned_;
  obs::Counter* metric_truncations_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_WAL_LOG_MANAGER_H_
