#ifndef SNAPDIFF_SNAPSHOT_REFRESH_TYPES_H_
#define SNAPDIFF_SNAPSHOT_REFRESH_TYPES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "expr/expr.h"
#include "net/channel.h"
#include "net/refresh_session.h"

namespace snapdiff {

class ThreadPool;
class DeltaCache;   // snapshot/delta_cache.h
class TableEpoch;   // storage/table_heap.h

/// Execution knobs shared by the refresh executors. The defaults reproduce
/// the paper's single-threaded, unbatched pipeline exactly; turning either
/// knob changes how the work is performed and framed but never which
/// entries are transmitted (see DESIGN.md "Parallel refresh & batching").
struct RefreshExecution {
  /// Base-table scan partitions processed concurrently. Values > 1 require
  /// `pool`: each worker runs the Figure 3/7 scan over its partition, and a
  /// single-threaded merge settles only what a worker cannot know — its
  /// partition's head rows and each member's first send there — so the
  /// message stream is identical to a sequential scan.
  size_t workers = 1;
  /// Borrowed pool that runs the partition scans (required iff workers > 1).
  ThreadPool* pool = nullptr;
  /// Maximum entries coalesced into one ENTRY_BATCH message; <= 1 disables
  /// batching and keeps the wire stream byte-identical to the unbatched
  /// protocol.
  size_t batch_size = 1;
  /// Non-null: transmit through this resumable session (stamps session id +
  /// sequence numbers, suppresses the already-applied prefix on a resumed
  /// attempt). Null: send session-less, directly on the channel.
  RefreshSession* session = nullptr;
  /// Non-null: the epoch delta cache consulted before the differential scan
  /// (a refresh whose class image is current is served from memory, zero
  /// base reads) and filled as a side effect of every scan that does run.
  /// See snapshot/delta_cache.h. Null disables caching entirely.
  DeltaCache* delta_cache = nullptr;
  /// Non-null: the copy-on-write scan epoch this refresh reads. The scan
  /// visits exactly the rows live at the epoch's cut (writers proceed
  /// concurrently, cloning touched pages into the epoch), and fix-ups go
  /// through BaseTable::WriteAnnotationsIf so repairs race-condition-free
  /// skip rows a writer has since touched. Null: scan the live heap
  /// directly (legacy quiesced path; identical when no writers run).
  std::shared_ptr<TableEpoch> epoch;
};

/// True when the next message an executor sends is certain to be
/// suppressed by a resumed session, so building its payload would be pure
/// waste. Exact only on the unbatched single-stream path: batching
/// serializes ahead of the send order, so it stays conservative and never
/// elides. Partition workers build their payloads before the send order is
/// known; the merge asks at send time and drops a suppressed one.
inline bool NextSendSuppressed(const RefreshExecution& exec) {
  return exec.session != nullptr && exec.batch_size <= 1 &&
         exec.session->NextSuppressed();
}

/// Retry behaviour of SnapshotSystem::Refresh when the transmission fails
/// (link partitioned) or completes with losses (messages dropped in
/// flight). Backoff is simulated time: attempt k waits
/// min(initial_backoff_ticks · 2^(k-1), max_backoff_ticks) virtual ticks,
/// advanced on the site link via Channel::AdvanceTime — deterministic, no
/// wall clock, and exactly what FaultPlan::WithHealAfter listens to.
struct RetryPolicy {
  /// Additional attempts after the first (0 = the paper's "simply retry
  /// later": fail fast and let the caller re-demand).
  uint64_t max_retries = 0;
  uint64_t initial_backoff_ticks = 1;
  uint64_t max_backoff_ticks = 64;
  /// Resume from the applied prefix (true) or retransmit from scratch
  /// (false; ablation + methods without deterministic streams).
  bool resume = true;

  /// The backoff before retry `k` (1-based).
  uint64_t BackoffTicks(uint64_t k) const;
};

/// How a snapshot's contents are brought up to date.
enum class RefreshMethod {
  /// Re-transmit every qualified entry; snapshot is cleared first.
  kFull,
  /// The paper's contribution: annotation-driven differential refresh
  /// (single combined fix-up + transmit scan over a scan epoch).
  kDifferential,
  /// Oracle baseline: transmit exactly the net changes (old/new values kept
  /// by a measurement-only shadow on the base site).
  kIdeal,
  /// The log-buffering alternative: cull committed changes from the WAL.
  kLogBased,
  /// As-soon-as-possible propagation: changes stream at base-update time;
  /// refresh merely drains the channel and stamps the snapshot.
  kAsap,
};

std::string_view RefreshMethodToString(RefreshMethod method);

/// Everything the base site needs to serve one snapshot, bound once at
/// CREATE SNAPSHOT time (the analogue of R*'s compiled refresh plan).
struct SnapshotDescriptor {
  SnapshotId id = 0;
  std::string name;
  RefreshMethod method = RefreshMethod::kDifferential;
  /// The SnapRestrict predicate over the base table's user columns.
  ExprPtr restriction;
  std::string restriction_text;
  /// Projected user columns, in snapshot column order.
  std::vector<std::string> projection;

  /// The paper closes with "the reader is invited to discover improvements
  /// which reduce the message traffic". This one: a qualified entry that is
  /// transmitted *only* because the Deletion flag is set (its own TimeStamp
  /// is not newer than SnapTime) must already be present in the snapshot
  /// with its current value — so its ENTRY message can omit the payload and
  /// act purely as a gap-deletion anchor. Saves payload bytes; message
  /// count is unchanged.
  bool anchor_optimization = false;

  /// --- per-method base-site state ---
  /// kIdeal: qualified projection as of the last refresh
  /// (BaseAddr → serialized projected tuple).
  std::map<Address, std::string> ideal_shadow;
  /// kLogBased: WAL position of the last refresh.
  Lsn last_refresh_lsn = 0;

  /// --- in-flight refresh outcome, committed only on session completion ---
  /// The executors stage their per-method state advance here instead of
  /// committing it themselves: with lossy delivery an executor can finish
  /// sending while the END message never arrives, and committing then would
  /// make the retry's re-run emit a *different* (empty) stream, breaking
  /// resume-by-sequence-number. SnapshotSystem::AcknowledgeServe commits
  /// the staged values once the snapshot site confirms the END applied.
  std::optional<std::map<Address, std::string>> pending_ideal_shadow;
  std::optional<Lsn> pending_refresh_lsn;
};

/// Counters for one refresh operation, merging base-site scan work, channel
/// traffic, and snapshot-site apply work.
struct RefreshStats {
  // Base-site costs.
  uint64_t entries_scanned = 0;  // live base entries visited
  uint64_t base_reads = 0;       // entry reads beyond the scan (eager mode)
  uint64_t base_writes = 0;      // annotation fix-up writes
  uint64_t fixups_inserted = 0;  // entries repaired as "inserted"
  uint64_t fixups_updated = 0;   // entries repaired as "updated"
  uint64_t fixups_deleted = 0;   // PrevAddr anomalies (deletion detected)
  uint64_t fixups_skipped = 0;   // epoch fix-ups dropped (writer won the row)
  uint64_t log_records_culled = 0;  // kLogBased: records scanned in the WAL
  bool fell_back_to_full = false;   // kLogBased after log truncation
  uint64_t anchor_messages = 0;     // payload-free ENTRY messages sent
  bool served_from_cache = false;   // delta-cache hit: no base scan at all

  // Channel traffic (delta over this refresh).
  ChannelStats traffic;

  // Snapshot-site apply work.
  uint64_t snap_upserts = 0;
  uint64_t snap_inserts = 0;  // subset of upserts that created a row
  uint64_t snap_deletes = 0;

  Timestamp new_snap_time = kNullTimestamp;

  /// Data messages sent — the y-axis unit of Figures 8 and 9.
  uint64_t data_messages() const {
    return traffic.entry_messages + traffic.delete_messages;
  }

  std::string ToString() const;
};

/// Everything one refresh call needs, bundled: the snapshot, an optional
/// per-call method override, execution-knob overrides, the retry policy,
/// and an optional fault to inject on the site link (chaos testing): the
/// argument of SnapshotSystem::Refresh.
struct RefreshRequest {
  /// The defaults-only request.
  static RefreshRequest For(std::string snapshot) {
    RefreshRequest r;
    r.snapshot = std::move(snapshot);
    return r;
  }

  std::string snapshot;

  /// Per-call method override. Must be the snapshot's own method or kFull
  /// (every snapshot can be rebuilt by full re-transmission; switching
  /// between incremental methods would desynchronize their per-method
  /// base-site state). Join snapshots accept only kFull.
  std::optional<RefreshMethod> method;

  /// Override SnapshotSystemOptions::refresh_workers / refresh_batch_size
  /// for this call (nullopt = system default).
  std::optional<size_t> workers;
  std::optional<size_t> batch_size;

  RetryPolicy retry;

  /// Armed on the snapshot site's link immediately before the first
  /// transmission attempt and healed when the call returns — a scripted
  /// per-request fault window.
  std::optional<FaultPlan> fault;

  /// Test hook: invoked once, immediately after the refresh's scan epoch is
  /// opened (the cut is fixed) and before the first base page is read. The
  /// concurrency property tests use it to unleash writer threads whose
  /// mutations must then be invisible to this refresh's stream.
  std::function<void()> on_epoch_open;
};

/// What one refresh call did: the per-refresh meters plus the session's
/// retry/resume story.
struct RefreshReport {
  RefreshStats stats;
  /// Wire-level session identity (0 for join snapshots — their streams are
  /// session-less).
  uint64_t session_id = 0;
  uint64_t attempts = 1;
  uint64_t retries = 0;
  /// Attempts that fast-forwarded past an already-applied prefix.
  uint64_t resumes = 0;
  /// Messages suppressed by resume across all attempts — work the protocol
  /// saved versus from-scratch retries.
  uint64_t suppressed_messages = 0;
  /// Total simulated backoff (Channel::AdvanceTime ticks).
  uint64_t backoff_ticks = 0;
  /// Name of the obs::Tracer trace covering this call.
  std::string trace_id;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_REFRESH_TYPES_H_
