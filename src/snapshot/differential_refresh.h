#ifndef SNAPDIFF_SNAPSHOT_DIFFERENTIAL_REFRESH_H_
#define SNAPDIFF_SNAPSHOT_DIFFERENTIAL_REFRESH_H_

#include "net/channel.h"
#include "obs/trace.h"
#include "snapshot/base_table.h"
#include "snapshot/refresh_types.h"

namespace snapdiff {

/// One member of a group refresh: a snapshot being served, its SnapTime
/// from the refresh request, and where to accumulate its meters.
struct GroupRefreshMember {
  SnapshotDescriptor* desc;
  Timestamp snap_time;
  RefreshStats* stats;
  /// Non-null: this member's messages go through this sink (typically a
  /// RefreshSession stamping session id + per-message seq) instead of the
  /// shared exec.session/channel stream, each member batching
  /// independently. Null keeps the legacy shared single-stream framing.
  MessageSink* sink = nullptr;
};

/// The paper's differential snapshot refresh: one sequential scan of the
/// base table that (a) repairs the $PREVADDR$/$TIMESTAMP$ annotations left
/// NULL by lazily maintained base operations (Figure 7's BaseFixup) and
/// (b) transmits exactly the entries the Figure 3 BaseRefresh rule selects:
///
///   * a qualified entry is sent when its (fixed-up) TimeStamp > SnapTime,
///     or when a deletion/unqualified-update was observed since the last
///     qualified entry; each ENTRY message carries the address of the
///     previous qualified entry so the snapshot purges the gap;
///   * an unqualified entry with TimeStamp > SnapTime raises the Deletion
///     flag (it may have qualified before its modification);
///   * the scan closes with END_OF_REFRESH(LastQual, new SnapTime), which
///     also covers deletions at the end of the table.
///
/// The caller must have admitted the refresh for the table (no other
/// refresh of it may run: the fix-up writes).
/// Works for both kLazy (fix-up active) and kEager (fix-up finds nothing to
/// repair) annotation modes; fails for kNone.
///
/// Each member's `snap_time` is the SnapTime from its refresh request; the
/// new SnapTime (= the fix-up timestamp) closes every member's stream.
/// `tracer`, when given, receives nested spans (scan+transmit,
/// fixup-writes, end-of-refresh; the parallel path replaces scan+transmit
/// with partition-extract and merge+transmit) under the caller's current
/// phase.
///
/// `exec` selects the execution strategy. With `workers > 1` (and a pool)
/// address-range partitions are scanned in parallel: each worker runs the
/// Figure 3/7 machines over its partition, and a single-threaded merge
/// settles only what a worker cannot know — the rows before its chain
/// state is pinned, and each member's first send there — so the emitted
/// message stream is byte-identical to the sequential scan. With
/// `batch_size > 1` consecutive ENTRY messages per snapshot coalesce into
/// ENTRY_BATCH wire messages (see BatchingSender).
///
/// One call refreshes one or more snapshots of the same base table in ONE
/// combined fix-up + transmit scan — the amortization the paper promises ("much of
/// the extra work is amortized over the set of snapshots depending upon
/// the base table"). The fix-up runs once; each member keeps its own
/// Figure-3 transmit state (LastQual, Deletion flag) against its own
/// SnapTime. All members receive the same new SnapTime.
///
/// With `exec.delta_cache` set, every member is replayed from its class
/// image (see snapshot/delta_cache.h): when every image is current the
/// whole group is served from memory — zero base-table reads, one oracle
/// draw, the same byte streams a scan would emit. A stale image is first
/// spliced up to the cut: the pages written since it (TableHeap's page
/// directory) are rescanned with the fix-up chain, the rest are copied
/// from the image, and the spliced image is installed after the fix-ups
/// when no writer interleaved. This path is sequential; `exec.workers`
/// applies to the cache-off scan.
Status ExecuteGroupDifferentialRefresh(BaseTable* base,
                                       std::vector<GroupRefreshMember>*
                                           members,
                                       MessageSink* channel,
                                       obs::Tracer* tracer = nullptr,
                                       const RefreshExecution& exec = {});

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_DIFFERENTIAL_REFRESH_H_
