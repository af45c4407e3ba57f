#include "snapshot/differential_refresh.h"

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "snapshot/delta_cache.h"

namespace snapdiff {

namespace {

/// Per-member transmit state (Figure 3) with the member's restriction and
/// projection bound to user-schema column indices once per refresh, so
/// per-row evaluation and payload serialization never look a name up.
struct MemberState {
  GroupRefreshMember member;
  BoundExpression restriction;
  std::vector<size_t> projection_indices;
  Address last_qual = Address::Origin();
  bool deletion = false;
};

/// A buffered annotation repair. Repairs are applied after the scan so the
/// scan iterator never observes its own writes. (R* interleaves them; the
/// observable result is identical because the scan reads each entry once.)
/// On the epoch path, `expect_prev`/`expect_ts` carry the annotations the
/// scan observed at the cut: the repair applies only while they still hold
/// on the live row (WriteAnnotationsIf), so a concurrent writer's change is
/// never clobbered and a skipped repair is re-derived by the next refresh.
struct PendingWrite {
  Address addr;
  Address prev;
  Timestamp ts;
  Address expect_prev;
  Timestamp expect_ts;
  /// Epoch path, NULL-timestamp rows only: the full stored image at the
  /// cut. Annotations alone cannot identify such a row (a post-cut
  /// reinsert or update reproduces them), so the conditional repair also
  /// demands byte identity. Empty otherwise — no copy on the common path.
  std::string expect_bytes;
};

/// Whether a repair of a row whose scan-time annotations were
/// (stored_prev, stored_ts) needs the byte-identity guard.
inline bool RepairNeedsImage(Timestamp stored_ts) {
  return stored_ts == kNullTimestamp;
}

/// Figure 7 chain state, shared across the whole table scan. This is the
/// state that makes the transmit scan inherently sequential: every row's
/// fix-up verdict depends on its predecessors.
struct FixupState {
  Timestamp fixup_time;
  Address expect_prev = Address::Origin();
  Address last_addr = Address::Origin();
};

/// What BaseFixup decided for one row: the fixed-up annotations plus which
/// repair category (if any) fired.
struct FixupResult {
  Address prev;
  Timestamp ts;
  bool inserted = false;
  bool updated = false;
  bool deleted = false;
  bool write_needed = false;
};

/// BaseFixup (Figure 7) for one row. Runs unconditionally: with eager
/// maintenance the chain is already consistent and nothing fires, which is
/// exactly the eager-vs-lazy cost difference the ablation measures. It also
/// heals rows that predate the annotation columns (NULL everywhere).
FixupResult FixupRow(FixupState* fx, Address addr, Address stored_prev,
                     Timestamp stored_ts) {
  FixupResult r;
  r.prev = stored_prev;
  r.ts = stored_ts;
  if (stored_prev.IsNull()) {
    // Inserted since the last fix-up.
    r.prev = fx->last_addr;
    r.ts = fx->fixup_time;
    r.inserted = true;
    r.write_needed = true;
    // ExpectPrev deliberately not advanced: it tracks the last
    // non-newly-inserted entry (Figure 7).
  } else {
    if (r.ts == kNullTimestamp) {
      // Updated since the last fix-up.
      r.ts = fx->fixup_time;
      r.updated = true;
      r.write_needed = true;
    }
    if (r.prev != fx->expect_prev) {
      // One or more entries deleted between the current entry and the last
      // non-inserted entry — the PrevAddr-anomaly at the heart of the
      // algorithm.
      r.prev = fx->last_addr;
      r.ts = fx->fixup_time;
      r.deleted = true;
      r.write_needed = true;
    } else if (r.prev != fx->last_addr) {
      // Only newly inserted entries in between: fix the chain without
      // touching the timestamp (no retransmission needed).
      r.prev = fx->last_addr;
      r.write_needed = true;
    }
    fx->expect_prev = addr;
  }
  fx->last_addr = addr;
  return r;
}

/// One step of the Figure 3 transmit state machine, applied to an
/// already-fixed-up row. This is THE transmit rule — the sequential scan,
/// the parallel merge, and (via its image replay) the delta cache all
/// funnel every row through these semantics, which is what makes every
/// path emit identical message streams.
///
/// `qualified_for(i)` answers whether member i's restriction admits the
/// row; `payload_for(i, state)` produces member i's serialized projection
/// and is invoked only when a payload must actually be shipped (so the
/// sequential path stays lazy). Member i's messages go to `senders[i]` —
/// the shared stream unless the member brought its own sink.
template <typename QualFn, typename PayloadFn>
Status ProcessRow(const FixupResult& fix, std::vector<MemberState>* states,
                  const std::vector<BatchingSender*>& senders,
                  const RefreshExecution& exec, Address addr,
                  Address stored_prev, Timestamp stored_ts,
                  QualFn&& qualified_for, PayloadFn&& payload_for) {
  // Pre-repair annotations prove whether the *value* changed (see the
  // anchor optimization): a non-NULL stamp with an intact PrevAddr means
  // any repairs only reacted to neighbourhood changes.
  const bool annotations_intact =
      !stored_prev.IsNull() && stored_ts != kNullTimestamp;

  // --- BaseRefresh transmit rule (Figure 3), per member ---
  for (size_t i = 0; i < states->size(); ++i) {
    MemberState& state = (*states)[i];
    RefreshStats* stats = state.member.stats;
    ++stats->entries_scanned;
    if (fix.inserted) ++stats->fixups_inserted;
    if (fix.updated) ++stats->fixups_updated;
    if (fix.deleted) ++stats->fixups_deleted;

    const SnapshotDescriptor& desc = *state.member.desc;
    const Timestamp snap_time = state.member.snap_time;
    ASSIGN_OR_RETURN(const bool qualified, qualified_for(i));
    if (qualified) {
      if (fix.ts > snap_time || state.deletion) {
        std::string payload;
        const bool value_unchanged =
            annotations_intact && stored_ts <= snap_time;
        if (desc.anchor_optimization && value_unchanged) {
          // Transmitted only to cover the preceding gap: the snapshot
          // already holds this entry's current value, so ship the address
          // alone (SnapshotDescriptor::anchor_optimization).
          ++stats->anchor_messages;
        } else if (!NextSendSuppressed(exec)) {
          ASSIGN_OR_RETURN(payload, payload_for(i, state));
        }
        RETURN_IF_ERROR(senders[i]->Send(
            MakeEntry(desc.id, addr, state.last_qual, std::move(payload))));
      }
      state.last_qual = addr;
      state.deletion = false;
    } else {
      if (fix.ts > snap_time) {
        // "Updated entry ==> may have qualified before update".
        state.deletion = true;
      }
    }
  }
  return Status::OK();
}

/// --- Parallel extraction -------------------------------------------------
///
/// Workers cannot run ProcessRow: the Figure 7 chain (ExpectPrev/LastAddr)
/// and each member's Deletion flag thread through every row in address
/// order. What workers CAN do is everything per-row and expensive: fetch
/// the page, deserialize the tuple, evaluate each member's restriction, and
/// project + serialize the payloads that the merge pass will (or might)
/// ship. The merge then replays the exact state machine over the extracted
/// runs in address order.
///
/// "Might": whether a row is sent depends on scan state that can cross a
/// partition boundary. A worker simulates the state machine locally with
/// three-valued logic — the chain and Deletion flags enter each partition
/// Unknown and become exact after the first row that pins them — and
/// serializes whenever the send verdict is True or Unknown. The Unknown
/// region is a handful of rows at each partition's head, so the wasted
/// serialization is negligible, and the over-approximation guarantees the
/// merge never needs a payload the worker skipped.

/// Hard ceiling of the parallel-path group size: per-row member sets are
/// packed into uint64_t bitmaps. RefreshExecution::max_parallel_members is
/// clamped to this; larger groups fall back to the sequential scan.
constexpr size_t kMemberBitmapWidth = 64;

enum class Tri : uint8_t { kFalse, kTrue, kUnknown };

Tri TriOr(Tri a, Tri b) {
  if (a == Tri::kTrue || b == Tri::kTrue) return Tri::kTrue;
  if (a == Tri::kFalse && b == Tri::kFalse) return Tri::kFalse;
  return Tri::kUnknown;
}

/// One base row as captured by a partition worker: the stored annotations
/// (the merge re-derives the fixed-up ones) plus every per-member decision
/// that is computable without cross-partition state.
struct ExtractedRow {
  Address addr;
  Address stored_prev = Address::Origin();
  Timestamp stored_ts = kNullTimestamp;
  uint64_t qualified = 0;    // bit i: member i's restriction admits the row
  uint64_t has_payload = 0;  // bit i: payloads[i] was pre-serialized
  std::vector<std::string> payloads;  // indexed by member; sized lazily
  /// Epoch path: stored image of NULL-timestamp rows (the only rows whose
  /// repair needs the byte-identity guard — see PendingWrite). Rows with
  /// intact annotations stay copy-free.
  std::string raw;
};

/// Scans one partition and extracts its rows. Runs on a pool worker; reads
/// only shared-immutable state (`states` is const here — transmit state is
/// owned by the merge pass) and writes only `*out` and its own counter.
Status ExtractPartition(BaseTable* base, const TableEpoch* epoch,
                        const std::vector<MemberState>& states,
                        const BaseTable::ScanPartition& part,
                        obs::Counter* rows_counter,
                        std::vector<ExtractedRow>* out) {
  // Local three-valued mirror of the scan state. `chain_known` flips true
  // at the first row whose PrevAddr is non-NULL: from then on ExpectPrev
  // here equals ExpectPrev in the merge (both are set to that row's
  // address unconditionally), so anomaly verdicts are exact.
  bool chain_known = false;
  Address expect_prev = Address::Origin();
  std::vector<Tri> deletion(states.size(), Tri::kUnknown);

  auto visit = [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
        ExtractedRow er;
        er.addr = addr;
        er.stored_prev = row.prev_addr;
        er.stored_ts = row.timestamp;
        if (epoch != nullptr && RepairNeedsImage(row.timestamp)) {
          er.raw = std::string(row.raw);
        }
        const bool annotations_intact =
            !row.prev_addr.IsNull() && row.timestamp != kNullTimestamp;

        // Classify the post-fixup timestamp. Any repair stamps FixupTime,
        // which the oracle drew after every member's SnapTime, so a row
        // known to be repaired compares fresh for every member.
        Tri ts_fresh_base;    // member-independent part of "ts > SnapTime"
        bool ts_is_stored = false;
        if (row.prev_addr.IsNull() || row.timestamp == kNullTimestamp) {
          ts_fresh_base = Tri::kTrue;  // inserted/updated: ts := FixupTime
        } else if (!chain_known) {
          ts_fresh_base = Tri::kUnknown;  // anomaly undecidable at the head
        } else if (row.prev_addr != expect_prev) {
          ts_fresh_base = Tri::kTrue;  // deletion anomaly: ts := FixupTime
        } else {
          ts_fresh_base = Tri::kFalse;  // placeholder; compared per member
          ts_is_stored = true;
        }
        if (!row.prev_addr.IsNull()) {
          chain_known = true;
          expect_prev = addr;
        }

        for (size_t i = 0; i < states.size(); ++i) {
          const MemberState& st = states[i];
          const SnapshotDescriptor& desc = *st.member.desc;
          ASSIGN_OR_RETURN(const bool qualified,
                           st.restriction.Qualifies(row.user));
          const Tri ts_fresh =
              ts_is_stored ? (row.timestamp > st.member.snap_time
                                  ? Tri::kTrue
                                  : Tri::kFalse)
                           : ts_fresh_base;
          if (qualified) {
            er.qualified |= uint64_t{1} << i;
            if (TriOr(ts_fresh, deletion[i]) != Tri::kFalse) {
              const bool value_unchanged =
                  annotations_intact &&
                  row.timestamp <= st.member.snap_time;
              if (!(desc.anchor_optimization && value_unchanged)) {
                if (er.payloads.empty()) er.payloads.resize(states.size());
                // Straight from the pinned view into the payload buffer —
                // no intermediate Tuple, no projected copy.
                RETURN_IF_ERROR(row.user.AppendProjectionTo(
                    st.projection_indices, &er.payloads[i]));
                er.has_payload |= uint64_t{1} << i;
              }
            }
            deletion[i] = Tri::kFalse;
          } else if (ts_fresh == Tri::kTrue) {
            deletion[i] = Tri::kTrue;
          } else if (ts_fresh == Tri::kUnknown &&
                     deletion[i] != Tri::kTrue) {
            deletion[i] = Tri::kUnknown;
          }
        }

        rows_counter->Inc();
        out->push_back(std::move(er));
        return Status::OK();
  };
  if (epoch != nullptr) {
    return base->ScanAnnotatedRangeAtEpoch(*epoch, part, visit);
  }
  return base->ScanAnnotatedRange(part, visit);
}

/// --- Delta-cache path ----------------------------------------------------

/// One stale class: its splice and the member whose bound restriction and
/// projection stand for the class.
struct StaleClass {
  DeltaCache::Splice* splice;
  size_t rep;
};

/// The stamp the anchor optimization compares against SnapTime: the
/// stored one when the row's annotations were intact (the scan's "value
/// unchanged" test reads it), else the fixed-up one.
Timestamp AnchorStamp(const FixupResult& fix, Address stored_prev,
                      Timestamp stored_ts) {
  const bool annotations_intact =
      !stored_prev.IsNull() && stored_ts != kNullTimestamp;
  return annotations_intact ? stored_ts : fix.ts;
}

/// Walks the cut's pages in address order, rescanning runs of dirty pages
/// and copying runs of clean ones from the old images, appending to every
/// stale class's splice and collecting the Figure 7 repairs into
/// `*repairs`: the merged sequence and its chain are a full rescan's, so
/// the repairs and the spliced images are too. Counts the pages of each
/// kind into `*rescanned`/`*reused`.
Status SpliceToCut(BaseTable* base, const TableEpoch* epoch,
                   std::vector<MemberState>* states,
                   const std::vector<StaleClass>& stale, FixupState* fx,
                   std::vector<PendingWrite>* repairs, uint64_t* rescanned,
                   uint64_t* reused) {
  const TableHeap& heap = *base->info()->heap;
  const std::vector<PageId>& pages =
      epoch != nullptr ? epoch->pages() : heap.pages();
  // A page is clean for every stale class when it is stamped at or below
  // the oldest old image's tick (0 without an old image: every page is
  // stamped above it).
  uint64_t clean_through = UINT64_MAX;
  for (const StaleClass& c : stale) {
    clean_through = std::min(clean_through, c.splice->prior_tick());
  }
  auto dirty = [&](size_t i) { return heap.page_stamp(i) > clean_through; };
  auto fixup = [&](Address addr, Address stored_prev, Timestamp stored_ts,
                   std::string_view raw) {
    const FixupResult fix = FixupRow(fx, addr, stored_prev, stored_ts);
    if (fix.write_needed) {
      repairs->push_back({addr, fix.prev, fix.ts, stored_prev, stored_ts,
                          epoch != nullptr && RepairNeedsImage(stored_ts)
                              ? std::string(raw)
                              : std::string()});
    }
    for (MemberState& st : *states) {
      RefreshStats* stats = st.member.stats;
      if (fix.inserted) ++stats->fixups_inserted;
      if (fix.updated) ++stats->fixups_updated;
      if (fix.deleted) ++stats->fixups_deleted;
    }
    return fix;
  };

  std::string payload;  // reused serialization buffer
  auto visit = [&](Address addr, const BaseTable::AnnotatedView& row)
      -> Status {
    const FixupResult fix =
        fixup(addr, row.prev_addr, row.timestamp, row.raw);
    for (MemberState& st : *states) ++st.member.stats->entries_scanned;
    const Timestamp anchor = AnchorStamp(fix, row.prev_addr, row.timestamp);
    for (const StaleClass& c : stale) {
      const MemberState& rep = (*states)[c.rep];
      ASSIGN_OR_RETURN(const bool qualified,
                       rep.restriction.Qualifies(row.user));
      payload.clear();
      if (qualified) {
        RETURN_IF_ERROR(
            row.user.AppendProjectionTo(rep.projection_indices, &payload));
      }
      c.splice->Append(addr, fix.ts, anchor, qualified, payload);
    }
    return Status::OK();
  };

  for (size_t i = 0; i < pages.size();) {
    const bool run_dirty = dirty(i);
    size_t end = i + 1;
    while (end < pages.size() && dirty(end) == run_dirty) ++end;
    if (run_dirty) {
      *rescanned += end - i;
      const BaseTable::ScanPartition part{i, end - i};
      RETURN_IF_ERROR(epoch != nullptr
                          ? base->ScanAnnotatedRangeAtEpoch(*epoch, part, visit)
                          : base->ScanAnnotatedRange(part, visit));
    } else {
      *reused += end - i;
      // Unchanged since every old image: a clean row's stored PrevAddr is
      // its predecessor there and its stored TimeStamp its image stamp. Only
      // the run's first row can meet a changed neighbourhood (a deletion
      // before it, or inserts); every later row's predecessor is unchanged,
      // so Figure 7 repairs nothing for it and the chain just moves on.
      const DeltaCache::Splice::PriorRun lead =
          stale.front().splice->FindPrior(pages[i], pages[end - 1]);
      if (!lead.empty()) {
        const FixupResult fix =
            fixup(lead.first, lead.first_prev, lead.first_ts, {});
        for (const StaleClass& c : stale) {
          c.splice->CopyPrior(c.splice->FindPrior(pages[i], pages[end - 1]),
                              lead.first, fix.ts, lead.first_ts);
        }
        fx->expect_prev = lead.last;
        fx->last_addr = lead.last;
      }
    }
    i = end;
  }
  return Status::OK();
}

/// The delta-cache path of ExecuteGroupDifferentialRefresh: one splice per
/// distinct class (kept in `*splices` for the caller to commit after the
/// fix-ups), the stale ones brought up to the cut, then every member
/// replayed from its class's image into its sender.
Status RefreshThroughCache(BaseTable* base, const TableEpoch* epoch,
                           DeltaCache* cache, std::vector<MemberState>* states,
                           const std::vector<BatchingSender*>& senders,
                           const RefreshExecution& exec, obs::Tracer* tracer,
                           FixupState* fx, std::vector<PendingWrite>* repairs,
                           std::vector<std::unique_ptr<DeltaCache::Splice>>*
                               splices) {
  const uint64_t cut_tick =
      epoch != nullptr ? epoch->cut_tick : base->mutation_tick();
  std::vector<size_t> splice_of(states->size());
  std::vector<StaleClass> stale;
  for (size_t i = 0; i < states->size(); ++i) {
    const SnapshotDescriptor& desc = *(*states)[i].member.desc;
    size_t same = 0;
    while (same < i &&
           !DeltaCache::SameClass(*(*states)[same].member.desc, desc)) {
      ++same;
    }
    if (same < i) {
      splice_of[i] = splice_of[same];
      continue;
    }
    splice_of[i] = splices->size();
    splices->push_back(
        cache->BeginSplice(*base, desc, cut_tick, fx->fixup_time));
    if (!splices->back()->current()) {
      stale.push_back(StaleClass{splices->back().get(), i});
    }
  }

  if (!stale.empty()) {
    obs::Tracer::Span splice_span(tracer, "splice");
    uint64_t rescanned = 0;
    uint64_t reused = 0;
    RETURN_IF_ERROR(SpliceToCut(base, epoch, states, stale, fx, repairs,
                                &rescanned, &reused));
    cache->CountPages(rescanned, reused);
    splice_span.Note("pages_rescanned", rescanned);
    splice_span.Note("pages_reused", reused);
    splice_span.Note("repairs", repairs->size());
  }

  obs::Tracer::Span serve_span(tracer, "cache-serve");
  std::vector<DeltaCache::ServeTarget> targets;
  targets.reserve(states->size());
  for (size_t i = 0; i < states->size(); ++i) {
    MemberState& st = (*states)[i];
    targets.push_back(DeltaCache::ServeTarget{
        st.member.desc, st.member.snap_time, senders[i], st.member.stats,
        &st.last_qual, (*splices)[splice_of[i]].get()});
  }
  RETURN_IF_ERROR(cache->ServeGroup(exec, &targets));
  serve_span.Note("members", states->size());
  return Status::OK();
}

}  // namespace

Status ExecuteGroupDifferentialRefresh(
    BaseTable* base, std::vector<GroupRefreshMember>* members,
    MessageSink* channel, obs::Tracer* tracer, const RefreshExecution& exec) {
  if (base->mode() == AnnotationMode::kNone) {
    return Status::InvalidArgument(
        "differential refresh requires annotation columns");
  }
  if (members->empty()) {
    return Status::InvalidArgument("empty refresh group");
  }
  if (exec.workers > 1 && exec.pool == nullptr) {
    return Status::InvalidArgument(
        "parallel refresh requires a thread pool");
  }
  std::vector<MemberState> states;
  states.reserve(members->size());
  for (GroupRefreshMember& m : *members) {
    ASSIGN_OR_RETURN(BoundExpression restriction,
                     m.desc->restriction->Bind(base->user_schema()));
    MemberState state{m, std::move(restriction), {}, Address::Origin(),
                      false};
    state.projection_indices.reserve(m.desc->projection.size());
    for (const std::string& name : m.desc->projection) {
      ASSIGN_OR_RETURN(size_t idx, base->user_schema().IndexOf(name));
      state.projection_indices.push_back(idx);
    }
    states.push_back(std::move(state));
  }

  // Per-member output streams. A member that brought its own sink (a
  // per-session stamped stream) batches independently; everyone else
  // shares one sender over exec.session/channel, so the single-stream wire
  // framing stays byte-identical to a session-less group.
  MessageSink* default_sink = exec.session != nullptr
                                  ? static_cast<MessageSink*>(exec.session)
                                  : channel;
  BatchingSender shared_sender(default_sink, exec.batch_size);
  std::vector<std::unique_ptr<BatchingSender>> owned_senders;
  std::vector<BatchingSender*> senders(states.size(), &shared_sender);
  for (size_t i = 0; i < states.size(); ++i) {
    if (states[i].member.sink != nullptr) {
      owned_senders.push_back(std::make_unique<BatchingSender>(
          states[i].member.sink, exec.batch_size));
      senders[i] = owned_senders.back().get();
    }
  }

  // Only refresh events need distinct times, so a single FixupTime stamps
  // every repair in this pass and becomes the new SnapTime of every member.
  const Timestamp fixup_time = base->oracle()->Next();
  FixupState fx{fixup_time, Address::Origin(), Address::Origin()};
  std::vector<PendingWrite> repairs;

  const TableEpoch* epoch = exec.epoch.get();
  DeltaCache* cache = exec.delta_cache;
  std::vector<std::unique_ptr<DeltaCache::Splice>> splices;
  const size_t max_parallel =
      std::min<size_t>(exec.max_parallel_members, kMemberBitmapWidth);
  std::vector<BaseTable::ScanPartition> partitions;
  if (cache == nullptr && exec.workers > 1 && states.size() <= max_parallel) {
    partitions = epoch != nullptr
                     ? base->PartitionEpoch(*epoch, exec.workers)
                     : base->Partition(exec.workers);
  }

  if (cache != nullptr) {
    // --- Delta-cache path: splice the stale class images up to the cut,
    // then replay every member from its image.
    RETURN_IF_ERROR(RefreshThroughCache(base, epoch, cache, &states, senders,
                                        exec, tracer, &fx, &repairs,
                                        &splices));
  } else if (partitions.size() > 1) {
    // --- Parallel path: partition extraction, then sequential merge. ---
    obs::Tracer::Span extract_span(tracer, "partition-extract");
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    std::vector<std::vector<ExtractedRow>> runs(partitions.size());
    std::vector<std::future<Status>> pending;
    pending.reserve(partitions.size());
    for (size_t p = 0; p < partitions.size(); ++p) {
      // Shard worker-side meters by pool slot (partition p lands on slot
      // p % workers) so concurrent workers never contend on one counter.
      obs::Counter* rows_counter = reg.GetCounter(
          "snapshot.refresh.parallel.worker." +
          std::to_string(p % exec.workers) + ".rows");
      // Flight-recorder task-latency probe: queue wait (submit -> start of
      // execution) as an instant in ticks, then the extraction as a span on
      // the worker's own track.
      const uint64_t submitted_ticks = SNAPDIFF_FR_NOW();
      pending.push_back(exec.pool->Submit(
          [base, epoch, &states, part = partitions[p], rows_counter,
           run = &runs[p], submitted_ticks]() -> Status {
            SNAPDIFF_FR_INSTANT("thread_pool.task.queue_ticks",
                                SNAPDIFF_FR_NOW() - submitted_ticks);
            SNAPDIFF_FR_SCOPED_SPAN(fr_span, "refresh.extract_partition");
            (void)submitted_ticks;
            return ExtractPartition(base, epoch, states, part, rows_counter,
                                    run);
          }));
    }
    // Join every partition before surfacing the first failure: the worker
    // lambdas reference stack state, so no early return while they run.
    Status extract_status = Status::OK();
    for (std::future<Status>& f : pending) {
      Status s = f.get();
      if (extract_status.ok() && !s.ok()) extract_status = s;
    }
    RETURN_IF_ERROR(extract_status);
    extract_span.Note("partitions", partitions.size());
    extract_span.Note("workers", exec.workers);
    extract_span.Close();

    // The merge consumes the runs in address order, so ProcessRow sees
    // exactly the row sequence the sequential scan would and the message
    // stream is identical by construction.
    obs::Tracer::Span merge_span(tracer, "merge+transmit");
    for (std::vector<ExtractedRow>& run : runs) {
      for (ExtractedRow& er : run) {
        const FixupResult fix =
            FixupRow(&fx, er.addr, er.stored_prev, er.stored_ts);
        if (fix.write_needed) {
          repairs.push_back({er.addr, fix.prev, fix.ts, er.stored_prev,
                             er.stored_ts, std::move(er.raw)});
        }
        RETURN_IF_ERROR(ProcessRow(
            fix, &states, senders, exec, er.addr, er.stored_prev,
            er.stored_ts,
            [&er](size_t i) -> Result<bool> {
              return ((er.qualified >> i) & 1) != 0;
            },
            [&er](size_t i, const MemberState&) -> Result<std::string> {
              if (((er.has_payload >> i) & 1) == 0) {
                // Unreachable: the worker's three-valued send verdict
                // over-approximates the merge's.
                return Status::Internal(
                    "parallel extraction missed a payload");
              }
              return std::move(er.payloads[i]);
            }));
      }
    }
    if (!states.empty()) {
      merge_span.Note("entries", states[0].member.stats->entries_scanned);
    }
    merge_span.Note("repairs", repairs.size());
    merge_span.Close();
  } else {
    // --- Sequential path: the paper's single combined scan. ---
    obs::Tracer::Span scan_span(tracer, "scan+transmit");
    auto visit_row =
        [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
          const FixupResult fix =
              FixupRow(&fx, addr, row.prev_addr, row.timestamp);
          if (fix.write_needed) {
            repairs.push_back(
                {addr, fix.prev, fix.ts, row.prev_addr, row.timestamp,
                 epoch != nullptr && RepairNeedsImage(row.timestamp)
                     ? std::string(row.raw)
                     : std::string()});
          }
          return ProcessRow(
              fix, &states, senders, exec, addr, row.prev_addr,
              row.timestamp,
              [&](size_t i) -> Result<bool> {
                return states[i].restriction.Qualifies(row.user);
              },
              [&](size_t, const MemberState& state) -> Result<std::string> {
                // Serialize the projection straight off the pinned view.
                std::string payload;
                RETURN_IF_ERROR(row.user.AppendProjectionTo(
                    state.projection_indices, &payload));
                return payload;
              });
        };
    Status scan_status = epoch != nullptr
                             ? base->ScanAnnotatedAtEpoch(*epoch, visit_row)
                             : base->ScanAnnotated(visit_row);
    RETURN_IF_ERROR(scan_status);
    if (!states.empty()) {
      scan_span.Note("entries", states[0].member.stats->entries_scanned);
    }
    scan_span.Note("repairs", repairs.size());
    scan_span.Close();
  }
  RETURN_IF_ERROR(shared_sender.Flush());
  for (const std::unique_ptr<BatchingSender>& s : owned_senders) {
    RETURN_IF_ERROR(s->Flush());
  }

  obs::Tracer::Span fixup_span(tracer, "fixup-writes");
  uint64_t applied_repairs = 0;
  uint64_t skipped_repairs = 0;
  for (const PendingWrite& w : repairs) {
    if (epoch != nullptr) {
      // Conditional: the repair holds only while the live row still carries
      // the annotations this scan observed at the cut. A writer that has
      // since touched the row wins; the dropped repair is re-derived by the
      // next refresh (the writer NULLed the stamp or repaired the chain).
      bool applied = false;
      RETURN_IF_ERROR(base->WriteAnnotationsIf(w.addr, w.expect_prev,
                                               w.expect_ts, w.expect_bytes,
                                               w.prev, w.ts, &applied));
      if (applied) {
        ++applied_repairs;
        for (MemberState& state : states) ++state.member.stats->base_writes;
      } else {
        ++skipped_repairs;
        for (MemberState& state : states) {
          ++state.member.stats->fixups_skipped;
        }
      }
    } else {
      RETURN_IF_ERROR(base->WriteAnnotations(w.addr, w.prev, w.ts));
      for (MemberState& state : states) ++state.member.stats->base_writes;
    }
  }
  fixup_span.Close();

  // Commit the spliced images only now: they must be stamped with the
  // mutation tick as of *after* the fix-up repairs, the state a future
  // unchanged-base refresh would observe. On the epoch path an image is
  // only exact when no concurrent writer interleaved — every repair landed
  // and the tick advanced by exactly the repairs we applied; otherwise the
  // splices are dropped (the replay was exact all the same: the spliced
  // images describe the cut) and the next refresh splices again.
  if (cache != nullptr) {
    const uint64_t commit_tick = base->mutation_tick();
    const bool image_exact =
        epoch == nullptr ||
        (skipped_repairs == 0 &&
         commit_tick == epoch->cut_tick + applied_repairs);
    if (image_exact) {
      for (std::unique_ptr<DeltaCache::Splice>& s : splices) {
        cache->CommitSplice(std::move(s), commit_tick);
      }
    }
  }

  // "Handle deletions at end of BaseTable" + transmit the new SnapTime,
  // once per member. (The senders are already drained, so these pass
  // through unbatched like every control message.)
  obs::Tracer::Span end_span(tracer, "end-of-refresh");
  for (size_t i = 0; i < states.size(); ++i) {
    MemberState& state = states[i];
    RETURN_IF_ERROR(senders[i]->Send(MakeEndOfRefresh(
        state.member.desc->id, state.last_qual, fixup_time)));
    SNAPDIFF_LOG(Debug)
        << "differential refresh transmitted"
        << obs::kv("snapshot", state.member.desc->name)
        << obs::kv("entries_scanned", state.member.stats->entries_scanned)
        << obs::kv("fixups_inserted", state.member.stats->fixups_inserted)
        << obs::kv("fixups_updated", state.member.stats->fixups_updated)
        << obs::kv("fixups_deleted", state.member.stats->fixups_deleted);
  }
  return Status::OK();
}

}  // namespace snapdiff
