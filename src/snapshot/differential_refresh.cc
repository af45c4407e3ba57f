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

/// A delta-cache fill riding this scan: the filler accumulating one class
/// image plus the index of the member representing the class (its
/// restriction/projection are the class's).
struct FillTarget {
  std::unique_ptr<DeltaCache::Filler> filler;
  size_t rep;
};

/// A row is reusable from the previous image iff its stored annotations
/// were intact (no repair fired, so fix.ts == stored_ts) and its stamp is
/// not newer than the previous image's epoch bound — then its value, and
/// therefore its payload and predicate verdict, cannot have changed since
/// that image recorded it.
bool FillRowUnchanged(const FixupResult& fix, Address stored_prev,
                      Timestamp stored_ts, Timestamp reuse_floor) {
  const bool annotations_intact =
      !stored_prev.IsNull() && stored_ts != kNullTimestamp;
  return annotations_intact && fix.ts == stored_ts && fix.ts <= reuse_floor;
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
  uint64_t qualified = 0;     // bit i: member i's restriction admits the row
  uint64_t has_payload = 0;   // bit i: payloads[i] was pre-serialized
  uint64_t fill_payload = 0;  // bit i: payloads[i] serialized for a fill
  std::vector<std::string> payloads;  // indexed by member; sized lazily
  /// Epoch path: stored image of NULL-timestamp rows (the only rows whose
  /// repair needs the byte-identity guard — see PendingWrite). Rows with
  /// intact annotations stay copy-free.
  std::string raw;
};

/// A cache fill as the workers see it: which member represents the class
/// and the reuse floor deciding which rows need their payload serialized
/// even when the transmit verdict alone would not.
struct FillSpec {
  size_t rep;
  Timestamp floor;
};

/// Scans one partition and extracts its rows. Runs on a pool worker; reads
/// only shared-immutable state (`states` is const here — transmit state is
/// owned by the merge pass) and writes only `*out` and its own counter.
Status ExtractPartition(BaseTable* base, const TableEpoch* epoch,
                        const std::vector<MemberState>& states,
                        const std::vector<FillSpec>& fill_specs,
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

        // Delta-cache fills: a qualified row's payload is also needed when
        // the row changed since the class's previous image. `ts_is_stored`
        // certainty mirrors the merge's reuse test exactly when known; the
        // Unknown partition head serializes conservatively, so the merge
        // never misses a fill payload either.
        for (const FillSpec& fs : fill_specs) {
          if (((er.qualified >> fs.rep) & 1) == 0) continue;
          if (ts_is_stored && row.timestamp <= fs.floor) continue;
          const uint64_t bit = uint64_t{1} << fs.rep;
          if ((er.has_payload & bit) != 0 || (er.fill_payload & bit) != 0) {
            continue;
          }
          if (er.payloads.empty()) er.payloads.resize(states.size());
          RETURN_IF_ERROR(row.user.AppendProjectionTo(
              states[fs.rep].projection_indices, &er.payloads[fs.rep]));
          er.fill_payload |= bit;
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

/// Feeds one fixed-up row into every pending cache fill. `qualified_of(k)`
/// is fill k's class verdict for the row; `payload_of(rep)` yields the
/// serialized projection for the class representative (called only when
/// the row changed and qualifies; the view need only live until Observe
/// copies it).
template <typename QualifiedOf, typename PayloadOf>
Status ObserveFills(std::vector<FillTarget>* fills, const FixupResult& fix,
                    Address addr, Address stored_prev, Timestamp stored_ts,
                    QualifiedOf&& qualified_of, PayloadOf&& payload_of) {
  for (size_t k = 0; k < fills->size(); ++k) {
    FillTarget& f = (*fills)[k];
    const bool qualified = qualified_of(k);
    const bool unchanged =
        FillRowUnchanged(fix, stored_prev, stored_ts, f.filler->reuse_floor());
    std::string_view payload;
    if (!unchanged && qualified) {
      ASSIGN_OR_RETURN(payload, payload_of(f.rep));
    }
    f.filler->Observe(addr, fix.ts, qualified, unchanged, payload);
  }
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

  DeltaCache* cache = exec.delta_cache;
  if (cache != nullptr) {
    bool all_current = true;
    for (const MemberState& st : states) {
      if (!cache->CanServe(*base, *st.member.desc)) {
        all_current = false;
        break;
      }
    }
    if (all_current) {
      // --- Cache-served path: every member's class image is current, so
      // the whole group replays from memory. No base pages are touched; a
      // single oracle draw closes the epoch exactly as a scan's FixupTime
      // would, so cached and scanning systems stay in timestamp lockstep.
      const Timestamp end_time = base->oracle()->Next();
      obs::Tracer::Span serve_span(tracer, "cache-serve");
      std::vector<DeltaCache::ServeTarget> targets;
      targets.reserve(states.size());
      for (size_t i = 0; i < states.size(); ++i) {
        targets.push_back(DeltaCache::ServeTarget{
            states[i].member.desc, states[i].member.snap_time, senders[i],
            states[i].member.stats, &states[i].last_qual});
      }
      RETURN_IF_ERROR(cache->ServeGroup(*base, exec, &targets));
      // Flush-then-END mirrors the scan path exactly: one flush boundary
      // after the whole group's entries, then each member's closing marker.
      RETURN_IF_ERROR(shared_sender.Flush());
      for (const auto& owned : owned_senders) RETURN_IF_ERROR(owned->Flush());
      for (size_t i = 0; i < states.size(); ++i) {
        MemberState& state = states[i];
        RETURN_IF_ERROR(senders[i]->Send(MakeEndOfRefresh(
            state.member.desc->id, state.last_qual, end_time)));
        SNAPDIFF_LOG(Debug)
            << "differential refresh served from delta cache"
            << obs::kv("snapshot", state.member.desc->name)
            << obs::kv("snap_time", state.member.snap_time);
      }
      serve_span.Note("members", states.size());
      serve_span.Close();
      return Status::OK();
    }
  }

  // Only refresh events need distinct times, so a single FixupTime stamps
  // every repair in this pass and becomes the new SnapTime of every member.
  const Timestamp fixup_time = base->oracle()->Next();

  // Cache fills ride the scan: one per distinct class whose image is
  // missing or stale. A class that is still current (but dragged into the
  // scan by a stale co-member) is left untouched — the scan will repair
  // nothing, so its image stays valid.
  std::vector<FillTarget> fills;
  if (cache != nullptr) {
    for (size_t i = 0; i < states.size(); ++i) {
      const SnapshotDescriptor& desc = *states[i].member.desc;
      if (cache->CanServe(*base, desc)) continue;
      cache->CountMiss();
      bool duplicate = false;
      for (const FillTarget& f : fills) {
        if (DeltaCache::SameClass(*states[f.rep].member.desc, desc)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        fills.push_back(
            FillTarget{cache->BeginFill(*base, desc, fixup_time), i});
      }
    }
  }
  std::vector<FillSpec> fill_specs;
  fill_specs.reserve(fills.size());
  for (const FillTarget& f : fills) {
    fill_specs.push_back(FillSpec{f.rep, f.filler->reuse_floor()});
  }

  FixupState fx{fixup_time, Address::Origin(), Address::Origin()};
  std::vector<PendingWrite> repairs;

  const TableEpoch* epoch = exec.epoch.get();
  const size_t max_parallel =
      std::min<size_t>(exec.max_parallel_members, kMemberBitmapWidth);
  std::vector<BaseTable::ScanPartition> partitions;
  if (exec.workers > 1 && states.size() <= max_parallel) {
    partitions = epoch != nullptr
                     ? base->PartitionEpoch(*epoch, exec.workers)
                     : base->Partition(exec.workers);
  }

  if (partitions.size() > 1) {
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
          [base, epoch, &states, &fill_specs, part = partitions[p],
           rows_counter, run = &runs[p], submitted_ticks]() -> Status {
            SNAPDIFF_FR_INSTANT("thread_pool.task.queue_ticks",
                                SNAPDIFF_FR_NOW() - submitted_ticks);
            SNAPDIFF_FR_SCOPED_SPAN(fr_span, "refresh.extract_partition");
            (void)submitted_ticks;
            return ExtractPartition(base, epoch, states, fill_specs, part,
                                    rows_counter, run);
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
        // Fills first: ProcessRow may move the payload the fill copies.
        RETURN_IF_ERROR(ObserveFills(
            &fills, fix, er.addr, er.stored_prev, er.stored_ts,
            [&](size_t k) { return ((er.qualified >> fills[k].rep) & 1) != 0; },
            [&er](size_t rep) -> Result<std::string_view> {
              if (((er.has_payload | er.fill_payload) >> rep & 1) == 0) {
                // Unreachable: the worker's reuse test only skips rows the
                // merge also classifies unchanged.
                return Status::Internal(
                    "parallel extraction missed a fill payload");
              }
              return std::string_view(er.payloads[rep]);
            }));
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
    RETURN_IF_ERROR(shared_sender.Flush());
    for (const std::unique_ptr<BatchingSender>& s : owned_senders) {
      RETURN_IF_ERROR(s->Flush());
    }
    if (!states.empty()) {
      merge_span.Note("entries", states[0].member.stats->entries_scanned);
    }
    merge_span.Note("repairs", repairs.size());
    merge_span.Close();
  } else {
    // --- Sequential path: the paper's single combined scan. ---
    obs::Tracer::Span scan_span(tracer, "scan+transmit");
    // Each fill needs its class representative's verdict even for rows the
    // transmit rule skips. It is evaluated once per row, up front, and the
    // transmit rule reads it back for the representative instead of
    // evaluating the predicate again; other members evaluate their own.
    constexpr size_t kNoFill = SIZE_MAX;
    std::vector<size_t> fill_of_member(states.size(), kNoFill);
    for (size_t k = 0; k < fills.size(); ++k) fill_of_member[fills[k].rep] = k;
    std::vector<uint8_t> fill_qualified(fills.size(), 0);
    std::string fill_payload;  // reused serialization buffer for fills
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
          if (!fills.empty()) {
            for (size_t k = 0; k < fills.size(); ++k) {
              ASSIGN_OR_RETURN(
                  const bool qualified,
                  states[fills[k].rep].restriction.Qualifies(row.user));
              fill_qualified[k] = qualified ? 1 : 0;
            }
            RETURN_IF_ERROR(ObserveFills(
                &fills, fix, addr, row.prev_addr, row.timestamp,
                [&](size_t k) { return fill_qualified[k] != 0; },
                [&](size_t rep) -> Result<std::string_view> {
                  fill_payload.clear();
                  RETURN_IF_ERROR(row.user.AppendProjectionTo(
                      states[rep].projection_indices, &fill_payload));
                  return std::string_view(fill_payload);
                }));
          }
          return ProcessRow(
              fix, &states, senders, exec, addr, row.prev_addr,
              row.timestamp,
              [&](size_t i) -> Result<bool> {
                if (fill_of_member[i] != kNoFill) {
                  return fill_qualified[fill_of_member[i]] != 0;
                }
                return states[i].restriction.Qualifies(row.user);
              },
              [&](size_t i, const MemberState& state) -> Result<std::string> {
                (void)i;
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
    RETURN_IF_ERROR(shared_sender.Flush());
    for (const std::unique_ptr<BatchingSender>& s : owned_senders) {
      RETURN_IF_ERROR(s->Flush());
    }
    if (!states.empty()) {
      scan_span.Note("entries", states[0].member.stats->entries_scanned);
    }
    scan_span.Note("repairs", repairs.size());
    scan_span.Close();
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

  // Commit the cache fills only now: the images must be stamped with the
  // mutation tick as of *after* the fix-up repairs, the state a future
  // unchanged-base rescan would observe. On the epoch path the image is
  // only exact when no concurrent writer interleaved — every repair landed
  // and the tick advanced by exactly the repairs we applied; otherwise the
  // fill is dropped (the next refresh re-fills from its own scan).
  if (cache != nullptr) {
    const uint64_t commit_tick = base->mutation_tick();
    const bool image_exact =
        epoch == nullptr ||
        (skipped_repairs == 0 &&
         commit_tick == epoch->cut_tick + applied_repairs);
    for (FillTarget& f : fills) {
      if (image_exact) {
        cache->CommitFill(std::move(f.filler), commit_tick);
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
