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

/// One member's restriction and projection, bound to user-schema column
/// indices once per refresh, so per-row evaluation and payload
/// serialization never look a name up. `last_qual` receives the member's
/// final LastQual, which its END_OF_REFRESH carries.
struct MemberState {
  GroupRefreshMember member;
  BoundExpression restriction;
  std::vector<size_t> projection_indices;
  Address last_qual = Address::Origin();
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

/// Figure 7 chain state. Every row's fix-up verdict depends on its
/// predecessors through it, so a partition worker knows it only from its
/// first row with a stored PrevAddr on.
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

/// One member's Figure 3 transmit state (LastQual, Deletion) as one scan
/// sees it. A scan that knows its entry state keeps every member exact. A
/// partition worker does not: until a member's first qualified row there,
/// `last_qual` is the unknown entering LastQual and `deletion` says only
/// whether a fresh unqualified row of the partition raised the flag.
struct Track {
  Address last_qual = Address::Origin();
  bool deletion = false;
  bool exact = true;
};

/// A row of a partition's head: the rows up to and including the first one
/// with a stored PrevAddr. Their Figure 7 verdicts hang on the chain state
/// entering the partition, so the worker hands them over whole — stored
/// annotations, each member's restriction verdict, and every payload the
/// merge might ship.
struct HeadRow {
  Address addr;
  Address stored_prev;
  Timestamp stored_ts;
  std::vector<bool> qualified;        // by member
  std::vector<std::string> payloads;  // by member; sized lazily
  std::string expect_bytes;           // PendingWrite::expect_bytes
};

/// An ENTRY a worker decided after its partition's head. A pending one is a
/// member's first qualified row there: it goes out when `forced` (the row
/// is fresh, or a fresh unqualified row before it raised Deletion) or when
/// the member's live Deletion flag is set, and its PrevAddr is the live
/// LastQual. Every other event is a finished message.
struct Event {
  size_t member;
  Address addr;
  Address prev;
  bool pending;
  bool forced;
  bool anchor;  // payload-free (SnapshotDescriptor::anchor_optimization)
  std::string payload;
};

/// Whether member `st` would ship a row with these stored annotations as a
/// bare address: its value is unchanged since SnapTime (intact annotations,
/// stamp not newer), so a send only covers the preceding gap.
bool AnchorOnly(const MemberState& st, Address stored_prev,
                Timestamp stored_ts) {
  return st.member.desc->anchor_optimization && !stored_prev.IsNull() &&
         stored_ts != kNullTimestamp && stored_ts <= st.member.snap_time;
}

/// The combined Figure 7 fix-up + Figure 3 transmit scan of one address
/// range, shared by every cache-off refresh.
///
/// With `senders` given, the entry state is known — the table's start, or
/// the merge's live state — and every message goes straight out (this is
/// the sequential scan, and the merge). Without, the scan is a partition
/// worker entering with the chain (ExpectPrev/LastAddr) and every member
/// unknown. It keeps its head for the merge, then runs Figure 7 exactly
/// from the first pinned row on, buffers its repairs, and records Figure
/// 3's messages as events; only each member's first qualified row stays a
/// pending decision. Settle() replays a worker's head and events against
/// the live state in address order, so the stream, the stats and the
/// repairs are the sequential scan's by construction.
class RangeScan {
 public:
  RangeScan(std::vector<MemberState>* states, const TableEpoch* epoch,
            Timestamp fixup_time, const std::vector<BatchingSender*>* senders,
            const RefreshExecution* exec)
      : states_(states), epoch_(epoch), senders_(senders), exec_(exec),
        fx_{fixup_time, Address::Origin(), Address::Origin()},
        pinned_(senders != nullptr),
        tracks_(states->size(), Track{Address::Origin(), false, pinned_}) {}

  /// Scans `part` at the refresh's cut.
  Status Scan(BaseTable* base, const BaseTable::ScanPartition& part) {
    auto visit = [this](Address addr, const BaseTable::AnnotatedView& row) {
      return Visit(addr, row);
    };
    return epoch_ != nullptr
               ? base->ScanAnnotatedRangeAtEpoch(*epoch_, part, visit)
               : base->ScanAnnotatedRange(part, visit);
  }

  /// Merge: appends worker `part`'s range to this known-state scan.
  Status Settle(RangeScan* part) {
    for (HeadRow& h : part->head_) {
      const FixupResult fix = Fixup(h.addr, h.stored_prev, h.stored_ts,
                                    std::move(h.expect_bytes));
      for (size_t i = 0; i < tracks_.size(); ++i) {
        RETURN_IF_ERROR(Step(i, h.addr, fix.ts, h.stored_prev, h.stored_ts,
                             h.qualified[i], [&](std::string* out) {
                               *out = std::move(h.payloads[i]);
                               return Status::OK();
                             }));
      }
    }
    for (Event& ev : part->events_) {
      const Track& live = tracks_[ev.member];
      if (ev.pending) {
        if (!ev.forced && !live.deletion) continue;
        ev.prev = live.last_qual;
      }
      RETURN_IF_ERROR(Transmit(ev.member, ev.addr, ev.prev, ev.anchor,
                               [&ev](std::string* out) {
                                 *out = std::move(ev.payload);
                                 return Status::OK();
                               }));
    }
    for (size_t i = 0; i < tracks_.size(); ++i) {
      const Track& exit = part->tracks_[i];
      if (exit.exact) {
        tracks_[i] = exit;
      } else if (exit.deletion) {
        tracks_[i].deletion = true;
      }
    }
    if (part->pinned_) fx_ = part->fx_;
    repairs_.insert(repairs_.end(),
                    std::make_move_iterator(part->repairs_.begin()),
                    std::make_move_iterator(part->repairs_.end()));
    rows_ += part->rows_;
    inserted_ += part->inserted_;
    updated_ += part->updated_;
    deleted_ += part->deleted_;
    return Status::OK();
  }

  /// Folds the scan's counts into every member's stats, hands each member
  /// its final LastQual and moves the repairs out.
  void Finish(std::vector<PendingWrite>* repairs) {
    for (size_t i = 0; i < tracks_.size(); ++i) {
      MemberState& st = (*states_)[i];
      RefreshStats* stats = st.member.stats;
      stats->entries_scanned += rows_;
      stats->fixups_inserted += inserted_;
      stats->fixups_updated += updated_;
      stats->fixups_deleted += deleted_;
      st.last_qual = tracks_[i].last_qual;
    }
    *repairs = std::move(repairs_);
  }

  /// Rows visited, the head included.
  uint64_t rows() const { return rows_ + head_.size(); }

 private:
  Status Visit(Address addr, const BaseTable::AnnotatedView& row) {
    std::string expect_bytes =
        epoch_ != nullptr && RepairNeedsImage(row.timestamp)
            ? std::string(row.raw)
            : std::string();
    if (!pinned_) {
      // Head row: whether it is sent hangs on the entering state, so
      // serialize every payload it might ship.
      HeadRow h{addr, row.prev_addr, row.timestamp,
                std::vector<bool>(tracks_.size()), {},
                std::move(expect_bytes)};
      for (size_t i = 0; i < tracks_.size(); ++i) {
        const MemberState& st = (*states_)[i];
        ASSIGN_OR_RETURN(const bool qualified,
                         st.restriction.Qualifies(row.user));
        h.qualified[i] = qualified;
        if (qualified && !AnchorOnly(st, row.prev_addr, row.timestamp)) {
          if (h.payloads.empty()) h.payloads.resize(tracks_.size());
          RETURN_IF_ERROR(row.user.AppendProjectionTo(st.projection_indices,
                                                      &h.payloads[i]));
        }
      }
      head_.push_back(std::move(h));
      // From the first stored PrevAddr on, ExpectPrev and LastAddr here
      // equal the merge's: both are set to this row's address.
      if (!row.prev_addr.IsNull()) {
        pinned_ = true;
        fx_.expect_prev = addr;
      }
      fx_.last_addr = addr;
      return Status::OK();
    }
    const FixupResult fix =
        Fixup(addr, row.prev_addr, row.timestamp, std::move(expect_bytes));
    for (size_t i = 0; i < tracks_.size(); ++i) {
      const MemberState& st = (*states_)[i];
      ASSIGN_OR_RETURN(const bool qualified,
                       st.restriction.Qualifies(row.user));
      RETURN_IF_ERROR(Step(i, addr, fix.ts, row.prev_addr, row.timestamp,
                           qualified, [&](std::string* out) {
                             return row.user.AppendProjectionTo(
                                 st.projection_indices, out);
                           }));
    }
    return Status::OK();
  }

  /// Figure 7 for one row, buffering its repair.
  FixupResult Fixup(Address addr, Address stored_prev, Timestamp stored_ts,
                    std::string expect_bytes) {
    const FixupResult fix = FixupRow(&fx_, addr, stored_prev, stored_ts);
    ++rows_;
    if (fix.inserted) ++inserted_;
    if (fix.updated) ++updated_;
    if (fix.deleted) ++deleted_;
    if (fix.write_needed) {
      repairs_.push_back({addr, fix.prev, fix.ts, stored_prev, stored_ts,
                          std::move(expect_bytes)});
    }
    return fix;
  }

  /// THE transmit rule (Figure 3) for member i at one fixed-up row whose
  /// post-fix-up stamp is `ts`. `append(out)` serializes the member's
  /// payload and runs only when one must be built.
  template <typename AppendFn>
  Status Step(size_t i, Address addr, Timestamp ts, Address stored_prev,
              Timestamp stored_ts, bool qualified, AppendFn&& append) {
    const MemberState& st = (*states_)[i];
    Track& track = tracks_[i];
    const bool fresh = ts > st.member.snap_time;
    if (!qualified) {
      // "Updated entry ==> may have qualified before update".
      if (fresh) track.deletion = true;
      return Status::OK();
    }
    const bool send = fresh || track.deletion;
    const bool anchor = AnchorOnly(st, stored_prev, stored_ts);
    Status status = Status::OK();
    if (senders_ != nullptr) {
      if (send) status = Transmit(i, addr, track.last_qual, anchor, append);
    } else if (send || !track.exact) {
      Event ev{i, addr, track.last_qual, !track.exact, send, anchor, {}};
      if (!anchor) status = append(&ev.payload);
      events_.push_back(std::move(ev));
    }
    track = Track{addr, false, true};
    return status;
  }

  /// Sends one ENTRY of member i, building its payload only when it is
  /// neither an anchor nor certain to be suppressed by a resumed session.
  template <typename AppendFn>
  Status Transmit(size_t i, Address addr, Address prev, bool anchor,
                  AppendFn&& append) {
    MemberState& st = (*states_)[i];
    std::string payload;
    if (anchor) {
      ++st.member.stats->anchor_messages;
    } else if (!NextSendSuppressed(*exec_)) {
      RETURN_IF_ERROR(append(&payload));
    }
    return (*senders_)[i]->Send(
        MakeEntry(st.member.desc->id, addr, prev, std::move(payload)));
  }

  std::vector<MemberState>* states_;
  const TableEpoch* epoch_;
  const std::vector<BatchingSender*>* senders_;  // null: a partition worker
  const RefreshExecution* exec_;
  FixupState fx_;
  bool pinned_;  // chain state exact (always, with a known entry state)
  std::vector<Track> tracks_;
  std::vector<HeadRow> head_;
  std::vector<Event> events_;
  std::vector<PendingWrite> repairs_;
  uint64_t rows_ = 0;  // rows through Fixup
  uint64_t inserted_ = 0;
  uint64_t updated_ = 0;
  uint64_t deleted_ = 0;
};

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
    MemberState state{m, std::move(restriction), {}, Address::Origin()};
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
  std::vector<PendingWrite> repairs;

  const TableEpoch* epoch = exec.epoch.get();
  DeltaCache* cache = exec.delta_cache;
  std::vector<std::unique_ptr<DeltaCache::Splice>> splices;
  const size_t workers = std::max<size_t>(exec.workers, 1);
  const std::vector<BaseTable::ScanPartition> partitions =
      epoch != nullptr ? base->PartitionEpoch(*epoch, workers)
                       : base->Partition(workers);
  RangeScan scan(&states, epoch, fixup_time, &senders, &exec);

  if (cache != nullptr) {
    // --- Delta-cache path: splice the stale class images up to the cut,
    // then replay every member from its image.
    FixupState fx{fixup_time, Address::Origin(), Address::Origin()};
    RETURN_IF_ERROR(RefreshThroughCache(base, epoch, cache, &states, senders,
                                        exec, tracer, &fx, &repairs,
                                        &splices));
  } else {
    // --- The paper's single combined scan. Over several partitions the
    // pool's workers scan and the merge settles each one's head and
    // pending decisions in address order. ---
    std::vector<RangeScan> parts;
    if (partitions.size() > 1) {
      obs::Tracer::Span extract_span(tracer, "partition-extract");
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      parts.assign(partitions.size(),
                   RangeScan(&states, epoch, fixup_time, nullptr, nullptr));
      std::vector<std::future<Status>> pending;
      pending.reserve(partitions.size());
      for (size_t p = 0; p < partitions.size(); ++p) {
        // Shard worker-side meters by pool slot (partition p lands on slot
        // p % workers) so concurrent workers never contend on one counter.
        obs::Counter* rows_counter = reg.GetCounter(
            "snapshot.refresh.parallel.worker." +
            std::to_string(p % exec.workers) + ".rows");
        // Flight-recorder task-latency probe: queue wait (submit -> start
        // of execution) as an instant in ticks, then the scan as a span on
        // the worker's own track.
        const uint64_t submitted_ticks = SNAPDIFF_FR_NOW();
        pending.push_back(exec.pool->Submit(
            [base, part = partitions[p], rows_counter, run = &parts[p],
             submitted_ticks]() -> Status {
              SNAPDIFF_FR_INSTANT("thread_pool.task.queue_ticks",
                                  SNAPDIFF_FR_NOW() - submitted_ticks);
              SNAPDIFF_FR_SCOPED_SPAN(fr_span, "refresh.extract_partition");
              (void)submitted_ticks;
              Status s = run->Scan(base, part);
              rows_counter->Inc(run->rows());
              return s;
            }));
      }
      // Join every partition before surfacing the first failure: the
      // workers reference stack state, so no early return while they run.
      Status extract_status = Status::OK();
      for (std::future<Status>& f : pending) {
        Status s = f.get();
        if (extract_status.ok() && !s.ok()) extract_status = s;
      }
      RETURN_IF_ERROR(extract_status);
      extract_span.Note("partitions", partitions.size());
      extract_span.Note("workers", exec.workers);
    }
    obs::Tracer::Span scan_span(
        tracer, parts.empty() ? "scan+transmit" : "merge+transmit");
    for (size_t p = 0; p < partitions.size(); ++p) {
      RETURN_IF_ERROR(parts.empty() ? scan.Scan(base, partitions[p])
                                    : scan.Settle(&parts[p]));
    }
    scan.Finish(&repairs);
    scan_span.Note("entries", scan.rows());
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
    bool applied = true;
    if (epoch != nullptr) {
      // Conditional: the repair holds only while the live row still carries
      // the annotations this scan observed at the cut. A writer that has
      // since touched the row wins; the dropped repair is re-derived by the
      // next refresh (the writer NULLed the stamp or repaired the chain).
      RETURN_IF_ERROR(base->WriteAnnotationsIf(w.addr, w.expect_prev,
                                               w.expect_ts, w.expect_bytes,
                                               w.prev, w.ts, &applied));
    } else {
      RETURN_IF_ERROR(base->WriteAnnotations(w.addr, w.prev, w.ts));
    }
    ++(applied ? applied_repairs : skipped_repairs);
  }
  for (MemberState& state : states) {
    state.member.stats->base_writes += applied_repairs;
    state.member.stats->fixups_skipped += skipped_repairs;
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
