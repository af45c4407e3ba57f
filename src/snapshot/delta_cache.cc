#include "snapshot/delta_cache.h"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/log.h"

namespace snapdiff {

DeltaCache::DeltaCache(size_t byte_budget) : budget_(byte_budget) {
  stats_.byte_budget = byte_budget;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metric_hits_ = reg.GetCounter("snapshot.delta_cache.hits");
  metric_misses_ = reg.GetCounter("snapshot.delta_cache.misses");
  metric_fills_ = reg.GetCounter("snapshot.delta_cache.fills");
  metric_evictions_ = reg.GetCounter("snapshot.delta_cache.evictions");
  metric_aborted_fills_ = reg.GetCounter("snapshot.delta_cache.aborted_fills");
  metric_pages_rescanned_ =
      reg.GetCounter("snapshot.delta_cache.pages_rescanned");
  metric_pages_reused_ = reg.GetCounter("snapshot.delta_cache.pages_reused");
  metric_bytes_ = reg.GetGauge("snapshot.delta_cache.bytes");
  metric_classes_ = reg.GetGauge("snapshot.delta_cache.classes");
}

DeltaCacheKey DeltaCache::KeyFor(const BaseTable& base,
                                 const SnapshotDescriptor& desc) {
  return DeltaCacheKey{base.info()->id, desc.restriction_text,
                       desc.projection};
}

bool DeltaCache::SameClass(const SnapshotDescriptor& a,
                           const SnapshotDescriptor& b) {
  return a.restriction_text == b.restriction_text &&
         a.projection == b.projection;
}

size_t DeltaCache::KeyBytes(const DeltaCacheKey& key) {
  size_t n = sizeof(ClassEntry) + key.restriction_text.size();
  for (const std::string& col : key.projection) n += col.size() + 32;
  return n;
}

bool DeltaCache::CanServe(const BaseTable& base,
                          const SnapshotDescriptor& desc) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(KeyFor(base, desc));
  return it != classes_.end() && it->second.heap_id == base.info()->heap->id() &&
         it->second.valid_tick == base.mutation_tick();
}

std::unique_ptr<DeltaCache::Splice> DeltaCache::BeginSplice(
    const BaseTable& base, const SnapshotDescriptor& desc, uint64_t cut_tick,
    Timestamp fixup_time) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Splice> s(new Splice());
  s->key_ = KeyFor(base, desc);
  s->heap_id_ = base.info()->heap->id();
  s->cache_ = this;
  s->upper_ = fixup_time;
  auto it = classes_.find(s->key_);
  if (it == classes_.end()) return s;
  ClassEntry& cls = it->second;
  // A clock value only orders changes of the heap that took it.
  if (cls.heap_id != s->heap_id_) return s;
  s->current_ = cls.valid_tick == base.mutation_tick();
  if (!s->current_) {
    // The splice builds into the buffers of the image before last, sized
    // like the old image with room to grow: steady refreshes allocate no
    // image memory.
    s->next_ = std::move(cls.spare);
    s->next_.rows.clear();
    s->next_.arena.clear();
    s->next_.rows.reserve(cls.image.rows.size() +
                          cls.image.rows.size() / 16);
    s->next_.arena.reserve(cls.image.arena.size() +
                           cls.image.arena.size() / 16);
    // An image of a later cut (a resumed session's older epoch) cannot
    // stand in for this one's clean pages.
    if (cls.valid_tick > cut_tick) return s;
  }
  s->prior_ = &cls.image;
  s->prior_tick_ = cls.valid_tick;
  if (!cls.epochs.empty()) s->lower_ = cls.epochs.back().upper;
  cls.last_used = ++use_clock_;
  // Pin the borrowed image: a concurrent refresh of another table must not
  // evict it while this one reads it.
  ++cls.pins;
  s->pinned_ = true;
  return s;
}

DeltaCache::Splice::~Splice() {
  if (cache_ != nullptr && pinned_) cache_->Unpin(key_);
}

DeltaCache::Splice::PriorRun DeltaCache::Splice::FindPrior(
    PageId first_page, PageId last_page) const {
  PriorRun run;
  if (prior_ == nullptr) return run;
  const std::vector<Row>& rows = prior_->rows;
  const auto begin = std::partition_point(
      rows.begin(), rows.end(),
      [&](const Row& r) { return r.addr.page() < first_page; });
  const auto end = std::partition_point(
      begin, rows.end(),
      [&](const Row& r) { return r.addr.page() <= last_page; });
  run.begin = static_cast<size_t>(begin - rows.begin());
  run.end = static_cast<size_t>(end - rows.begin());
  if (run.empty()) return run;
  run.first = begin->addr;
  run.first_prev =
      run.begin == 0 ? Address::Origin() : rows[run.begin - 1].addr;
  run.first_ts = begin->ts;
  run.last = rows[run.end - 1].addr;
  return run;
}

bool DeltaCache::Splice::Ascends(Address addr) {
  // The image is built by appending, and the replay relies on address
  // order: a walk that does not go strictly upwards cannot build it.
  if (!next_.rows.empty() && !(next_.rows.back().addr < addr)) failed_ = true;
  return !failed_;
}

void DeltaCache::Splice::CopyPrior(const PriorRun& run, Address first,
                                   Timestamp ts, Timestamp anchor_ts) {
  if (run.empty() || failed_) return;
  // A run the old image does not hold means the caller's page walk and
  // this image disagree: refuse the splice rather than serve a stream
  // that could diverge.
  if (prior_ == nullptr || run.end > prior_->rows.size() ||
      run.begin > run.end || !(prior_->rows[run.begin].addr == first)) {
    failed_ = true;
    return;
  }
  if (!Ascends(first)) return;
  const Row* src = prior_->rows.data();
  const size_t arena_from = src[run.begin].off;
  const size_t arena_to = src[run.end - 1].off + src[run.end - 1].len;
  const size_t at = next_.rows.size();
  // Payloads of consecutive rows are contiguous in the arena: the run
  // moves as one block, its offsets shifted by one delta.
  const size_t shift = next_.arena.size();
  next_.arena.append(prior_->arena, arena_from, arena_to - arena_from);
  next_.rows.insert(next_.rows.end(), src + run.begin, src + run.end);
  for (size_t i = at; i < next_.rows.size(); ++i) {
    next_.rows[i].off = next_.rows[i].off - arena_from + shift;
  }
  next_.rows[at].ts = ts;
  next_.rows[at].anchor_ts = anchor_ts;
  if (anchor_ts != ts) reanchored_.push_back(at);
  const size_t n = run.end - run.begin;
  reused_rows_ += n;
  bytes_ += n * kRowOverhead + (arena_to - arena_from);
}

void DeltaCache::Splice::Append(Address addr, Timestamp ts,
                                Timestamp anchor_ts, bool qualified,
                                std::string_view payload) {
  if (failed_ || !Ascends(addr)) return;
  ++rescanned_rows_;
  if (anchor_ts != ts) reanchored_.push_back(next_.rows.size());
  Row row{addr, ts, anchor_ts, next_.arena.size(), 0, qualified};
  if (qualified) {
    row.len = static_cast<uint32_t>(payload.size());
    next_.arena.append(payload);
  }
  bytes_ += kRowOverhead + row.len;
  next_.rows.push_back(row);
}

Status DeltaCache::ServeGroup(const RefreshExecution& exec,
                              std::vector<ServeTarget>* targets) {
  SNAPDIFF_FR_SCOPED_SPAN(fr_span, "delta_cache.serve");
  bool hit = true;
  for (const ServeTarget& t : *targets) hit = hit && t.image->current();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ServeTarget& t : *targets) {
      if (t.image->failed_) {
        AbortLocked(t.image->key_);
        return Status::Internal("delta cache splice inconsistent");
      }
    }
    for (ServeTarget& t : *targets) {
      if (hit) {
        ++stats_.hits;
        metric_hits_->Inc();
        t.stats->served_from_cache = true;
      } else if (!t.image->current()) {
        ++stats_.misses;
        metric_misses_->Inc();
      }
    }
  }

  // Per-target replay state: the image cursor plus Figure 3's transmit
  // state (LastQual, Deletion flag).
  struct Replay {
    const Image* image = nullptr;
    size_t next = 0;  // first row not yet replayed
    Address lq = Address::Origin();
    bool deletion = false;

    const Row* head() const {
      return next < image->rows.size() ? &image->rows[next] : nullptr;
    }
  };
  std::vector<Replay> replays;
  replays.reserve(targets->size());
  for (const ServeTarget& t : *targets) {
    replays.push_back(Replay{&t.image->image(), 0, Address::Origin(), false});
  }

  // Figure 3's BaseRefresh transmit rule, replayed over the images instead
  // of the base table. Every image holds each live row's exact post-fixup
  // timestamp and qualification, so this emits precisely the streams a
  // fresh combined fix-up + transmit scan would. The anchor rule's "value
  // unchanged" test reads the stamp the row stored before this refresh's
  // repairs (Row::anchor_ts), as the scan does.
  //
  // Ordering matters beyond per-member correctness: members sharing one
  // sink (the legacy single-stream group wire) must see the scan's global
  // interleaving, which is address-major, member-minor. Images of one cut
  // of one table cover the same live rows, so this k-way merge is normally
  // a lockstep walk; the min-address form stays exact even if a class ever
  // held a divergent key set.
  while (true) {
    Address addr = Address::Null();
    for (const Replay& r : replays) {
      const Row* head = r.head();
      if (head != nullptr && head->addr < addr) addr = head->addr;
    }
    if (addr == Address::Null()) break;
    for (size_t i = 0; i < replays.size(); ++i) {
      Replay& r = replays[i];
      const Row* head = r.head();
      if (head == nullptr || !(head->addr == addr)) continue;
      const Row& row = *head;
      ++r.next;
      ServeTarget& t = (*targets)[i];
      if (row.qualified) {
        if (row.ts > t.snap_time || r.deletion) {
          std::string payload;
          const bool value_unchanged = row.anchor_ts <= t.snap_time;
          if (t.desc->anchor_optimization && value_unchanged) {
            ++t.stats->anchor_messages;
          } else if (!NextSendSuppressed(exec)) {
            payload = r.image->payload(row);
          }
          RETURN_IF_ERROR(t.sink->Send(
              MakeEntry(t.desc->id, addr, r.lq, std::move(payload))));
        }
        r.lq = addr;
        r.deletion = false;
      } else if (row.ts > t.snap_time) {
        r.deletion = true;
      }
    }
  }
  for (size_t i = 0; i < replays.size(); ++i) {
    *(*targets)[i].last_qual = replays[i].lq;
  }
  return Status::OK();
}

void DeltaCache::CountPages(uint64_t rescanned, uint64_t reused) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.pages_rescanned += rescanned;
  stats_.pages_reused += reused;
  metric_pages_rescanned_->Inc(rescanned);
  metric_pages_reused_->Inc(reused);
}

void DeltaCache::CommitSplice(std::unique_ptr<Splice> splice,
                              uint64_t base_tick) {
  if (splice == nullptr) return;
  SNAPDIFF_FR_SCOPED_SPAN(fr_span, "delta_cache.fill");
  std::lock_guard<std::mutex> lock(mu_);
  auto prior = classes_.find(splice->key_);
  if (splice->pinned_ && prior != classes_.end()) --prior->second.pins;
  splice->pinned_ = false;
  if (splice->failed_) {
    AbortLocked(splice->key_);
    return;
  }
  if (splice->current_) return;
  ClassEntry& cls =
      prior != classes_.end()
          ? prior->second
          : classes_.emplace(splice->key_, ClassEntry{}).first->second;
  total_bytes_ -= cls.bytes;
  cls.spare = std::move(cls.image);
  cls.image = std::move(splice->next_);
  // Installed: the repairs the anchor stamps stood in for have landed.
  for (size_t i : splice->reanchored_) {
    cls.image.rows[i].anchor_ts = cls.image.rows[i].ts;
  }
  cls.bytes = splice->bytes_ + KeyBytes(splice->key_);
  cls.heap_id = splice->heap_id_;
  cls.valid_tick = base_tick;
  cls.last_used = ++use_clock_;
  cls.epochs.push_back(Epoch{splice->lower_, splice->upper_,
                             splice->rescanned_rows_, splice->reused_rows_});
  while (cls.epochs.size() > kEpochLedger) cls.epochs.pop_front();
  total_bytes_ += cls.bytes;
  ++stats_.fills;
  metric_fills_->Inc();
  EvictOverBudget();
  UpdateGauges();
}

void DeltaCache::EvictOverBudget() {
  while (budget_ > 0 && total_bytes_ > budget_ && !classes_.empty()) {
    auto victim = classes_.end();
    for (auto it = classes_.begin(); it != classes_.end(); ++it) {
      if (it->second.pins > 0) continue;  // image borrowed by a splice
      if (victim == classes_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == classes_.end()) break;  // everything pinned; over budget
    ++stats_.evictions;
    metric_evictions_->Inc();
    SNAPDIFF_LOG(Debug) << "delta cache eviction"
                        << obs::kv("restriction",
                                   victim->first.restriction_text)
                        << obs::kv("bytes", victim->second.bytes);
    RemoveClass(victim);
  }
}

void DeltaCache::RemoveClass(
    std::map<DeltaCacheKey, ClassEntry>::iterator it) {
  total_bytes_ -= it->second.bytes;
  classes_.erase(it);
  UpdateGauges();
}

void DeltaCache::AbortLocked(const DeltaCacheKey& key) {
  ++stats_.aborted_fills;
  metric_aborted_fills_->Inc();
  // The walk and the old image disagree, so the old image cannot be
  // trusted either: drop the class rather than keep unserveable bytes.
  auto it = classes_.find(key);
  if (it != classes_.end()) RemoveClass(it);
  SNAPDIFF_LOG(Warn) << "delta cache fill aborted"
                     << obs::kv("restriction", key.restriction_text);
}

void DeltaCache::Unpin(const DeltaCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(key);
  if (it != classes_.end() && it->second.pins > 0) --it->second.pins;
}

void DeltaCache::UpdateGauges() {
  metric_bytes_->Set(static_cast<int64_t>(total_bytes_));
  metric_classes_->Set(static_cast<int64_t>(classes_.size()));
}

DeltaCache::StatsSnapshot DeltaCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked();
}

DeltaCache::StatsSnapshot DeltaCache::StatsLocked() const {
  StatsSnapshot s = stats_;
  s.classes = classes_.size();
  s.bytes = total_bytes_;
  s.epochs = 0;
  for (const auto& [key, cls] : classes_) s.epochs += cls.epochs.size();
  return s;
}

std::string DeltaCache::DebugString() const {
  std::lock_guard<std::mutex> lock(mu_);
  const StatsSnapshot s = StatsLocked();
  std::string out = "delta cache: " + std::to_string(s.classes) +
                    " classes, " + std::to_string(s.bytes) + " bytes";
  if (budget_ > 0) {
    out += " / " + std::to_string(budget_) + " budget";
  } else {
    out += " (unbounded)";
  }
  out += "\n  hits=" + std::to_string(s.hits) +
         " misses=" + std::to_string(s.misses) +
         " fills=" + std::to_string(s.fills) +
         " evictions=" + std::to_string(s.evictions) +
         " aborted=" + std::to_string(s.aborted_fills) +
         " pages_rescanned=" + std::to_string(s.pages_rescanned) +
         " pages_reused=" + std::to_string(s.pages_reused) + "\n";
  for (const auto& [key, cls] : classes_) {
    out += "  [table " + std::to_string(key.table_id) + "] \"" +
           key.restriction_text +
           "\": " + std::to_string(cls.image.rows.size()) + " rows, " +
           std::to_string(cls.bytes) + " bytes, epochs";
    for (const Epoch& e : cls.epochs) {
      out += " (" + std::to_string(e.lower) + "," + std::to_string(e.upper) +
             "]";
    }
    if (!cls.epochs.empty()) {
      out += ", last rows rescanned=" +
             std::to_string(cls.epochs.back().rows_changed) +
             " reused=" + std::to_string(cls.epochs.back().rows_reused);
    }
    out += "\n";
  }
  return out;
}

void DeltaCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  classes_.clear();
  total_bytes_ = 0;
  UpdateGauges();
}

}  // namespace snapdiff
