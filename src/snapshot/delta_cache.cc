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
  return it != classes_.end() && it->second.valid_tick == base.mutation_tick();
}

Status DeltaCache::ServeGroup(const BaseTable& base,
                              const RefreshExecution& exec,
                              std::vector<ServeTarget>* targets) {
  SNAPDIFF_FR_SCOPED_SPAN(fr_span, "delta_cache.serve");
  std::lock_guard<std::mutex> lock(mu_);

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
  for (ServeTarget& t : *targets) {
    auto it = classes_.find(KeyFor(base, *t.desc));
    if (it == classes_.end() ||
        it->second.valid_tick != base.mutation_tick()) {
      return Status::Internal(
          "delta cache serve without a current image (CanServe not checked?)");
    }
    ClassEntry& cls = it->second;
    cls.last_used = ++use_clock_;
    ++stats_.hits;
    metric_hits_->Inc();
    t.stats->served_from_cache = true;
    replays.push_back(Replay{&cls.image, 0, Address::Origin(), false});
  }

  // Figure 3's BaseRefresh transmit rule, replayed over the images instead
  // of the base table. Because every current image holds each live row's
  // exact post-fixup timestamp and qualification, this emits precisely the
  // streams a fresh combined fix-up + transmit scan would — and since the
  // base is unchanged since those fix-ups, the scan would repair nothing,
  // so the anchor rule's "annotations intact" precondition holds for every
  // row and value-unchangedness reduces to ts <= SnapTime.
  //
  // Ordering matters beyond per-member correctness: members sharing one
  // sink (the legacy single-stream group wire) must see the scan's global
  // interleaving, which is address-major, member-minor. Current images of
  // one table cover the same live rows, so this k-way merge is normally a
  // lockstep walk; the min-address form stays exact even if a class ever
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
          const bool value_unchanged = row.ts <= t.snap_time;
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

void DeltaCache::CountMiss() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  metric_misses_->Inc();
}

DeltaCache::Filler::~Filler() {
  if (cache_ != nullptr && pinned_) cache_->Unpin(key_);
}

const DeltaCache::Row* DeltaCache::Filler::SeekPrior(Address addr) {
  if (prior_ == nullptr) return nullptr;
  const std::vector<Row>& rows = prior_->rows;
  while (cursor_ < rows.size() && rows[cursor_].addr < addr) ++cursor_;
  if (cursor_ == rows.size() || !(rows[cursor_].addr == addr)) return nullptr;
  return &rows[cursor_];
}

void DeltaCache::Filler::Observe(Address addr, Timestamp ts, bool qualified,
                                 bool unchanged, std::string_view payload) {
  if (failed_) return;
  // The image is built by appending, and both the replay and the reuse
  // cursor rely on address order: a scan that does not walk strictly
  // upwards cannot fill it.
  if (!image_.rows.empty() && !(image_.rows.back().addr < addr)) {
    failed_ = true;
    return;
  }
  if (unchanged) {
    ++reused_;
    if (qualified) {
      // The value is unchanged since the previous image, so that image must
      // hold this row with this payload. A miss here means the caller's
      // reuse condition and the cache's epoch bookkeeping disagree — refuse
      // the fill rather than serve a stream that could diverge.
      const Row* prior = SeekPrior(addr);
      if (prior == nullptr || !prior->qualified) {
        failed_ = true;
        return;
      }
      payload = prior_->payload(*prior);
    }
  } else {
    ++changed_;
  }
  Row row{addr, ts, image_.arena.size(), 0, qualified};
  if (qualified) {
    row.len = static_cast<uint32_t>(payload.size());
    image_.arena.append(payload);
  }
  bytes_ += kRowOverhead + row.len;
  image_.rows.push_back(row);
}

std::unique_ptr<DeltaCache::Filler> DeltaCache::BeginFill(
    const BaseTable& base, const SnapshotDescriptor& desc,
    Timestamp fixup_time) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Filler> f(new Filler());
  f->key_ = KeyFor(base, desc);
  f->cache_ = this;
  f->upper_ = fixup_time;
  auto it = classes_.find(f->key_);
  if (it != classes_.end() && !it->second.epochs.empty()) {
    f->prior_ = &it->second.image;
    f->floor_ = it->second.epochs.back().upper;
    // The table rarely changes size much between epochs: size the new
    // image like the old one so the fill appends without regrowing.
    f->image_.rows.reserve(f->prior_->rows.size());
    f->image_.arena.reserve(f->prior_->arena.size());
    // Pin the borrowed image: a concurrent fill of another table must not
    // evict it while this scan reads reuse payloads from it.
    ++it->second.fill_pins;
    f->pinned_ = true;
  }
  return f;
}

void DeltaCache::CommitFill(std::unique_ptr<Filler> filler,
                            uint64_t base_tick) {
  if (filler == nullptr) return;
  SNAPDIFF_FR_SCOPED_SPAN(fr_span, "delta_cache.fill");
  std::lock_guard<std::mutex> lock(mu_);
  auto prior = classes_.find(filler->key_);
  if (filler->pinned_ && prior != classes_.end()) {
    --prior->second.fill_pins;
  }
  filler->pinned_ = false;
  if (filler->failed_) {
    ++stats_.aborted_fills;
    metric_aborted_fills_->Inc();
    // The old image is stale (the scan that filled us only runs when the
    // base changed), so drop it rather than keep unserveable bytes.
    if (prior != classes_.end()) RemoveClass(prior);
    SNAPDIFF_LOG(Warn) << "delta cache fill aborted"
                       << obs::kv("restriction",
                                  filler->key_.restriction_text);
    return;
  }
  ClassEntry& cls =
      prior != classes_.end()
          ? prior->second
          : classes_.emplace(filler->key_, ClassEntry{}).first->second;
  total_bytes_ -= cls.bytes;
  cls.image = std::move(filler->image_);
  cls.bytes = filler->bytes_ + KeyBytes(filler->key_);
  cls.valid_tick = base_tick;
  cls.last_used = ++use_clock_;
  cls.epochs.push_back(Epoch{filler->floor_, filler->upper_,
                             filler->changed_, filler->reused_});
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
      if (it->second.fill_pins > 0) continue;  // image borrowed by a fill
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

void DeltaCache::Unpin(const DeltaCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(key);
  if (it != classes_.end() && it->second.fill_pins > 0) {
    --it->second.fill_pins;
  }
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
         " aborted=" + std::to_string(s.aborted_fills) + "\n";
  for (const auto& [key, cls] : classes_) {
    out += "  [table " + std::to_string(key.table_id) + "] \"" +
           key.restriction_text +
           "\": " + std::to_string(cls.image.rows.size()) + " rows, " +
           std::to_string(cls.bytes) + " bytes, epochs";
    for (const Epoch& e : cls.epochs) {
      out += " (" + std::to_string(e.lower) + "," + std::to_string(e.upper) +
             "]";
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
