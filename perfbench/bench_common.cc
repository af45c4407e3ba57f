#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>

namespace snapbench {

using namespace snapdiff;

void Samples::AddFailure() {
  v_.push_back(std::numeric_limits<double>::infinity());
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  const size_t rank = static_cast<size_t>(std::ceil(p * double(s.size())));
  const size_t idx = std::min(s.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(s.begin(), s.begin() + static_cast<ptrdiff_t>(idx),
                   s.end());
  return s[idx];
}

size_t Samples::Beyond(double p) const {
  const double cut = Percentile(p);
  return static_cast<size_t>(
      std::count_if(v_.begin(), v_.end(), [&](double x) { return x > cut; }));
}

void WindowedSamples::Start(double start_us, double seconds) {
  start_us_ = start_us;
  window_us_ = seconds * 1e6 / kWindows;
}

size_t WindowedSamples::Index(double at_us) const {
  const double i = (at_us - start_us_) / window_us_;
  if (!(i > 0.0)) return 0;
  return std::min(w_.size() - 1, static_cast<size_t>(i));
}

void WindowedSamples::Merge(const WindowedSamples& o) {
  for (size_t i = 0; i < w_.size(); ++i) {
    for (double v : o.w_[i].values()) w_[i].Add(v);
  }
}

double WindowedSamples::Percentile(double p) const {
  std::vector<double> per_window;
  for (const Samples& s : w_) {
    if (s.size() > 0) per_window.push_back(s.Percentile(p));
  }
  return Median(per_window);
}

size_t WindowedSamples::MinBeyond(double p) const {
  size_t fewest = 0;
  bool any = false;
  for (const Samples& s : w_) {
    if (s.size() == 0) continue;
    fewest = any ? std::min(fewest, s.Beyond(p)) : s.Beyond(p);
    any = true;
  }
  return fewest;
}

size_t WindowedSamples::size() const {
  size_t n = 0;
  for (const Samples& s : w_) n += s.size();
  return n;
}

namespace {

/// Span ids are unique across the threads of a run.
uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

uint64_t SpanLog::Begin(const char* name, uint64_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.id = NextSpanId();
  s.parent = parent;
  s.t0_us = NowUs();
  open_.push_back(spans_.size());
  spans_.push_back(s);
  return s.id;
}

void SpanLog::End(uint64_t id) {
  if (!enabled_) return;
  const double now = NowUs();
  for (size_t k = open_.size(); k > 0; --k) {
    Span& s = spans_[open_[k - 1]];
    if (s.id == id) {
      s.t1_us = now;
      open_.erase(open_.begin() + static_cast<ptrdiff_t>(k - 1));
      return;
    }
  }
}

std::map<std::string, SpanTime> ComputeSelfTimes(
    const std::vector<const SpanLog*>& logs) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent != 0) kids[s.parent].push_back({s.t0_us, s.t1_us});
    }
  }
  std::map<std::string, SpanTime> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      const double dur = s.t1_us - s.t0_us;
      double covered = 0.0;
      auto it = kids.find(s.id);
      if (it != kids.end()) {
        // Union of the children's intervals, clipped to the parent:
        // concurrent children (three clients under one round) count once.
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        double lo = -1.0, hi = -1.0;
        for (auto [a, b] : iv) {
          a = std::max(a, s.t0_us);
          b = std::min(b, s.t1_us);
          if (b <= a) continue;
          if (a > hi) {
            if (hi > lo) covered += hi - lo;
            lo = a;
            hi = b;
          } else {
            hi = std::max(hi, b);
          }
        }
        if (hi > lo) covered += hi - lo;
      }
      SpanTime& t = out[s.name];
      t.self_us += dur - covered;
      t.total_us += dur;
    }
  }
  return out;
}

void WriteSpans(const RunArgs& args, const std::vector<const SpanLog*>& logs) {
  const std::string path = args.out_dir + "/spans-" + args.workload + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fputs("[", f);
  bool first = true;
  uint64_t tid = 0;
  for (const SpanLog* log : logs) {
    ++tid;
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}",
                   first ? "" : ",", s.name,
                   static_cast<unsigned long long>(tid), s.t0_us,
                   s.t1_us - s.t0_us, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fputs("\n]\n", f);
  if (std::fclose(f) != 0) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

void AddEndToEnd(const EndToEnd& e, Outcome* out) {
  out->Add("setup_s", e.setup_s, "s");
  out->Add("refresh_p50_ms", e.refresh_ms->Percentile(0.50), "ms");
  out->Add("refresh_p90_ms", e.refresh_ms->Percentile(0.90), "ms");
  out->Add("write_p50_us", e.write_us->Percentile(0.50), "us");
  out->Add("write_p99_us", e.write_us->Percentile(0.99), "us");
  out->Add("changes_per_s",
           e.refresh_wall_s > 0 ? double(e.changes) / e.refresh_wall_s : 0.0,
           "1/s");
  out->Add("wire_bytes_per_change",
           e.changes > 0 ? double(e.wire_bytes) / double(e.changes) : 0.0,
           "B");
  out->Add("peak_rss_mb", PeakRssMb(), "MiB");
  out->Add("ok_frac",
           out->attempted > 0
               ? 1.0 - double(out->failed) / double(out->attempted)
               : 0.0,
           "1");
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

Schema RowSchema() {
  return Schema({{"Id", TypeId::kInt64, false},
                 {"Qual", TypeId::kInt64, false},
                 {"Payload", TypeId::kString, false}});
}

std::string RestrictionFor(double selectivity) {
  return "Qual < " + std::to_string(static_cast<int64_t>(
                         std::llround(selectivity * double(kQualDomain))));
}

Tuple RowGen::Row(int64_t id) {
  std::string payload(payload_bytes_, 'x');
  for (char& c : payload) c = static_cast<char>('a' + rng_.Uniform(26));
  return Tuple({Value::Int64(id),
                Value::Int64(static_cast<int64_t>(
                    rng_.Uniform(static_cast<uint64_t>(kQualDomain)))),
                Value::String(std::move(payload))});
}

}  // namespace snapbench
