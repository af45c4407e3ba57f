// Shared plumbing of the snapbench workloads: run arguments, wall clock,
// latency samples, outside-in spans, metric output and the seeded row
// generator. Everything here lives in the benchmark; nothing in it reaches
// into the program below the public API.

#ifndef SNAPBENCH_BENCH_COMMON_H_
#define SNAPBENCH_BENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tuple.h"
#include "common/random.h"

namespace snapbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's files (the traced run's span dump).
  std::string out_dir;
};

/// Monotonic wall clock in microseconds.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A latency sample. A failed operation enters as +infinity, so it counts
/// as missing every limit instead of vanishing from the percentiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void AddFailure();
  size_t size() const { return v_.size(); }
  const std::vector<double>& values() const { return v_; }
  /// Nearest-rank percentile, p in (0, 1]. 0 when empty.
  double Percentile(double p) const;
  /// Samples strictly above the p-percentile (the tail a percentile rests
  /// on; the benchmark sizes runs so the reported tails keep >= 10).
  size_t Beyond(double p) const;

 private:
  std::vector<double> v_;
};

/// The measured phase is cut into this many equal windows for the
/// end-to-end percentiles (see WindowedSamples). Three keep at least 10
/// samples beyond each window's refresh p90 on every workload.
constexpr int kWindows = 3;

/// A latency sample of the measured phase, kept per window. Its percentiles
/// are the median over windows of each window's percentile, so a slowdown
/// that covers only one window does not move them, whether the host or the
/// program causes it. On the 4-vCPU VM the benchmark was tuned on, host
/// slowdowns raised whole-run refresh p90 by up to 60 % in some runs.
class WindowedSamples {
 public:
  /// Windows are `seconds / kWindows` long from `start_us`; samples before
  /// Start or past the last window land in the first or last one.
  void Start(double start_us, double seconds);
  void Add(double v, double at_us) { w_[Index(at_us)].Add(v); }
  void AddFailure(double at_us) { w_[Index(at_us)].AddFailure(); }
  /// Adds `o`'s samples window by window (same Start assumed).
  void Merge(const WindowedSamples& o);
  double Percentile(double p) const;
  /// The fewest samples beyond the p-percentile in any non-empty window.
  size_t MinBeyond(double p) const;
  size_t size() const;

 private:
  size_t Index(double at_us) const;
  double start_us_ = 0.0;
  double window_us_ = 1.0;
  std::vector<Samples> w_ = std::vector<Samples>(kWindows);
};

/// One outside-in span: a timed call into a public function of a layer.
/// `parent` is 0 for a root. Ids are unique across all threads of a run.
struct Span {
  const char* name = nullptr;
  uint64_t id = 0;
  uint64_t parent = 0;
  double t0_us = 0.0;
  double t1_us = 0.0;
};

/// Per-thread, in-memory span store. Never shared between threads while
/// recording; merged and written once after the measured phase.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent);
  void End(uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices of spans not yet ended
};

/// Summed over all spans of one name, in microseconds: self time (each
/// span's duration minus the union of its children's intervals) and total
/// duration.
struct SpanTime {
  double self_us = 0.0;
  double total_us = 0.0;
};
std::map<std::string, SpanTime> ComputeSelfTimes(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as a Chrome trace-event JSON file (one array),
/// <out_dir>/spans-<workload>.json.
void WriteSpans(const RunArgs& args, const std::vector<const SpanLog*>& logs);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  bool correct = true;
  std::string mismatch;  // why `correct` is false
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed as metric lines for people and the repeat driver, but kept
  /// out of the result object (sample counts, generator health).
  std::vector<Metric> notes;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(const std::string& why) {
    correct = false;
    if (mismatch.empty()) mismatch = why;
  }
};

/// Inputs of the end-to-end metrics every workload reports.
struct EndToEnd {
  double setup_s = 0.0;
  const WindowedSamples* refresh_ms = nullptr;
  const WindowedSamples* write_us = nullptr;
  uint64_t changes = 0;        // base changes made visible at replicas
  double refresh_wall_s = 0.0;  // summed over the refreshes carrying them
  uint64_t wire_bytes = 0;
};
/// Adds setup_s ... ok_frac; ok_frac comes from out->attempted/failed,
/// which must already be set.
void AddEndToEnd(const EndToEnd& e, Outcome* out);

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Median of a small vector (setup repetitions).
double Median(std::vector<double> v);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// The narrow/wide row shape every workload uses: Id INT64, Qual INT64
/// (uniform in [0, kQualDomain), the restriction column), Payload STRING.
constexpr int64_t kQualDomain = 1 << 20;
snapdiff::Schema RowSchema();
std::string RestrictionFor(double selectivity);

class RowGen {
 public:
  RowGen(uint64_t seed, size_t payload_bytes)
      : rng_(seed), payload_bytes_(payload_bytes) {}
  /// A fresh row with identity `id`: Qual and Payload are redrawn, so an
  /// update built from it can move the row across any Qual restriction.
  snapdiff::Tuple Row(int64_t id);
  snapdiff::Random& rng() { return rng_; }

 private:
  snapdiff::Random rng_;
  size_t payload_bytes_;
};

}  // namespace snapbench

#endif  // SNAPBENCH_BENCH_COMMON_H_
