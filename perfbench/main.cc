// snapbench: the benchmark program behind perfbench/run.py.
//
//   snapbench --workload <scan_sparse|served_fanout> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir>
//
// Runs one workload in this process: its set-ups, a measured phase of
// --seconds, and the replica check. Prints every metric as
// "metric <name> <value> <unit>" and, as the last line of stdout, one JSON
// object {correct, attempted, failed, metrics}. --trace 0 reports the
// end-to-end metrics; --trace 1 reruns the workload with outside-in spans
// and reports the per-layer metrics (perfbench/run.py checks the names
// against BENCHMARK.json and reports the ones a workload does not run as
// 0). Exits 1 when a replica differs from
// SnapshotSystem::ExpectedContents, 2 when set-up fails or the arguments
// are bad.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "obs/flight_recorder.h"
#include "workloads.h"

namespace snapbench {

namespace {

/// A non-finite value (a percentile landing on a failed sample) has no
/// JSON spelling; it is printed as this sentinel.
constexpr double kFailedSentinel = 1e300;

void PrintJsonNumber(double v) {
  if (!std::isfinite(v)) v = kFailedSentinel;
  std::printf("%.17g", v);
}

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(val, "0") != 0;
    } else if (key == "--out-dir") {
      args->out_dir = val;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0 && !args->out_dir.empty() &&
         argc % 2 == 1;
}

}  // namespace

void AddTraceMetrics(const std::vector<const SpanLog*>& logs,
                     uint64_t traced_rounds, const Samples& traced_ms,
                     const Samples& untraced_ms, const std::string& root,
                     const std::vector<std::string>& children, Outcome* out) {
  std::map<std::string, SpanTime> st = ComputeSelfTimes(logs);
  const double rounds = traced_rounds > 0 ? double(traced_rounds) : 1.0;
  out->Add("trace.self_ms." + root, st[root].self_us / 1e3 / rounds, "ms");
  for (const std::string& c : children) {
    out->Add("trace.self_ms." + c, st[c].self_us / 1e3 / rounds, "ms");
  }
  out->Add("trace.self_ms.write", st["write"].self_us / 1e3 / rounds, "ms");
  const SpanTime& r = st[root];
  out->Add("trace.reconcile_gap_pct",
           r.total_us > 0 ? 100.0 * r.self_us / r.total_us : 0.0, "%");
  const double untraced = untraced_ms.Percentile(0.5);
  out->Add("trace.overhead_pct",
           untraced > 0 ? 100.0 * (traced_ms.Percentile(0.5) / untraced - 1.0)
                        : 0.0,
           "%");
}

}  // namespace snapbench

int main(int argc, char** argv) {
  using namespace snapbench;
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out-dir <dir>\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  Outcome out;
  int rc = 2;
  if (args.workload == "scan_sparse") {
    rc = RunScanSparse(args, &out);
  } else if (args.workload == "served_fanout") {
    rc = RunServedFanout(args, &out);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  }
  if (rc != 0) return rc;

  if (args.trace) {
    uint64_t dropped = 0;
    for (const auto& track : snapdiff::obs::FlightRecorder::Global().Drain()) {
      dropped += track.dropped_events;
    }
    out.Add("obs.recorder.dropped_events", double(dropped), "count");
  }
  for (const auto* list : {&out.metrics, &out.notes}) {
    for (const Metric& m : *list) {
      std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  if (!out.correct) {
    std::printf("MISMATCH in workload %s: %s\n", args.workload.c_str(),
                out.mismatch.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    PrintJsonNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
