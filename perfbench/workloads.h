#ifndef SNAPBENCH_WORKLOADS_H_
#define SNAPBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench_common.h"

namespace snapbench {

/// Each runner performs its set-ups, the measured phase and the replica
/// check, and fills `out`: the end-to-end metrics when !args.trace, the
/// per-layer ones otherwise. Returns 0, or nonzero when set-up failed.
int RunScanSparse(const RunArgs& args, Outcome* out);
int RunServedFanout(const RunArgs& args, Outcome* out);

/// trace.* metrics from the outside-in spans: self time per traced round
/// of the root span `root`, of each child in `children` and of "write";
/// the share of the root not covered by its children; and the traced vs
/// interleaved untraced root latency.
void AddTraceMetrics(const std::vector<const SpanLog*>& logs,
                     uint64_t traced_rounds, const Samples& traced_ms,
                     const Samples& untraced_ms, const std::string& root,
                     const std::vector<std::string>& children, Outcome* out);

}  // namespace snapbench

#endif  // SNAPBENCH_WORKLOADS_H_
