// Microbenchmark for the zero-copy scan pipeline: scans one annotated base
// table two ways over identical data and timing loops —
//
//   materialize: cursor -> byte-string copy -> Tuple::Deserialize ->
//                predicate on the owning Tuple -> Project + Serialize
//                (the pre-refactor per-row hot path), vs.
//   view:        pinned cursor -> TupleView split -> predicate on the view
//                -> AppendProjectionTo into a reused buffer
//                (the zero-copy path the refresh executors now run).
//
// Both paths compute the same qualified count and byte-identical payloads
// (checksummed to keep the optimizer honest and prove stream equality).
//
// Usage: bench_scan [rows] [iters] [json_path] [warmup]
//   rows       base-table size                 (default 100000)
//   iters      measured scan rounds            (default 5)
//   json_path  output file                     (default BENCH_scan.json)
//   warmup     unmeasured rounds per path      (default 1)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/random.h"
#include "expr/parser.h"
#include "snapshot/snapshot_manager.h"

namespace snapdiff {
namespace {

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

struct PathResult {
  bench::SampleStats wall_us;
  double rows_per_sec = 0.0;  // from the mean wall time
  uint64_t qualified = 0;
  uint64_t checksum = 0;
};

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Result<PathResult> RunMaterializePath(BaseTable* base,
                                      const BoundExpression& restriction,
                                      const std::vector<std::string>& names,
                                      const Schema& projected_schema,
                                      int iters, int warmup, size_t rows) {
  PathResult out;
  std::vector<double> walls;
  for (int round = -warmup; round < iters; ++round) {
    uint64_t qualified = 0;
    uint64_t checksum = 1469598103934665603ULL;
    const auto t0 = std::chrono::steady_clock::now();
    RETURN_IF_ERROR(base->info()->heap->ForEach(
        [&](Address, std::string_view bytes) -> Status {
          // The pre-refactor shape: copy out of the frame, materialize an
          // owning Tuple, evaluate, project, serialize.
          std::string copied(bytes);
          ASSIGN_OR_RETURN(Tuple stored,
                           Tuple::Deserialize(base->stored_schema(), copied));
          Tuple user(std::vector<Value>(
              stored.values().begin(),
              stored.values().begin() +
                  static_cast<long>(base->user_schema().column_count())));
          ASSIGN_OR_RETURN(bool q, restriction.Qualifies(user));
          if (!q) return Status::OK();
          ASSIGN_OR_RETURN(Tuple projected,
                           user.Project(base->user_schema(), names));
          ASSIGN_OR_RETURN(std::string payload,
                           projected.Serialize(projected_schema));
          checksum = Fnv1a(checksum, payload);
          ++qualified;
          return Status::OK();
        }));
    const auto t1 = std::chrono::steady_clock::now();
    if (round >= 0) {
      walls.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    out.qualified = qualified;
    out.checksum = checksum;
  }
  out.wall_us = bench::Summarize(walls);
  out.rows_per_sec = double(rows) / (out.wall_us.mean / 1e6);
  return out;
}

Result<PathResult> RunViewPath(BaseTable* base,
                               const BoundExpression& restriction,
                               const std::vector<size_t>& indices, int iters,
                               int warmup, size_t rows) {
  PathResult out;
  std::vector<double> walls;
  std::string payload;
  payload.reserve(256);
  for (int round = -warmup; round < iters; ++round) {
    uint64_t qualified = 0;
    uint64_t checksum = 1469598103934665603ULL;
    const auto t0 = std::chrono::steady_clock::now();
    RETURN_IF_ERROR(base->ScanAnnotated(
        [&](Address, const BaseTable::AnnotatedView& row) -> Status {
          ASSIGN_OR_RETURN(bool q, restriction.Qualifies(row.user));
          if (!q) return Status::OK();
          payload.clear();
          RETURN_IF_ERROR(row.user.AppendProjectionTo(indices, &payload));
          checksum = Fnv1a(checksum, payload);
          ++qualified;
          return Status::OK();
        }));
    const auto t1 = std::chrono::steady_clock::now();
    if (round >= 0) {
      walls.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    out.qualified = qualified;
    out.checksum = checksum;
  }
  out.wall_us = bench::Summarize(walls);
  out.rows_per_sec = double(rows) / (out.wall_us.mean / 1e6);
  return out;
}

Status Run(size_t rows, int iters, int warmup,
           const std::string& json_path) {
  SnapshotSystem sys;
  ASSIGN_OR_RETURN(BaseTable * base, sys.CreateBaseTable("emp", EmpSchema()));
  Random rng(4242);
  for (size_t i = 0; i < rows; ++i) {
    RETURN_IF_ERROR(
        base->Insert(Tuple({Value::String("e" + std::to_string(i)),
                            Value::Int64(int64_t(rng.Uniform(1000)))}))
            .status());
  }
  // Annotate + repair so the scanned rows carry the funny columns, as in a
  // real refresh.
  RETURN_IF_ERROR(sys.CreateSnapshot("s", "emp", "Salary < 500").status());
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("s")).status());

  ASSIGN_OR_RETURN(ExprPtr parsed, ParsePredicate("Salary < 500"));
  ASSIGN_OR_RETURN(BoundExpression restriction,
                   parsed->Bind(base->user_schema()));
  const std::vector<std::string> names = {"Name", "Salary"};
  ASSIGN_OR_RETURN(Schema projected_schema,
                   base->user_schema().Project(names));
  std::vector<size_t> indices;
  for (const auto& n : names) {
    ASSIGN_OR_RETURN(size_t idx, base->user_schema().IndexOf(n));
    indices.push_back(idx);
  }

  // Warm the pool once so both paths measure pure buffer-pool hits.
  RETURN_IF_ERROR(base->info()->heap->ForEach(
      [](Address, std::string_view) { return Status::OK(); }));

  ASSIGN_OR_RETURN(PathResult mat,
                   RunMaterializePath(base, restriction, names,
                                      projected_schema, iters, warmup,
                                      rows));
  ASSIGN_OR_RETURN(PathResult view, RunViewPath(base, restriction, indices,
                                                iters, warmup, rows));

  if (mat.qualified != view.qualified || mat.checksum != view.checksum) {
    return Status::Internal("path divergence: materialize " +
                            std::to_string(mat.qualified) + "/" +
                            std::to_string(mat.checksum) + " vs view " +
                            std::to_string(view.qualified) + "/" +
                            std::to_string(view.checksum));
  }

  const double speedup = mat.wall_us.mean / view.wall_us.mean;
  std::printf("%-12s %14s %14s %14s %12s\n", "path", "scan_us_min",
              "scan_us_mean", "rows_per_sec", "qualified");
  std::printf("%-12s %14.1f %14.1f %14.0f %12llu\n", "materialize",
              mat.wall_us.min, mat.wall_us.mean, mat.rows_per_sec,
              static_cast<unsigned long long>(mat.qualified));
  std::printf("%-12s %14.1f %14.1f %14.0f %12llu\n", "view",
              view.wall_us.min, view.wall_us.mean, view.rows_per_sec,
              static_cast<unsigned long long>(view.qualified));
  std::printf("\nview-path speedup: %.2fx (byte-identical payload streams)\n",
              speedup);

  std::string json = "{\n";
  json += bench::ReportHeaderFields("scan");
  json += "  \"rows\": " + std::to_string(rows) + ",\n";
  json += "  \"iters\": " + std::to_string(iters) + ",\n";
  json += "  \"warmup\": " + std::to_string(warmup) + ",\n";
  json += "  \"selectivity\": \"Salary < 500 (~50%)\",\n";
  json += "  \"qualified\": " + std::to_string(view.qualified) + ",\n";
  json += "  \"payload_checksums_equal\": true,\n";
  json += "  \"materialize\": {\"scan_us\": " +
          bench::RenderStats(mat.wall_us) +
          ", \"rows_per_sec\": " + std::to_string(mat.rows_per_sec) + "},\n";
  json += "  \"view\": {\"scan_us\": " + bench::RenderStats(view.wall_us) +
          ", \"rows_per_sec\": " + std::to_string(view.rows_per_sec) + "},\n";
  json += "  \"speedup\": " + std::to_string(speedup) + "\n";
  json += "}\n";
  std::ofstream f(json_path);
  f << json;
  f.close();
  std::printf("wrote %s\n", json_path.c_str());
  return Status::OK();
}

}  // namespace
}  // namespace snapdiff

int main(int argc, char** argv) {
  const size_t rows = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const int iters = argc > 2 ? std::atoi(argv[2]) : 5;
  const std::string json_path = argc > 3 ? argv[3] : "BENCH_scan.json";
  const int warmup = argc > 4 ? std::atoi(argv[4]) : 1;
  std::printf(
      "=== Zero-copy scan pipeline: materialize vs view (N = %llu, %d "
      "rounds + %d warmup)\n\n",
      static_cast<unsigned long long>(rows), iters, warmup);
  snapdiff::Status st = snapdiff::Run(rows, iters, warmup, json_path);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_scan failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
