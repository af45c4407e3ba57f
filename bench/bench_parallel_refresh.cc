// Benchmarks the parallel partitioned refresh pipeline: sweeps the worker
// count (1/2/4/8) and the ENTRY_BATCH size (1/32) over an identical seeded
// workload, measuring the wall time of the refresh scan and the wire
// traffic it produced, and writes the series as JSON.
//
// Every configuration replays the same deterministic workload against a
// fresh base site, so the measured refreshes transmit identical logical
// streams — only the execution strategy and framing differ. The bench
// checks it: every config's traffic counters must equal the workers=1
// config's at the same batch size, or it exits nonzero.
//
// Usage: bench_parallel_refresh [rows] [iters] [json_path] [warmup]
//   rows       base-table size                      (default 20000)
//   iters      measured refresh rounds per config   (default 5)
//   json_path  output file                          (default BENCH_refresh.json)
//   warmup     unmeasured mutate+refresh rounds     (default 2)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "expr/parser.h"
#include "snapshot/differential_refresh.h"
#include "snapshot/snapshot_manager.h"

namespace snapdiff {
namespace {

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

Tuple Row(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary)});
}

struct ConfigResult {
  size_t workers = 0;
  size_t batch_size = 0;
  bench::SampleStats scan_wall_us;  // executor wall time per measured round
  uint64_t messages = 0;            // totals over the measured rounds
  uint64_t entry_messages = 0;
  uint64_t batched_entries = 0;
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  uint64_t payload_bytes = 0;
  uint64_t entries_scanned = 0;
};

/// 10% of rows updated + a sprinkle of inserts/deletes per round, from a
/// per-round seed shared by every configuration.
void Mutate(BaseTable* base, std::vector<Address>* live, uint64_t seed) {
  Random rng(seed);
  const size_t updates = live->size() / 10;
  for (size_t i = 0; i < updates; ++i) {
    const Address victim = (*live)[rng.Uniform(live->size())];
    if (!base->Update(victim, Row("u", int64_t(rng.Uniform(30)))).ok()) {
      std::abort();
    }
  }
  const size_t churn = live->size() / 100 + 1;
  for (size_t i = 0; i < churn; ++i) {
    const size_t idx = rng.Uniform(live->size());
    if (!base->Delete((*live)[idx]).ok()) std::abort();
    live->erase(live->begin() + idx);
    auto a = base->Insert(Row("n", int64_t(rng.Uniform(30))));
    if (!a.ok()) std::abort();
    live->push_back(*a);
  }
}

Result<ConfigResult> RunConfig(size_t rows, int iters, int warmup,
                               size_t workers, size_t batch_size,
                               ThreadPool* pool) {
  SnapshotSystem sys;
  ASSIGN_OR_RETURN(BaseTable * base, sys.CreateBaseTable("emp", EmpSchema()));
  Random rng(1234);
  std::vector<Address> live;
  live.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    ASSIGN_OR_RETURN(
        Address a,
        base->Insert(Row("e" + std::to_string(i), int64_t(rng.Uniform(30)))));
    live.push_back(a);
  }

  SnapshotDescriptor desc;
  desc.id = 1;
  desc.name = "bench";
  ASSIGN_OR_RETURN(desc.restriction, ParsePredicate("Salary < 15"));
  desc.restriction_text = "Salary < 15";
  desc.projection = {"Name", "Salary"};

  RefreshExecution exec;
  exec.workers = workers;
  exec.pool = workers > 1 ? pool : nullptr;
  exec.batch_size = batch_size;

  Channel channel;
  Timestamp snap_time = kNullTimestamp;
  auto refresh_once = [&](RefreshStats* stats) -> Result<double> {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<GroupRefreshMember> members{{&desc, snap_time, stats}};
    RETURN_IF_ERROR(ExecuteGroupDifferentialRefresh(base, &members, &channel,
                                                    nullptr, exec));
    const auto t1 = std::chrono::steady_clock::now();
    while (channel.HasPending()) {
      ASSIGN_OR_RETURN(Message msg, channel.Receive());
      if (msg.type == MessageType::kEndOfRefresh) snap_time = msg.timestamp;
    }
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
  };

  // Unmeasured population refresh + warmup rounds (cache/allocator/branch
  // state settles), then the measured incremental rounds.
  RefreshStats population;
  RETURN_IF_ERROR(refresh_once(&population).status());
  for (int round = 0; round < warmup; ++round) {
    Mutate(base, &live, 7700 + uint64_t(round));
    RefreshStats stats;
    RETURN_IF_ERROR(refresh_once(&stats).status());
  }

  ConfigResult out;
  out.workers = workers;
  out.batch_size = batch_size;
  std::vector<double> walls;
  walls.reserve(size_t(iters));
  const ChannelStats before = channel.stats();
  for (int round = 0; round < iters; ++round) {
    Mutate(base, &live, 77 + uint64_t(round));
    RefreshStats stats;
    ASSIGN_OR_RETURN(double us, refresh_once(&stats));
    walls.push_back(us);
    out.entries_scanned += stats.entries_scanned;
  }
  const ChannelStats traffic = channel.stats() - before;
  out.scan_wall_us = bench::Summarize(walls);
  out.messages = traffic.messages;
  out.entry_messages = traffic.entry_messages;
  out.batched_entries = traffic.batched_entries;
  out.frames = traffic.frames;
  out.wire_bytes = traffic.wire_bytes;
  out.payload_bytes = traffic.payload_bytes;
  return out;
}

std::string RenderJson(size_t rows, int iters, int warmup,
                       const std::vector<ConfigResult>& results) {
  std::string out = "{\n";
  out += bench::ReportHeaderFields("parallel_refresh");
  out += "  \"rows\": " + std::to_string(rows) + ",\n";
  out += "  \"iters\": " + std::to_string(iters) + ",\n";
  out += "  \"warmup\": " + std::to_string(warmup) + ",\n";
  out += "  \"mutate_fraction\": 0.10,\n";
  out += "  \"selectivity\": \"Salary < 15 (~50%)\",\n";
  out += "  \"note\": \"scan_wall_us is the executor's wall time per "
         "measured round; every config's traffic counters equal the "
         "workers=1 config's at the same batch size (checked: the bench "
         "exits nonzero otherwise), and the batch_size column shows the "
         "message/wire reduction\",\n";
  out += "  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    out += "    {\"workers\": " + std::to_string(r.workers) +
           ", \"batch_size\": " + std::to_string(r.batch_size) +
           ", \"scan_wall_us\": " + bench::RenderStats(r.scan_wall_us) +
           ", \"scan_wall_us_mean\": " +
           std::to_string(r.scan_wall_us.mean) +
           ", \"messages\": " + std::to_string(r.messages) +
           ", \"entry_messages\": " + std::to_string(r.entry_messages) +
           ", \"batched_entries\": " + std::to_string(r.batched_entries) +
           ", \"frames\": " + std::to_string(r.frames) +
           ", \"wire_bytes\": " + std::to_string(r.wire_bytes) +
           ", \"payload_bytes\": " + std::to_string(r.payload_bytes) +
           ", \"entries_scanned\": " + std::to_string(r.entries_scanned) +
           "}";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace
}  // namespace snapdiff

int main(int argc, char** argv) {
  const size_t rows = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const int iters = argc > 2 ? std::atoi(argv[2]) : 5;
  const std::string json_path = argc > 3 ? argv[3] : "BENCH_refresh.json";
  const int warmup = argc > 4 ? std::atoi(argv[4]) : 2;

  std::printf(
      "=== Parallel partitioned refresh: workers x batch sweep "
      "(N = %llu, %d rounds + %d warmup, 10%% updates/round)\n"
      "=== hardware_concurrency = %u\n\n",
      static_cast<unsigned long long>(rows), iters, warmup,
      std::thread::hardware_concurrency());

  snapdiff::ThreadPool pool(8);
  std::vector<snapdiff::ConfigResult> results;
  std::printf("%8s %10s %14s %14s %10s %10s %12s\n", "workers", "batch",
              "scan_us_min", "scan_us_mean", "messages", "frames",
              "wire_bytes");
  for (const size_t workers : {1, 2, 4, 8}) {
    for (const size_t batch : {1, 32}) {
      auto r = snapdiff::RunConfig(rows, iters, warmup, workers, batch,
                                   &pool);
      if (!r.ok()) {
        std::fprintf(stderr, "config (w=%zu, b=%zu) failed: %s\n", workers,
                     batch, r.status().ToString().c_str());
        return 1;
      }
      results.push_back(*r);
      std::printf("%8zu %10zu %14.1f %14.1f %10llu %10llu %12llu\n",
                  r->workers, r->batch_size, r->scan_wall_us.min,
                  r->scan_wall_us.mean,
                  static_cast<unsigned long long>(r->messages),
                  static_cast<unsigned long long>(r->frames),
                  static_cast<unsigned long long>(r->wire_bytes));
    }
  }

  // The byte-identical stream invariant: worker count changes how the
  // scan runs, never what it sends.
  bool identical = true;
  for (const snapdiff::ConfigResult& r : results) {
    for (const snapdiff::ConfigResult& base : results) {
      if (base.workers != 1 || base.batch_size != r.batch_size) continue;
      const bool same = r.messages == base.messages &&
                        r.entry_messages == base.entry_messages &&
                        r.batched_entries == base.batched_entries &&
                        r.frames == base.frames &&
                        r.wire_bytes == base.wire_bytes &&
                        r.payload_bytes == base.payload_bytes &&
                        r.entries_scanned == base.entries_scanned;
      if (!same) {
        std::fprintf(stderr,
                     "config (w=%zu, b=%zu) traffic differs from w=1\n",
                     r.workers, r.batch_size);
        identical = false;
      }
    }
  }
  if (!identical) return 1;

  const std::string json =
      snapdiff::RenderJson(rows, iters, warmup, results);
  std::ofstream f(json_path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  f << json;
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
