// scan_sparse: the in-process workload. Its refresh is dominated by the base
// scan, fix-up and buffer-pool misses, next to an open-loop writer.
//
// The end-to-end run refreshes through SnapshotSystem::Refresh. The traced
// run refreshes from outside in, with the three public calls a remote site
// makes — ServeRefresh into a metering Channel, SnapshotTable::ApplyMessage
// of each message into a replica the benchmark owns, AcknowledgeServe — so
// each layer's share is timed at its own boundary.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "workloads.h"
#include "net/channel.h"
#include "obs/flight_recorder.h"
#include "snapshot/snapshot_manager.h"
#include "snapshot/snapshot_table.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace snapbench {

using namespace snapdiff;

namespace {

constexpr const char* kTable = "t";
constexpr const char* kSnap = "s";

/// ~200 k narrow rows with the WAL on; the base pool holds about half the
/// table's pages, so every refresh scan misses and evicts. The base site is
/// memory-backed: file-backed, every dirty eviction logs a full page image
/// that the in-memory log keeps for the life of the system (over 1 GiB of
/// resident memory in a 20 s run), which would swamp what is measured.
constexpr size_t kScanRows = 200000;
constexpr size_t kScanPayload = 16;
constexpr size_t kScanPoolPages = 1600;
constexpr double kScanSelectivity = 0.10;
/// Offered update rate of the open-loop writer: about 0.5 % of the rows per
/// refresh interval at today's refresh latency (about 75 ms).
constexpr double kScanWritesPerSec = 13000.0;
/// An Update slower than this counts as a stall of the writer.
constexpr double kStallUs = 1000.0;
/// The writer spins only for the last stretch before an op is due.
constexpr double kSpinUs = 20.0;

uint64_t Fetches(const BufferPoolStats& s) { return s.hits + s.misses; }

/// A snapshot-site replica owned by the benchmark, fed through the same
/// three public calls RemoteSnapshotSite makes.
class OutsideInReplica {
 public:
  OutsideInReplica(SnapshotSystem* sys, size_t pool_pages)
      : sys_(sys), pool_(&disk_, pool_pages), catalog_(&pool_) {}

  Status Attach(const std::string& name) {
    ASSIGN_OR_RETURN(SnapshotSystem::SnapshotWireInfo info,
                     sys_->DescribeSnapshot(name));
    id_ = info.id;
    ASSIGN_OR_RETURN(table_, SnapshotTable::Create(&catalog_, name,
                                                   info.value_schema,
                                                   &oracle_));
    return Status::OK();
  }

  struct Step {
    RefreshStats base;   // ServeOutcome stats (scan, fix-up)
    RefreshStats apply;  // apply counters at the replica
    ChannelStats wire;
    double serve_us = 0.0;
    double apply_us = 0.0;
    uint64_t site_fetches = 0;
  };

  /// demand → END applied → acknowledged, with one span per call when
  /// `parent` is non-zero.
  Status Refresh(SpanLog* log, uint64_t parent, Step* step) {
    Channel link;
    SnapshotSystem::ServeRequest req;
    req.snapshot_id = id_;
    req.client_snap_time = table_->snap_time();
    uint64_t span = parent != 0 ? log->Begin("serve", parent) : 0;
    double t0 = NowUs();
    Result<SnapshotSystem::ServeOutcome> served = sys_->ServeRefresh(req,
                                                                     &link);
    step->serve_us = NowUs() - t0;
    if (span != 0) log->End(span);
    RETURN_IF_ERROR(served.status());
    step->base = served->stats;
    step->wire = link.stats();

    const uint64_t fetches0 = Fetches(pool_.stats());
    span = parent != 0 ? log->Begin("apply", parent) : 0;
    t0 = NowUs();
    while (link.HasPending()) {
      ASSIGN_OR_RETURN(Message msg, link.Receive());
      RETURN_IF_ERROR(table_->ApplyMessage(msg, &step->apply));
    }
    step->apply_us = NowUs() - t0;
    if (span != 0) log->End(span);
    step->site_fetches = Fetches(pool_.stats()) - fetches0;

    span = parent != 0 ? log->Begin("ack", parent) : 0;
    Status acked = sys_->AcknowledgeServe(id_, served->session_id);
    if (span != 0) log->End(span);
    return acked;
  }

  SnapshotTable* table() { return table_.get(); }

 private:
  SnapshotSystem* sys_;
  MemoryDiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
  TimestampOracle oracle_;
  SnapshotId id_ = 0;
  std::unique_ptr<SnapshotTable> table_;
};

/// One in-process system with its table, snapshot, and (traced run) the
/// outside-in replica.
struct Env {
  std::unique_ptr<SnapshotSystem> sys;
  BaseTable* table = nullptr;
  std::vector<Address> live;
  int64_t next_id = 0;
  std::unique_ptr<OutsideInReplica> replica;
};

/// Builds the system, loads the rows, defines the snapshot and runs the
/// first populating refresh.
Result<std::unique_ptr<Env>> Setup(const RunArgs& args) {
  SnapshotSystemOptions options;
  options.base_pool_pages = kScanPoolPages;
  options.enable_wal = true;
  options.refresh_workers = 2;
  auto env = std::make_unique<Env>();
  env->sys = std::make_unique<SnapshotSystem>(options);
  // Append placement: a first-fit load of 200 k rows through a half-size
  // pool would be quadratic in misses.
  ASSIGN_OR_RETURN(env->table,
                   env->sys->CreateBaseTable(kTable, RowSchema(),
                                             AnnotationMode::kLazy,
                                             PlacementPolicy::kAppend));
  RowGen gen(args.seed, kScanPayload);
  env->live.reserve(kScanRows);
  for (size_t i = 0; i < kScanRows; ++i) {
    ASSIGN_OR_RETURN(Address a, env->table->Insert(gen.Row(env->next_id++)));
    env->live.push_back(a);
  }
  RETURN_IF_ERROR(env->sys
                      ->CreateSnapshot(kSnap, kTable,
                                       RestrictionFor(kScanSelectivity))
                      .status());
  if (args.trace) {
    env->replica = std::make_unique<OutsideInReplica>(
        env->sys.get(), options.snap_pool_pages);
    RETURN_IF_ERROR(env->replica->Attach(kSnap));
    SpanLog none(false);
    OutsideInReplica::Step step;
    RETURN_IF_ERROR(env->replica->Refresh(&none, 0, &step));
  } else {
    RETURN_IF_ERROR(env->sys->Refresh(RefreshRequest::For(kSnap)).status());
  }
  return env;
}

/// Totals over the measured refreshes, in either refresh mode.
struct RefreshTotals {
  WindowedSamples wall_ms;
  double wall_s_sum = 0.0;
  uint64_t refreshes = 0;
  uint64_t failed = 0;
  uint64_t changes = 0;  // base ops made visible by the measured refreshes
  uint64_t wire_bytes = 0;
  uint64_t frames = 0;
  uint64_t messages = 0;
  uint64_t entries_scanned = 0;
  uint64_t fixup_writes = 0;
  uint64_t fixups_skipped = 0;
  uint64_t snap_inserts = 0;
  // Traced run only.
  Samples serve_ms;
  Samples apply_ms;
  double apply_us_sum = 0.0;
  uint64_t site_fetches = 0;
  Samples traced_ms;    // refreshes recorded with spans
  Samples untraced_ms;  // interleaved refreshes without spans
  uint64_t traced_rounds = 0;
};

/// One measured refresh. `traced` records refresh/serve/apply/ack spans.
void MeasuredRefresh(Env* env, SpanLog* log, bool traced, uint64_t changes,
                     RefreshTotals* tot) {
  const double t0 = NowUs();
  bool ok = false;
  RefreshStats base, apply;
  ChannelStats wire;
  if (env->replica != nullptr) {
    const uint64_t span = traced ? log->Begin("refresh", 0) : 0;
    OutsideInReplica::Step step;
    ok = env->replica->Refresh(log, span, &step).ok();
    if (span != 0) log->End(span);
    base = step.base;
    apply = step.apply;
    wire = step.wire;
    if (ok) {
      tot->serve_ms.Add(step.serve_us / 1e3);
      tot->apply_ms.Add(step.apply_us / 1e3);
      tot->apply_us_sum += step.apply_us;
      tot->site_fetches += step.site_fetches;
    }
  } else {
    Result<RefreshReport> r = env->sys->Refresh(RefreshRequest::For(kSnap));
    ok = r.ok();
    if (ok) {
      base = r->stats;
      apply = r->stats;
      wire = r->stats.traffic;
    }
  }
  const double t1 = NowUs();
  const double wall_us = t1 - t0;
  ++tot->refreshes;
  tot->wall_s_sum += wall_us / 1e6;
  if (!ok) {
    ++tot->failed;
    tot->wall_ms.AddFailure(t1);
    return;
  }
  tot->wall_ms.Add(wall_us / 1e3, t1);
  if (env->replica != nullptr) {
    (traced ? tot->traced_ms : tot->untraced_ms).Add(wall_us / 1e3);
    if (traced) ++tot->traced_rounds;
  }
  tot->changes += changes;
  tot->wire_bytes += wire.wire_bytes;
  tot->frames += wire.frames;
  tot->messages += wire.messages;
  tot->entries_scanned += base.entries_scanned;
  tot->fixup_writes += base.base_writes;
  tot->fixups_skipped += base.fixups_skipped;
  tot->snap_inserts += apply.snap_inserts;
}

/// Every replica must equal what the base says the snapshot holds.
void CheckReplica(Env* env, Outcome* out) {
  Result<std::map<Address, Tuple>> want = env->sys->ExpectedContents(kSnap);
  SnapshotTable* table = nullptr;
  if (env->replica != nullptr) {
    table = env->replica->table();
  } else {
    Result<SnapshotTable*> got = env->sys->GetSnapshot(kSnap);
    if (got.ok()) table = *got;
  }
  if (!want.ok() || table == nullptr) {
    out->Fail("cannot read expected or replica contents");
    return;
  }
  Result<std::map<Address, Tuple>> have = table->Contents();
  if (!have.ok() || *have != *want) {
    out->Fail("replica differs from ExpectedContents (" +
              std::to_string(have.ok() ? have->size() : 0) + " vs " +
              std::to_string(want->size()) + " rows)");
  }
}

/// The end-to-end metrics and sample counts.
void ReportRefreshes(const RefreshTotals& tot,
                     const WindowedSamples& writes_us,
                     uint64_t writes_failed, uint64_t writes_attempted,
                     double setup_s, Outcome* out, const RunArgs& args) {
  out->attempted = tot.refreshes + writes_attempted;
  out->failed = tot.failed + writes_failed;
  if (!args.trace) {
    AddEndToEnd({setup_s, &tot.wall_ms, &writes_us, tot.changes,
                 tot.wall_s_sum, tot.wire_bytes},
                out);
  }
  out->Note("driver.refresh_samples", double(tot.refreshes), "count");
  out->Note("driver.refresh_beyond_p90",
            double(tot.wall_ms.MinBeyond(0.90)), "count");
  out->Note("driver.write_samples", double(writes_us.size()), "count");
  out->Note("driver.write_beyond_p99", double(writes_us.MinBeyond(0.99)),
            "count");
}

/// Inputs of the per-layer metrics (traced run).
struct LayerInputs {
  BufferPoolStats base_pool;  // Δ over the measured phase
  uint64_t base_disk_reads = 0;
  Samples update_us;
  Samples late_us;
};

void ReportLayers(const RefreshTotals& tot, const LayerInputs& in,
                  const std::vector<const SpanLog*>& logs, Outcome* out) {
  const double n = tot.refreshes > 0 ? double(tot.refreshes) : 1.0;
  const uint64_t fetches = Fetches(in.base_pool);
  out->Add("storage.base_pool.miss_ratio",
           fetches > 0 ? double(in.base_pool.misses) / double(fetches) : 0.0,
           "1");
  out->Add("storage.base_pool.fetches_per_refresh", double(fetches) / n,
           "count");
  out->Add("storage.base_pool.evictions_per_refresh",
           double(in.base_pool.evictions) / n, "count");
  out->Add("storage.base_disk.reads_per_refresh",
           double(in.base_disk_reads) / n, "count");
  out->Add("storage.site_pool.fetches_per_insert",
           tot.snap_inserts > 0
               ? double(tot.site_fetches) / double(tot.snap_inserts)
               : 0.0,
           "count");
  out->Add("snapshot.write.update_us_p50", in.update_us.Percentile(0.5), "us");
  out->Add("snapshot.serve_ms_p50", tot.serve_ms.Percentile(0.5), "ms");
  out->Add("snapshot.entries_scanned_per_change",
           tot.changes > 0
               ? double(tot.entries_scanned) / double(tot.changes)
               : 0.0,
           "count");
  out->Add("snapshot.fixup_writes_per_refresh", double(tot.fixup_writes) / n,
           "count");
  out->Add("snapshot.fixups_skipped_per_refresh",
           double(tot.fixups_skipped) / n, "count");
  out->Add("snapshot.apply_ms_p50", tot.apply_ms.Percentile(0.5), "ms");
  out->Add("snapshot.apply_us_per_insert",
           tot.snap_inserts > 0 ? tot.apply_us_sum / double(tot.snap_inserts)
                                : 0.0,
           "us");
  out->Add("net.channel.frames_per_refresh", double(tot.frames) / n, "count");
  out->Add("net.channel.messages_per_refresh", double(tot.messages) / n,
           "count");
  AddTraceMetrics(logs, tot.traced_rounds, tot.traced_ms, tot.untraced_ms,
                  "refresh", {"serve", "apply", "ack"}, out);
  out->Add("driver.writer_late_p99_us", in.late_us.Percentile(0.99), "us");
}

}  // namespace


int RunScanSparse(const RunArgs& args, Outcome* out) {
  std::vector<double> setup_times;
  std::unique_ptr<Env> owned;
  for (int k = 0; k < kSetups; ++k) {
    owned.reset();  // free the previous set-up first
    const double t0 = NowUs();
    Result<std::unique_ptr<Env>> made = Setup(args);
    if (!made.ok()) {
      std::fprintf(stderr, "scan_sparse setup: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    owned = std::move(*made);
    setup_times.push_back((NowUs() - t0) / 1e6);
  }
  const double setup_s = Median(setup_times);
  Env* env = owned.get();
  BufferPool* base_pool = env->sys->base_catalog()->buffer_pool();
  const size_t pages = env->table->info()->heap->pages().size();
  std::printf("scan_sparse: %zu rows on %zu pages, base pool %zu pages "
              "(%.0f%%)\n",
              env->live.size(), pages, kScanPoolPages,
              100.0 * double(kScanPoolPages) / double(pages));

  // The writer thread owns its RNG, samples and span log; the main thread
  // reads them only after joining it.
  std::atomic<bool> stop{false};
  std::atomic<bool> trace_writes{false};
  std::atomic<uint64_t> writes_done{0};
  // write_us is the op's service time. from_due_us adds the wait behind
  // earlier ops, the open-loop view. Its tail is set by the writer's
  // stalls: Update waits 1-22 ms on a lock the refresh holds, and how
  // often depends on how much CPU the host steals, so the tail swings
  // several-fold between identical runs. It is reported beside the
  // end-to-end metrics, with the stall counts, rather than as one.
  WindowedSamples write_us;
  Samples update_us, from_due_us, late_us;
  uint64_t writes_failed = 0;
  double write_max_us = 0.0;
  uint64_t stalls = 0, stalls_blocked = 0;
  SpanLog writer_log(args.trace);
  const BufferPoolStats pool0 = base_pool->stats();
  const uint64_t reads0 = env->sys->base_disk()->stats().reads;
  const double start_us = NowUs();
  const double end_us = start_us + args.seconds * 1e6;
  write_us.Start(start_us, args.seconds);
  std::thread writer([&] {
    prctl(PR_SET_TIMERSLACK, 1UL);  // wake on time, not up to 50 us late
    RowGen gen(args.seed ^ 0x5eed5eedULL, kScanPayload);
    const double period_us = 1e6 / kScanWritesPerSec;
    for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      const double due = start_us + double(i) * period_us;
      // Sleep until just before the op is due, then spin the rest: the
      // spin keeps wake-up jitter out of the pacing, and the sleep keeps
      // the writer from taking a whole core from the scan workers.
      for (double now = NowUs(); now < due; now = NowUs()) {
        if (due - now > kSpinUs) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::micro>(due - now - kSpinUs));
        }
      }
      const size_t v = gen.rng().Uniform(env->live.size());
      const uint64_t span =
          trace_writes.load(std::memory_order_relaxed)
              ? writer_log.Begin("write", 0)
              : 0;
      // Voluntary context switches inside the call tell a writer that
      // waited on a lock from one the scheduler took off its core.
      rusage ru0{}, ru1{};
      getrusage(RUSAGE_THREAD, &ru0);
      const double t0 = NowUs();
      Status st = env->table->Update(env->live[v],
                                     gen.Row(static_cast<int64_t>(v)));
      const double t1 = NowUs();
      getrusage(RUSAGE_THREAD, &ru1);
      if (span != 0) writer_log.End(span);
      late_us.Add(t0 - due);
      write_max_us = std::max(write_max_us, t1 - t0);
      if (t1 - t0 > kStallUs) {
        ++stalls;
        if (ru1.ru_nvcsw > ru0.ru_nvcsw) ++stalls_blocked;
      }
      if (!st.ok()) {
        ++writes_failed;
        write_us.AddFailure(t1);
        from_due_us.AddFailure();
      } else {
        write_us.Add(t1 - t0, t1);
        update_us.Add(t1 - t0);
        from_due_us.Add(t1 - due);
      }
      writes_done.fetch_add(1, std::memory_order_release);
    }
  });

  RefreshTotals tot;
  tot.wall_ms.Start(start_us, args.seconds);
  SpanLog main_log(args.trace);
  uint64_t seen = 0;
  for (uint64_t k = 0; NowUs() < end_us; ++k) {
    const bool traced = args.trace && k % 2 == 0;
    trace_writes.store(traced, std::memory_order_relaxed);
    const uint64_t done = writes_done.load(std::memory_order_acquire);
    MeasuredRefresh(env, &main_log, traced, done - seen, &tot);
    seen = done;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  const uint64_t writes_attempted = writes_done.load();

  LayerInputs in;
  const BufferPoolStats pool1 = base_pool->stats();
  in.base_pool = {pool1.hits - pool0.hits, pool1.misses - pool0.misses,
                  pool1.evictions - pool0.evictions,
                  pool1.flushes - pool0.flushes};
  in.base_disk_reads = env->sys->base_disk()->stats().reads - reads0;
  in.update_us = update_us;
  in.late_us = late_us;

  // Bring the replica level with the quiesced base, then compare.
  {
    RefreshTotals tail;
    SpanLog none(false);
    MeasuredRefresh(env, &none, false, 0, &tail);
    if (tail.failed != 0) out->Fail("final refresh failed");
  }
  CheckReplica(env, out);
  ReportRefreshes(tot, write_us, writes_failed, writes_attempted, setup_s,
                  out, args);
  if (args.trace) {
    ReportLayers(tot, in, {&main_log, &writer_log}, out);
    WriteSpans(args, {&main_log, &writer_log});
  } else {
    out->Note("driver.writer_late_p99_us", late_us.Percentile(0.99), "us");
    out->Note("driver.write_from_due_p99_us", from_due_us.Percentile(0.99),
              "us");
    out->Note("driver.writes_per_s", double(writes_attempted) / args.seconds,
              "1/s");
    // The writer's stalls: a known cost the bounded write_* metrics do not
    // show (perfbench/metric_map.json, workloads.scan_sparse.known_defect).
    out->Note("driver.write_max_us", write_max_us, "us");
    out->Note("driver.write_stall_frac",
              double(stalls) / double(std::max<uint64_t>(1, writes_attempted)),
              "1");
    out->Note("driver.write_stall_blocked_frac",
              double(stalls_blocked) / double(std::max<uint64_t>(1, stalls)),
              "1");
  }
  return 0;
}

}  // namespace snapbench
