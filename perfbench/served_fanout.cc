// served_fanout: one process hosts a RefreshServer on loopback with the
// delta cache on; three RemoteSnapshotSite clients, one thread and one
// connection each, attach to three snapshots of the same class. Each round
// is a seeded zipfian burst of writes followed by all three clients
// refreshing at once (closed loop); the round ends when all three have
// applied END. Per-table admission serves one client at a time, so every
// round makes one delta-cache fill and two hits whatever the thread timing.

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "workloads.h"
#include "net/refresh_server.h"
#include "net/remote_site.h"
#include "snapshot/snapshot_manager.h"

namespace snapbench {

using namespace snapdiff;

namespace {

constexpr size_t kClients = 3;
constexpr size_t kFanRows = 100000;
constexpr size_t kFanPayload = 16;
constexpr double kFanSelectivity = 0.25;
/// Ops per burst (0.2 % of the rows): 90 % update, 5 % insert, 5 % delete.
constexpr size_t kFanBurst = kFanRows / 500;
constexpr double kFanZipfTheta = 0.9;

std::string SnapName(size_t i) { return "fan" + std::to_string(i); }

/// Reclaims the base site's in-memory log once the snapshots have
/// refreshed past it, as a deployment would; without it the log keeps
/// every write's before/after images and resident memory grows with the
/// run's length. Call only while no write or refresh is running.
void ReclaimLog(SnapshotSystem* sys) {
  if (LogManager* wal = sys->wal()) wal->Truncate(wal->LastLsn());
}

struct FanEnv {
  std::unique_ptr<SnapshotSystem> sys;
  BaseTable* table = nullptr;
  std::vector<Address> live;
  int64_t next_id = 0;
  std::unique_ptr<RefreshServer> server;
  std::vector<std::unique_ptr<RemoteSnapshotSite>> sites;
  std::vector<double> connect_ms;

  ~FanEnv() {
    sites.clear();  // close client connections before the server stops
    if (server != nullptr) server->Stop();
  }
};

Result<std::unique_ptr<FanEnv>> Setup(const RunArgs& args, SpanLog* log) {
  auto env = std::make_unique<FanEnv>();
  SnapshotSystemOptions options;
  options.delta_cache_enabled = true;
  env->sys = std::make_unique<SnapshotSystem>(options);
  // Append placement keeps the 100 k-row load linear; the replicas keep
  // the default first-fit placement.
  ASSIGN_OR_RETURN(env->table,
                   env->sys->CreateBaseTable("t", RowSchema(),
                                             AnnotationMode::kLazy,
                                             PlacementPolicy::kAppend));
  RowGen gen(args.seed, kFanPayload);
  env->live.reserve(kFanRows);
  for (size_t i = 0; i < kFanRows; ++i) {
    ASSIGN_OR_RETURN(Address a, env->table->Insert(gen.Row(env->next_id++)));
    env->live.push_back(a);
  }
  for (size_t i = 0; i < kClients; ++i) {
    RETURN_IF_ERROR(env->sys
                        ->CreateSnapshot(SnapName(i), "t",
                                         RestrictionFor(kFanSelectivity))
                        .status());
  }
  ServerOptions server_options;
  server_options.listen_addr = "127.0.0.1:0";
  server_options.wire_encoding = true;
  server_options.wire_compression = true;
  env->server = std::make_unique<RefreshServer>(env->sys.get(),
                                                server_options);
  RETURN_IF_ERROR(env->server->Start());
  RemoteSiteOptions site_options;
  site_options.pool_pages = 1024;
  site_options.wire_encoding = true;
  site_options.wire_compression = true;
  for (size_t i = 0; i < kClients; ++i) {
    const uint64_t span = log->Begin("connect", 0);
    const double t0 = NowUs();
    ASSIGN_OR_RETURN(std::unique_ptr<RemoteSnapshotSite> site,
                     RemoteSnapshotSite::Connect(env->server->bound_addr(),
                                                 SnapName(i), site_options));
    env->connect_ms.push_back((NowUs() - t0) / 1e3);
    log->End(span);
    env->sites.push_back(std::move(site));
  }
  for (auto& site : env->sites) RETURN_IF_ERROR(site->Refresh().status());
  return env;
}

/// What one client thread records; the main thread reads it after join.
struct ClientLog {
  explicit ClientLog(bool trace) : spans(trace) {}
  WindowedSamples wall_ms;
  Samples traced_ms, untraced_ms;
  double wall_s_sum = 0.0;
  uint64_t refreshes = 0, failed = 0, changes = 0;
  uint64_t reconnects = 0, resumes = 0, held = 0, dups = 0;
  SpanLog spans;
};

}  // namespace

int RunServedFanout(const RunArgs& args, Outcome* out) {
  SpanLog main_log(args.trace);
  std::vector<double> setup_times;
  std::unique_ptr<FanEnv> env;
  for (int k = 0; k < kSetups; ++k) {
    env.reset();
    SpanLog setup_log(false);
    const double t0 = NowUs();
    Result<std::unique_ptr<FanEnv>> made =
        Setup(args, k + 1 == kSetups ? &main_log : &setup_log);
    if (!made.ok()) {
      std::fprintf(stderr, "served_fanout setup: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    env = std::move(*made);
    setup_times.push_back((NowUs() - t0) / 1e6);
  }

  RowGen gen(args.seed ^ 0xfa40fa40ULL, kFanPayload);
  ZipfianGenerator zipf(kFanRows, kFanZipfTheta, args.seed ^ 0x21bfULL);
  WindowedSamples write_us;
  Samples insert_us, update_us, delete_us;
  uint64_t writes_attempted = 0, writes_failed = 0;

  // Round barrier: the main thread bumps `round` to release the clients
  // and waits until all of them have reported `done`.
  std::mutex mu;
  std::condition_variable cv;
  uint64_t round = 0;
  size_t done = 0;
  bool quit = false;
  uint64_t round_span = 0;
  uint64_t round_changes = 0;
  bool round_traced = false;
  std::vector<std::unique_ptr<ClientLog>> clogs;
  const double start_us = NowUs();
  const double end_us = start_us + args.seconds * 1e6;
  write_us.Start(start_us, args.seconds);
  for (size_t i = 0; i < kClients; ++i) {
    clogs.push_back(std::make_unique<ClientLog>(args.trace));
    clogs.back()->wall_ms.Start(start_us, args.seconds);
  }
  const ChannelStats wire0 = env->server->AggregateTransportStats();
  const DeltaCache::StatsSnapshot cache0 = env->sys->delta_cache()->Stats();
  const ServerStats server0 = env->server->stats();
  WireCodecStats codec0;
  for (const auto& site : env->sites) {
    codec0.bytes_in += site->wire_stats().bytes_in;
    codec0.bytes_out += site->wire_stats().bytes_out;
  }

  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      ClientLog& c = *clogs[i];
      RemoteSnapshotSite* site = env->sites[i].get();
      uint64_t seen = 0;
      for (;;) {
        uint64_t parent = 0, changes = 0;
        bool traced = false;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return quit || round != seen; });
          if (quit) return;
          seen = round;
          parent = round_span;
          changes = round_changes;
          traced = round_traced;
        }
        const uint64_t span =
            traced ? c.spans.Begin("remote_refresh", parent) : 0;
        const double t0 = NowUs();
        Result<RemoteRefreshReport> r = site->Refresh();
        const double t1 = NowUs();
        const double ms = (t1 - t0) / 1e3;
        if (span != 0) c.spans.End(span);
        ++c.refreshes;
        c.wall_s_sum += ms / 1e3;
        if (r.ok()) {
          c.wall_ms.Add(ms, t1);
          if (args.trace) (traced ? c.traced_ms : c.untraced_ms).Add(ms);
          c.changes += changes;
          c.reconnects += r->reconnects;
          c.resumes += r->resumes;
          c.held += r->held_for_reorder;
          c.dups += r->duplicates_dropped;
        } else {
          ++c.failed;
          c.wall_ms.AddFailure(t1);
        }
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_all();
      }
    });
  }

  uint64_t rounds = 0, traced_rounds = 0;
  for (uint64_t k = 0; NowUs() < end_us; ++k) {
    const bool traced = args.trace && k % 2 == 0;
    uint64_t changes = 0;
    for (size_t op = 0; op < kFanBurst; ++op) {
      const double dice = gen.rng().NextDouble();
      const uint64_t span = traced ? main_log.Begin("write", 0) : 0;
      const double t0 = NowUs();
      Samples* kind;
      Status st;
      if (dice < 0.05) {
        Result<Address> a = env->table->Insert(gen.Row(env->next_id++));
        st = a.status();
        if (a.ok()) env->live.push_back(*a);
        kind = &insert_us;
      } else if (dice < 0.10) {
        const size_t v = zipf.Next() % env->live.size();
        st = env->table->Delete(env->live[v]);
        if (st.ok()) {
          env->live[v] = env->live.back();
          env->live.pop_back();
        }
        kind = &delete_us;
      } else {
        const size_t v = zipf.Next() % env->live.size();
        st = env->table->Update(env->live[v],
                                gen.Row(static_cast<int64_t>(v)));
        kind = &update_us;
      }
      const double us = NowUs() - t0;
      if (span != 0) main_log.End(span);
      ++writes_attempted;
      if (!st.ok()) {
        ++writes_failed;
        write_us.AddFailure(t0 + us);
        continue;
      }
      ++changes;
      write_us.Add(us, t0 + us);
      kind->Add(us);
    }
    const uint64_t span = traced ? main_log.Begin("refresh", 0) : 0;
    {
      std::unique_lock<std::mutex> lock(mu);
      done = 0;
      round_span = span;
      round_changes = changes;
      round_traced = traced;
      ++round;
      cv.notify_all();
      cv.wait(lock, [&] { return done == kClients; });
    }
    if (span != 0) main_log.End(span);
    ReclaimLog(env->sys.get());
    ++rounds;
    if (traced) ++traced_rounds;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    quit = true;
    cv.notify_all();
  }
  for (auto& t : clients) t.join();

  const ChannelStats wire = env->server->AggregateTransportStats() - wire0;
  const DeltaCache::StatsSnapshot cache1 = env->sys->delta_cache()->Stats();
  const ServerStats server1 = env->server->stats();

  // Every client replica must equal the base's view of its snapshot.
  for (size_t i = 0; i < kClients; ++i) {
    Result<std::map<Address, Tuple>> want =
        env->sys->ExpectedContents(SnapName(i));
    Result<std::map<Address, Tuple>> have = env->sites[i]->table()->Contents();
    if (!want.ok() || !have.ok() || *want != *have) {
      out->Fail("client " + std::to_string(i) +
                " replica differs from ExpectedContents");
    }
  }

  ClientLog all(false);
  WireCodecStats codec;
  for (size_t i = 0; i < kClients; ++i) {
    const ClientLog& c = *clogs[i];
    all.wall_ms.Merge(c.wall_ms);
    for (double x : c.traced_ms.values()) all.traced_ms.Add(x);
    for (double x : c.untraced_ms.values()) all.untraced_ms.Add(x);
    all.wall_s_sum += c.wall_s_sum;
    all.refreshes += c.refreshes;
    all.failed += c.failed;
    all.changes += c.changes;
    all.reconnects += c.reconnects;
    all.resumes += c.resumes;
    all.held += c.held;
    all.dups += c.dups;
    const WireCodecStats s = env->sites[i]->wire_stats();
    codec.bytes_in += s.bytes_in;
    codec.bytes_out += s.bytes_out;
  }
  codec.bytes_in -= codec0.bytes_in;  // Δ over the measured phase
  codec.bytes_out -= codec0.bytes_out;
  out->attempted = all.refreshes + writes_attempted;
  out->failed = all.failed + writes_failed;
  out->Note("driver.rounds", double(rounds), "count");
  out->Note("driver.refresh_samples", double(all.refreshes), "count");
  out->Note("driver.refresh_beyond_p90",
            double(all.wall_ms.MinBeyond(0.90)), "count");
  out->Note("driver.write_samples", double(write_us.size()), "count");
  out->Note("driver.write_beyond_p99", double(write_us.MinBeyond(0.99)),
            "count");
  if (!args.trace) {
    AddEndToEnd({Median(setup_times), &all.wall_ms, &write_us, all.changes,
                 all.wall_s_sum, wire.wire_bytes},
                out);
    return 0;
  }

  const double n = all.refreshes > 0 ? double(all.refreshes) : 1.0;
  const uint64_t hits = cache1.hits - cache0.hits;
  const uint64_t misses = cache1.misses - cache0.misses;
  out->Add("snapshot.write.insert_us_p50", insert_us.Percentile(0.5), "us");
  out->Add("snapshot.write.update_us_p50", update_us.Percentile(0.5), "us");
  out->Add("snapshot.write.delete_us_p50", delete_us.Percentile(0.5), "us");
  out->Add("snapshot.delta_cache.hit_ratio",
           hits + misses > 0 ? double(hits) / double(hits + misses) : 0.0,
           "1");
  out->Add("snapshot.delta_cache.fills", double(cache1.fills - cache0.fills),
           "count");
  out->Add("snapshot.delta_cache.aborted_fills",
           double(cache1.aborted_fills - cache0.aborted_fills), "count");
  out->Add("snapshot.delta_cache.evictions",
           double(cache1.evictions - cache0.evictions), "count");
  out->Add("net.channel.frames_per_refresh", double(wire.frames) / n,
           "count");
  out->Add("net.channel.messages_per_refresh", double(wire.messages) / n,
           "count");
  out->Add("net.encoding.bytes_out_per_in",
           codec.bytes_in > 0 ? double(codec.bytes_out) / double(codec.bytes_in)
                              : 0.0,
           "1");
  out->Add("net.remote.connect_ms", Median(env->connect_ms), "ms");
  out->Add("net.server.errors", double(server1.errors - server0.errors),
           "count");
  out->Add("net.server.resumes", double(server1.resumes - server0.resumes),
           "count");
  out->Add("net.remote.reconnects", double(all.reconnects), "count");
  out->Add("net.remote.held_for_reorder", double(all.held), "count");
  out->Add("net.remote.duplicates_dropped", double(all.dups), "count");
  std::vector<const SpanLog*> logs = {&main_log};
  for (const auto& c : clogs) logs.push_back(&c->spans);
  AddTraceMetrics(logs, traced_rounds, all.traced_ms, all.untraced_ms,
                  "refresh", {"remote_refresh"}, out);
  WriteSpans(args, logs);
  return 0;
}

}  // namespace snapbench
