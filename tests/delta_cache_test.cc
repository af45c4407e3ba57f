// Property tests for the epoch delta cache: a refresh served from the
// cached class image must be *byte-identical* to the rescan a cache-less
// system would run — entries, batching, anchor messages, END timestamps,
// every wire byte — across randomized mutate/refresh/evict interleavings,
// on the sequential and the parallel executor, and through faults with
// resume. The mirrored-harness technique keeps a cache-on and a cache-off
// system in oracle lockstep (a serve draws exactly one timestamp, same as
// a scan), so the comparison is exact, not modulo clocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "expr/parser.h"
#include "net/refresh_session.h"
#include "obs/metrics.h"
#include "snapshot/delta_cache.h"
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

/// One independent base site plus (optionally) its own delta cache. Two
/// harnesses driven with the same seeds stay in perfect lockstep (storage,
/// addresses, oracle), so refreshing one from its cache and rescanning the
/// other must produce identical wires.
struct Harness {
  SnapshotSystem sys;
  BaseTable* base = nullptr;
  std::vector<Address> live;

  void Create() {
    auto b = sys.CreateBaseTable("emp", EmpSchema());
    ASSERT_TRUE(b.ok());
    base = *b;
  }

  void Populate(uint64_t seed, int rows) {
    Random rng(seed);
    for (int i = 0; i < rows; ++i) {
      auto a = base->Insert(
          Row("e" + std::to_string(i), int64_t(rng.Uniform(30))));
      ASSERT_TRUE(a.ok());
      live.push_back(*a);
    }
  }

  void Mutate(uint64_t seed, int ops) {
    Random rng(seed);
    for (int op = 0; op < ops; ++op) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const int64_t salary = static_cast<int64_t>(rng.Uniform(30));
      if (kind == 0 || live.empty()) {
        auto a = base->Insert(Row("n" + std::to_string(op), salary));
        ASSERT_TRUE(a.ok());
        live.push_back(*a);
      } else if (kind == 1) {
        ASSERT_TRUE(base->Update(live[rng.Uniform(live.size())],
                                 Row("u" + std::to_string(op), salary))
                        .ok());
      } else {
        const size_t idx = rng.Uniform(live.size());
        ASSERT_TRUE(base->Delete(live[idx]).ok());
        live.erase(live.begin() + idx);
      }
    }
  }
};

SnapshotDescriptor MakeDesc(SnapshotId id, const std::string& predicate,
                            bool anchor = false) {
  SnapshotDescriptor desc;
  desc.id = id;
  desc.name = "snap" + std::to_string(id);
  auto restriction = ParsePredicate(predicate);
  EXPECT_TRUE(restriction.ok()) << predicate;
  if (restriction.ok()) desc.restriction = *restriction;
  desc.restriction_text = predicate;
  desc.projection = {"Name", "Salary"};
  desc.anchor_optimization = anchor;
  return desc;
}

RefreshExecution Exec(DeltaCache* cache, size_t workers = 1,
                      ThreadPool* pool = nullptr, size_t batch = 1) {
  RefreshExecution e;
  e.workers = workers;
  e.pool = pool;
  e.batch_size = batch;
  e.delta_cache = cache;
  return e;
}

struct RunResult {
  Status status = Status::OK();
  std::vector<Message> messages;
  std::vector<RefreshStats> stats;
  ChannelStats traffic;
};

/// Runs one group refresh over the members selected by `which`, draining
/// the wire and advancing each member's SnapTime from its END marker so
/// rounds chain like facade refreshes.
RunResult RunGroup(Harness* h, std::vector<SnapshotDescriptor>* descs,
                   std::vector<Timestamp>* snap_times,
                   const std::vector<size_t>& which,
                   const RefreshExecution& exec) {
  RunResult out;
  Channel channel;
  out.stats.resize(which.size());
  std::vector<GroupRefreshMember> members;
  members.reserve(which.size());
  for (size_t i = 0; i < which.size(); ++i) {
    members.push_back(
        {&(*descs)[which[i]], (*snap_times)[which[i]], &out.stats[i]});
  }
  out.status = ExecuteGroupDifferentialRefresh(h->base, &members, &channel,
                                               nullptr, exec);
  while (channel.HasPending()) {
    auto m = channel.Receive();
    if (!m.ok()) {
      out.status = m.status();
      break;
    }
    if (m->type == MessageType::kEndOfRefresh) {
      for (size_t idx : which) {
        if ((*descs)[idx].id == m->snapshot_id) {
          (*snap_times)[idx] = m->timestamp;
        }
      }
    }
    out.messages.push_back(std::move(*m));
  }
  out.traffic = channel.stats();
  return out;
}

/// Wire equality only: messages and channel meters. Scan-side stats are
/// deliberately excluded — a cache hit scans zero entries and writes zero
/// fix-ups, which is the entire point.
void ExpectSameWire(const RunResult& rescan, const RunResult& cached) {
  ASSERT_TRUE(rescan.status.ok()) << rescan.status.ToString();
  ASSERT_TRUE(cached.status.ok()) << cached.status.ToString();
  ASSERT_EQ(rescan.messages.size(), cached.messages.size());
  for (size_t i = 0; i < rescan.messages.size(); ++i) {
    ASSERT_TRUE(rescan.messages[i] == cached.messages[i])
        << "message " << i << ": " << rescan.messages[i].ToString() << " vs "
        << cached.messages[i].ToString();
  }
  EXPECT_EQ(rescan.traffic.messages, cached.traffic.messages);
  EXPECT_EQ(rescan.traffic.entry_messages, cached.traffic.entry_messages);
  EXPECT_EQ(rescan.traffic.delete_messages, cached.traffic.delete_messages);
  EXPECT_EQ(rescan.traffic.batched_entries, cached.traffic.batched_entries);
  EXPECT_EQ(rescan.traffic.payload_bytes, cached.traffic.payload_bytes);
  EXPECT_EQ(rescan.traffic.wire_bytes, cached.traffic.wire_bytes);
  EXPECT_EQ(rescan.traffic.frames, cached.traffic.frames);
}

/// The core amortization scenario: N subscribers of one class at spread-out
/// SnapTimes. Member 0's refresh scans (and fills); the laggards must then
/// be served from memory with byte-identical streams, including the anchor
/// variant of the class.
TEST(DeltaCacheTest, LaggardsServedByteIdenticalToRescan) {
  Harness plain, cached;
  plain.Create();
  cached.Create();
  plain.Populate(11, 1500);
  cached.Populate(11, 1500);
  DeltaCache cache(/*byte_budget=*/0);

  auto mk = [] {
    std::vector<SnapshotDescriptor> d;
    d.push_back(MakeDesc(1, "Salary < 20"));
    d.push_back(MakeDesc(2, "Salary < 20"));
    d.push_back(MakeDesc(3, "Salary < 20", /*anchor=*/true));
    return d;
  };
  auto pd = mk();
  auto cd = mk();
  std::vector<Timestamp> pt(3, kNullTimestamp), ct(3, kNullTimestamp);

  // Initial population: one group scan on both sides; the cached side
  // fills the (single, shared) class image as a side effect.
  ExpectSameWire(RunGroup(&plain, &pd, &pt, {0, 1, 2}, Exec(nullptr)),
                 RunGroup(&cached, &cd, &ct, {0, 1, 2}, Exec(&cache)));

  uint64_t hits = 0;
  for (uint64_t round = 0; round < 4; ++round) {
    plain.Mutate(round * 31 + 5, 200);
    cached.Mutate(round * 31 + 5, 200);

    // The leader rescans (cache stale after the churn) and re-fills.
    ExpectSameWire(RunGroup(&plain, &pd, &pt, {0}, Exec(nullptr)),
                   RunGroup(&cached, &cd, &ct, {0}, Exec(&cache)));

    // Each laggard refreshes alone at its older SnapTime: the cache-less
    // side re-runs the whole scan, the cached side must answer from the
    // image — same bytes, zero scanning.
    for (size_t member : {size_t{1}, size_t{2}}) {
      RunResult rescan = RunGroup(&plain, &pd, &pt, {member}, Exec(nullptr));
      RunResult served = RunGroup(&cached, &cd, &ct, {member}, Exec(&cache));
      ExpectSameWire(rescan, served);
      ASSERT_EQ(served.stats.size(), 1u);
      EXPECT_TRUE(served.stats[0].served_from_cache);
      EXPECT_EQ(served.stats[0].entries_scanned, 0u);
      EXPECT_EQ(served.stats[0].base_writes, 0u);
      EXPECT_GT(served.traffic.entry_messages, 0u);
      ++hits;
    }
    ASSERT_EQ(pt, ct) << "oracle lockstep lost in round " << round;
  }
  EXPECT_EQ(cache.Stats().hits, hits);
  EXPECT_GE(cache.Stats().fills, 5u);  // initial + one per round
}

/// Same property with the parallel partitioned scan and ENTRY_BATCH
/// framing on both sides: worker-side fill serialization and the batched
/// serve path must not change a single wire byte.
TEST(DeltaCacheTest, ParallelFillAndBatchedServeStayByteIdentical) {
  Harness plain, cached;
  plain.Create();
  cached.Create();
  plain.Populate(23, 2000);
  cached.Populate(23, 2000);
  DeltaCache cache(/*byte_budget=*/0);
  ThreadPool pool(4);

  auto mk = [] {
    std::vector<SnapshotDescriptor> d;
    d.push_back(MakeDesc(1, "Salary < 12"));
    d.push_back(MakeDesc(2, "Salary < 12"));
    d.push_back(MakeDesc(3, "Salary >= 12", /*anchor=*/true));
    d.push_back(MakeDesc(4, "Salary >= 12"));
    return d;
  };
  auto pd = mk();
  auto cd = mk();
  std::vector<Timestamp> pt(4, kNullTimestamp), ct(4, kNullTimestamp);

  const RefreshExecution plain_exec = Exec(nullptr, 4, &pool, 8);
  const RefreshExecution cached_exec = Exec(&cache, 4, &pool, 8);

  ExpectSameWire(RunGroup(&plain, &pd, &pt, {0, 1, 2, 3}, plain_exec),
                 RunGroup(&cached, &cd, &ct, {0, 1, 2, 3}, cached_exec));
  for (uint64_t round = 0; round < 3; ++round) {
    plain.Mutate(round * 17 + 3, 250);
    cached.Mutate(round * 17 + 3, 250);
    // Leaders of both classes rescan together (parallel scan, two fills).
    ExpectSameWire(RunGroup(&plain, &pd, &pt, {0, 2}, plain_exec),
                   RunGroup(&cached, &cd, &ct, {0, 2}, cached_exec));
    // Laggards of both classes are served (batched) from the two images.
    RunResult rescan = RunGroup(&plain, &pd, &pt, {1, 3}, plain_exec);
    RunResult served = RunGroup(&cached, &cd, &ct, {1, 3}, cached_exec);
    ExpectSameWire(rescan, served);
    for (const RefreshStats& st : served.stats) {
      EXPECT_TRUE(st.served_from_cache);
      EXPECT_EQ(st.entries_scanned, 0u);
    }
    ASSERT_EQ(pt, ct);
  }
  EXPECT_GT(cache.Stats().hits, 0u);
}

/// Randomized interleavings under a byte budget that cannot hold both
/// classes: fills evict each other, every eviction falls back to the
/// rescan, and no interleaving of mutate / subset-refresh / evict may
/// produce a stream that differs from the cache-less mirror.
TEST(DeltaCacheTest, EvictionInterleavingsNeverChangeTheWire) {
  Harness plain, cached;
  plain.Create();
  cached.Create();
  plain.Populate(47, 400);
  cached.Populate(47, 400);
  // ~400 rows * (64 overhead + ~20 payload) ≈ 34 KB per class image: one
  // class fits, two never do.
  DeltaCache cache(/*byte_budget=*/48 * 1024);

  auto mk = [] {
    std::vector<SnapshotDescriptor> d;
    d.push_back(MakeDesc(1, "Salary < 15"));
    d.push_back(MakeDesc(2, "Salary < 15"));
    d.push_back(MakeDesc(3, "Salary >= 15"));
    d.push_back(MakeDesc(4, "Salary >= 15", /*anchor=*/true));
    return d;
  };
  auto pd = mk();
  auto cd = mk();
  std::vector<Timestamp> pt(4, kNullTimestamp), ct(4, kNullTimestamp);

  Random rng(1234);
  const std::vector<std::vector<size_t>> subsets = {
      {0}, {1}, {2}, {3}, {0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 1, 2, 3}};
  for (int step = 0; step < 40; ++step) {
    if (rng.Uniform(3) == 0) {
      const int ops = static_cast<int>(rng.Uniform(60));
      plain.Mutate(step * 7 + 1, ops);
      cached.Mutate(step * 7 + 1, ops);
    }
    const auto& which = subsets[rng.Uniform(subsets.size())];
    ExpectSameWire(RunGroup(&plain, &pd, &pt, which, Exec(nullptr)),
                   RunGroup(&cached, &cd, &ct, which, Exec(&cache)));
    ASSERT_EQ(pt, ct) << "step " << step;
  }
  EXPECT_GT(cache.Stats().evictions, 0u);
  EXPECT_LE(cache.Stats().bytes, 48u * 1024u);

  // Deterministic hit at the end: refresh class 0 twice with no churn in
  // between — the second round must come from memory even under the tight
  // budget (one class fits).
  ExpectSameWire(RunGroup(&plain, &pd, &pt, {0}, Exec(nullptr)),
                 RunGroup(&cached, &cd, &ct, {0}, Exec(&cache)));
  RunResult rescan = RunGroup(&plain, &pd, &pt, {1}, Exec(nullptr));
  RunResult served = RunGroup(&cached, &cd, &ct, {1}, Exec(&cache));
  ExpectSameWire(rescan, served);
  EXPECT_TRUE(served.stats[0].served_from_cache);
  EXPECT_GT(cache.Stats().hits, 0u);
}

/// THE perf claim, asserted: a cache hit performs zero buffer-pool page
/// fetches. A never-refreshed subscriber at SnapTime NULL receives its
/// entire initial population from the image without one base-table read.
TEST(DeltaCacheTest, CacheHitTouchesZeroBasePages) {
  Harness h;
  h.Create();
  h.Populate(3, 3000);  // dozens of 4 KiB pages
  DeltaCache cache(/*byte_budget=*/0);

  std::vector<SnapshotDescriptor> descs;
  descs.push_back(MakeDesc(1, "Salary < 25"));
  descs.push_back(MakeDesc(2, "Salary < 25"));
  std::vector<Timestamp> times(2, kNullTimestamp);

  // Member 0 scans and fills.
  RunResult fill = RunGroup(&h, &descs, &times, {0}, Exec(&cache));
  ASSERT_TRUE(fill.status.ok()) << fill.status.ToString();
  ASSERT_TRUE(cache.CanServe(*h.base, descs[1]));

  BufferPool* pool = h.sys.base_catalog()->buffer_pool();
  const uint64_t fetches_before = pool->stats().hits + pool->stats().misses;
  RunResult served = RunGroup(&h, &descs, &times, {1}, Exec(&cache));
  const uint64_t fetches_after = pool->stats().hits + pool->stats().misses;

  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(fetches_after - fetches_before, 0u);
  EXPECT_TRUE(served.stats[0].served_from_cache);
  EXPECT_EQ(served.stats[0].entries_scanned, 0u);
  // And it was no trivial stream: the full initial population came out of
  // memory.
  EXPECT_EQ(served.traffic.entry_messages, fill.traffic.entry_messages);
  EXPECT_GT(served.traffic.entry_messages, 1000u);
}

/// Shared-scan fan-out into per-member sessions: when members carry their
/// own sinks, both the scan path and the serve path must stamp each
/// member's stream with its session id and contiguous 1-based sequence
/// numbers, END last.
TEST(DeltaCacheTest, FanOutStampsPerMemberSessions) {
  Harness h;
  h.Create();
  h.Populate(9, 600);
  DeltaCache cache(/*byte_budget=*/0);

  std::vector<SnapshotDescriptor> descs;
  descs.push_back(MakeDesc(1, "Salary < 10"));
  descs.push_back(MakeDesc(2, "Salary < 10"));
  descs.push_back(MakeDesc(3, "Salary >= 10"));

  auto run = [&](Timestamp* times, bool expect_cached) {
    Channel channel;
    std::vector<RefreshStats> stats(3);
    RefreshSession s1(&channel, 101, 0);
    RefreshSession s2(&channel, 102, 0);
    RefreshSession s3(&channel, 103, 0);
    RefreshSession* sessions[3] = {&s1, &s2, &s3};
    std::vector<GroupRefreshMember> members;
    for (size_t i = 0; i < 3; ++i) {
      members.push_back({&descs[i], times[i], &stats[i], sessions[i]});
    }
    ASSERT_TRUE(ExecuteGroupDifferentialRefresh(h.base, &members, &channel,
                                                nullptr, Exec(&cache))
                    .ok());
    uint64_t last_seq[3] = {0, 0, 0};
    bool ended[3] = {false, false, false};
    while (channel.HasPending()) {
      auto m = channel.Receive();
      ASSERT_TRUE(m.ok());
      ASSERT_GE(m->session_id, 101u);
      ASSERT_LE(m->session_id, 103u);
      const size_t i = m->session_id - 101;
      EXPECT_EQ(descs[i].id, m->snapshot_id);
      EXPECT_FALSE(ended[i]) << "message after END on session " << i;
      EXPECT_EQ(m->seq, last_seq[i] + 1) << "gap on session " << i;
      last_seq[i] = m->seq;
      if (m->type == MessageType::kEndOfRefresh) {
        ended[i] = true;
        times[i] = m->timestamp;
      }
    }
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(ended[i]) << "session " << i << " never ended";
      EXPECT_EQ(stats[i].served_from_cache, expect_cached) << i;
    }
  };

  Timestamp times[3] = {kNullTimestamp, kNullTimestamp, kNullTimestamp};
  run(times, /*expect_cached=*/false);  // scan fills both classes
  run(times, /*expect_cached=*/true);   // whole group served from memory
}

/// Facade-level mirror under faults: two SnapshotSystems (cache on / off)
/// driven identically through partitions, drops, and resumed retries must
/// converge to identical snapshot contents, and the cached system must
/// actually have served refreshes from memory along the way.
TEST(DeltaCacheTest, SystemMirrorConvergesThroughFaultsAndResume) {
  SnapshotSystemOptions cached_opts;
  cached_opts.delta_cache_enabled = true;
  SnapshotSystem plain_sys;
  SnapshotSystem cached_sys(cached_opts);

  struct Site {
    SnapshotSystem* sys;
    BaseTable* base = nullptr;
    std::vector<Address> live;
  };
  Site sites[2] = {{&plain_sys, nullptr, {}}, {&cached_sys, nullptr, {}}};
  for (Site& s : sites) {
    auto b = s.sys->CreateBaseTable("emp", EmpSchema());
    ASSERT_TRUE(b.ok());
    s.base = *b;
    Random rng(77);
    for (int i = 0; i < 600; ++i) {
      auto a = s.base->Insert(
          Row("e" + std::to_string(i), int64_t(rng.Uniform(30))));
      ASSERT_TRUE(a.ok());
      s.live.push_back(*a);
    }
    ASSERT_TRUE(s.sys->CreateSnapshot("lead", "emp", "Salary < 15").ok());
    ASSERT_TRUE(s.sys->CreateSnapshot("lag", "emp", "Salary < 15").ok());
    ASSERT_TRUE(s.sys->CreateSnapshot("rest", "emp", "Salary >= 15").ok());
  }

  auto mutate = [](Site* s, uint64_t seed, int ops) {
    Random rng(seed);
    for (int op = 0; op < ops; ++op) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const int64_t salary = static_cast<int64_t>(rng.Uniform(30));
      if (kind == 0 || s->live.empty()) {
        auto a = s->base->Insert(Row("n" + std::to_string(op), salary));
        ASSERT_TRUE(a.ok());
        s->live.push_back(*a);
      } else if (kind == 1) {
        ASSERT_TRUE(s->base->Update(s->live[rng.Uniform(s->live.size())],
                                    Row("u" + std::to_string(op), salary))
                        .ok());
      } else {
        const size_t idx = rng.Uniform(s->live.size());
        ASSERT_TRUE(s->base->Delete(s->live[idx]).ok());
        s->live.erase(s->live.begin() + idx);
      }
    }
  };

  auto verify = [](Site* s, const char* name) {
    auto snap = s->sys->GetSnapshot(name);
    ASSERT_TRUE(snap.ok());
    auto actual = (*snap)->Contents();
    ASSERT_TRUE(actual.ok());
    auto expected = s->sys->ExpectedContents(name);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(actual->size(), expected->size()) << name;
    for (const auto& [addr, row] : *expected) {
      ASSERT_TRUE(actual->contains(addr)) << name;
      EXPECT_TRUE(actual->at(addr).Equals(row)) << name;
    }
    ASSERT_TRUE((*snap)->ValidateIndex().ok());
  };

  uint64_t cached_serves = 0;
  for (uint64_t round = 0; round < 4; ++round) {
    for (Site& s : sites) mutate(&s, round * 13 + 2, 80);

    // The leader refreshes through a faulty link: the scan's stream is cut
    // or lossy, the retry resumes the session. On the cached side attempt
    // 2 may be answered from the image the failed attempt committed — the
    // resume suppression must still line up message-for-message.
    RefreshRequest lead = RefreshRequest::For("lead");
    if (round % 2 == 0) {
      lead.fault = FaultPlan::PartitionAfter(25).WithHealAfter(2);
      lead.retry.max_retries = 4;
    } else {
      lead.fault = FaultPlan::DropEvery(7);
      lead.retry.max_retries = 4;
    }
    for (Site& s : sites) {
      auto report = s.sys->Refresh(lead);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }

    // The laggards refresh on a clean link; the cached side must hit.
    for (const char* name : {"lag", "rest"}) {
      for (Site& s : sites) {
        auto report = s.sys->Refresh(RefreshRequest::For(name));
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        if (s.sys == &cached_sys && report->stats.served_from_cache) {
          ++cached_serves;
        }
      }
    }

    for (Site& s : sites) {
      verify(&s, "lead");
      verify(&s, "lag");
      verify(&s, "rest");
    }
    // Cross-system equality: cache on vs off ends in the same state.
    for (const char* name : {"lead", "lag", "rest"}) {
      auto p = plain_sys.GetSnapshot(name);
      auto c = cached_sys.GetSnapshot(name);
      ASSERT_TRUE(p.ok() && c.ok());
      auto pc = (*p)->Contents();
      auto cc = (*c)->Contents();
      ASSERT_TRUE(pc.ok() && cc.ok());
      ASSERT_EQ(pc->size(), cc->size()) << name;
      for (const auto& [addr, row] : *pc) {
        ASSERT_TRUE(cc->contains(addr)) << name;
        EXPECT_TRUE(cc->at(addr).Equals(row)) << name;
      }
    }
  }
  ASSERT_NE(cached_sys.delta_cache(), nullptr);
  EXPECT_EQ(plain_sys.delta_cache(), nullptr);
  EXPECT_GT(cached_serves, 0u);
  EXPECT_GT(cached_sys.delta_cache()->Stats().hits, 0u);
}

/// Every base mutation — including annotation repairs and mode flips —
/// must advance the validity tick the cache compares against.
TEST(DeltaCacheTest, MutationTickAdvancesOnEveryMutation) {
  Harness h;
  h.Create();
  uint64_t tick = h.base->mutation_tick();

  auto a1 = h.base->Insert(Row("a", 1));
  ASSERT_TRUE(a1.ok());
  EXPECT_GT(h.base->mutation_tick(), tick);
  tick = h.base->mutation_tick();

  ASSERT_TRUE(h.base->Update(*a1, Row("a2", 2)).ok());
  EXPECT_GT(h.base->mutation_tick(), tick);
  tick = h.base->mutation_tick();

  auto a2 = h.base->Insert(Row("b", 3));
  ASSERT_TRUE(a2.ok());
  tick = h.base->mutation_tick();
  ASSERT_TRUE(h.base->Delete(*a1).ok());
  EXPECT_GT(h.base->mutation_tick(), tick);
  tick = h.base->mutation_tick();

  // A differential refresh's lazy fix-up writes annotations: the repairs
  // themselves bump the tick, and the committed fill must still be valid
  // afterwards (the tick is captured post-repair).
  DeltaCache cache(0);
  std::vector<SnapshotDescriptor> descs{MakeDesc(1, "Salary < 100")};
  std::vector<Timestamp> times(1, kNullTimestamp);
  RunResult r = RunGroup(&h, &descs, &times, {0}, Exec(&cache));
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(h.base->mutation_tick(), tick) << "fix-up repairs left no tick";
  EXPECT_TRUE(cache.CanServe(*h.base, descs[0]));

  tick = h.base->mutation_tick();
  ASSERT_TRUE(h.base->SetMode(AnnotationMode::kEager).ok());
  EXPECT_GT(h.base->mutation_tick(), tick) << "mode flip must invalidate";
  EXPECT_FALSE(cache.CanServe(*h.base, descs[0]));
}

/// The splice's consistency checks, driven through the Splice API
/// directly: reused rows the previous image does not hold, and an address
/// that does not strictly increase. Each must abort the fill, drop the
/// class, and leave the next refresh to rescan with the byte-identical wire
/// of a cache-less mirror.
TEST(DeltaCacheTest, InconsistentFillAbortsAndNextRefreshRescans) {
  Harness plain, cached;
  plain.Create();
  cached.Create();
  plain.Populate(41, 800);
  cached.Populate(41, 800);
  DeltaCache cache(/*byte_budget=*/0);

  auto mk = [] {
    std::vector<SnapshotDescriptor> d;
    d.push_back(MakeDesc(1, "Salary < 20"));
    d.push_back(MakeDesc(2, "Salary < 20"));
    return d;
  };
  auto pd = mk();
  auto cd = mk();
  std::vector<Timestamp> pt(2, kNullTimestamp), ct(2, kNullTimestamp);
  ExpectSameWire(RunGroup(&plain, &pd, &pt, {0, 1}, Exec(nullptr)),
                 RunGroup(&cached, &cd, &ct, {0, 1}, Exec(&cache)));

  const Address first = cached.live[0];
  const Address second = cached.live[1];
  ASSERT_LT(first, second);
  // Past every live row, so no image can hold it.
  const Address absent = Address::FromPageSlot(60000, 1);

  struct BadFill {
    const char* what;
    std::function<void(DeltaCache::Splice*)> feed;
  };
  const std::vector<BadFill> cases = {
      {"reused rows missing from the prior image",
       [&](DeltaCache::Splice* s) {
         // Every row the prior holds, then one run past its end.
         DeltaCache::Splice::PriorRun run =
             s->FindPrior(0, absent.page() - 1);
         ASSERT_FALSE(run.empty());
         run.begin = run.end;
         run.end = run.end + 1;
         run.first = absent;
         s->CopyPrior(run, absent, s->prior_tick(), s->prior_tick());
       }},
      {"address below its predecessor",
       [&](DeltaCache::Splice* s) {
         s->Append(second, 1, 1, false, "");
         s->Append(first, 1, 1, false, "");
       }},
      {"address repeated",
       [&](DeltaCache::Splice* s) {
         s->Append(first, 1, 1, false, "");
         s->Append(first, 1, 1, false, "");
       }},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(cases[c].what);
    // Churn, then the leader refreshes on both sides: the cached side
    // re-fills, so member 1 now lags a current image.
    plain.Mutate(700 + c, 60);
    cached.Mutate(700 + c, 60);
    ExpectSameWire(RunGroup(&plain, &pd, &pt, {0}, Exec(nullptr)),
                   RunGroup(&cached, &cd, &ct, {0}, Exec(&cache)));
    ASSERT_TRUE(cache.CanServe(*cached.base, cd[1]));

    const DeltaCache::StatsSnapshot before = cache.Stats();
    std::unique_ptr<DeltaCache::Splice> splice = cache.BeginSplice(
        *cached.base, cd[0], cached.base->mutation_tick(), ct[0]);
    ASSERT_TRUE(splice->has_prior()) << "no prior image";
    cases[c].feed(splice.get());
    cache.CommitSplice(std::move(splice), cached.base->mutation_tick());

    const DeltaCache::StatsSnapshot after = cache.Stats();
    EXPECT_EQ(after.aborted_fills, before.aborted_fills + 1);
    EXPECT_EQ(after.fills, before.fills);
    EXPECT_EQ(after.classes, 0u);
    EXPECT_EQ(after.bytes, 0u);
    EXPECT_FALSE(cache.CanServe(*cached.base, cd[1]));

    RunResult rescan = RunGroup(&plain, &pd, &pt, {1}, Exec(nullptr));
    RunResult refreshed = RunGroup(&cached, &cd, &ct, {1}, Exec(&cache));
    ExpectSameWire(rescan, refreshed);
    ASSERT_EQ(refreshed.stats.size(), 1u);
    EXPECT_FALSE(refreshed.stats[0].served_from_cache);
    EXPECT_GT(refreshed.stats[0].entries_scanned, 0u);
    EXPECT_GT(refreshed.traffic.entry_messages, 0u);
    ASSERT_EQ(pt, ct);
  }
  EXPECT_EQ(cache.Stats().aborted_fills, cases.size());
}

/// Pages of the base table holding at least one live row, in address
/// order, each with its live rows.
std::map<PageId, std::vector<Address>> LivePages(const Harness& h) {
  std::map<PageId, std::vector<Address>> pages;
  for (Address a : h.live) pages[a.page()].push_back(a);
  for (auto& [page, rows] : pages) std::sort(rows.begin(), rows.end());
  return pages;
}

/// The partial-refresh property, case by case: every refresh of the
/// cached side — a splice of the stale image (only the pages written since
/// it are rescanned) followed by a replay — must match the cache-less
/// twin's full rescan byte for byte, stream and channel meters alike, and
/// the splice must really have reused the clean pages.
TEST(DeltaCacheTest, PartialRefreshMatchesFullRescan) {
  Harness plain, cached;
  plain.Create();
  cached.Create();
  plain.Populate(57, 2400);
  cached.Populate(57, 2400);
  DeltaCache cache(/*byte_budget=*/0);

  auto mk = [] {
    std::vector<SnapshotDescriptor> d;
    d.push_back(MakeDesc(1, "Salary < 15"));
    d.push_back(MakeDesc(2, "Salary < 15", /*anchor=*/true));
    d.push_back(MakeDesc(3, "Salary >= 15"));
    d.push_back(MakeDesc(4, "Salary >= 15", /*anchor=*/true));
    return d;
  };
  auto pd = mk();
  auto cd = mk();
  std::vector<Timestamp> pt(4, kNullTimestamp), ct(4, kNullTimestamp);

  // Harness::Mutate with full pages tolerated: an update that outgrows its
  // page fails the same way on both twins and changes nothing.
  auto churn = [](Harness* h, uint64_t seed, int ops) {
    Random rng(seed);
    for (int op = 0; op < ops; ++op) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const int64_t salary = static_cast<int64_t>(rng.Uniform(30));
      if (kind == 0 || h->live.empty()) {
        auto a = h->base->Insert(Row("c" + std::to_string(op), salary));
        ASSERT_TRUE(a.ok());
        h->live.push_back(*a);
      } else if (kind == 1) {
        const Status st = h->base->Update(
            h->live[rng.Uniform(h->live.size())], Row("u", salary));
        ASSERT_TRUE(st.ok() || st.IsResourceExhausted()) << st.ToString();
      } else {
        const size_t idx = rng.Uniform(h->live.size());
        ASSERT_TRUE(h->base->Delete(h->live[idx]).ok());
        h->live.erase(h->live.begin() + idx);
      }
    }
  };
  // Applies the same edit to both twins; the edit receives the harness.
  auto both = [&](const std::function<void(Harness*)>& edit) {
    edit(&plain);
    edit(&cached);
  };
  // One refresh of `which` on both sides; returns the cached side's run and
  // the pages its splice rescanned and reused.
  struct Step {
    RunResult run;
    uint64_t rescanned = 0;
    uint64_t reused = 0;
  };
  auto refresh = [&](const std::vector<size_t>& which,
                     const RefreshExecution& plain_exec,
                     const RefreshExecution& cached_exec) {
    const DeltaCache::StatsSnapshot before = cache.Stats();
    RunResult rescan = RunGroup(&plain, &pd, &pt, which, plain_exec);
    Step step;
    step.run = RunGroup(&cached, &cd, &ct, which, cached_exec);
    ExpectSameWire(rescan, step.run);
    EXPECT_EQ(pt, ct) << "oracle lockstep lost";
    const DeltaCache::StatsSnapshot after = cache.Stats();
    step.rescanned = after.pages_rescanned - before.pages_rescanned;
    step.reused = after.pages_reused - before.pages_reused;
    return step;
  };
  auto round = [&](const char* what) {
    SCOPED_TRACE(what);
    const size_t pages = cached.base->info()->heap->pages().size();
    // Class "< 15" is stale after the edit: its leader splices.
    Step lead = refresh({0}, Exec(nullptr), Exec(&cache));
    EXPECT_FALSE(lead.run.stats[0].served_from_cache);
    EXPECT_EQ(lead.rescanned + lead.reused, pages);
    // The anchor member of the same class replays the fresh image.
    Step lag = refresh({1}, Exec(nullptr), Exec(&cache));
    EXPECT_TRUE(lag.run.stats[0].served_from_cache);
    EXPECT_EQ(lag.rescanned + lag.reused, 0u);
    return lead;
  };

  // First fill: no image, every page is dirty.
  Step first = refresh({0, 1, 2, 3}, Exec(nullptr), Exec(&cache));
  EXPECT_EQ(first.reused, 0u);
  EXPECT_EQ(first.rescanned, cached.base->info()->heap->pages().size());
  const std::map<PageId, std::vector<Address>> layout = LivePages(cached);
  ASSERT_GE(layout.size(), 8u) << "the cases below need several pages";

  // Update-only burst on two pages: only those pages are rescanned.
  {
    auto it = layout.begin();
    const Address a = it->second[3];
    std::advance(it, 4);
    const Address b = it->second[1];
    both([&](Harness* h) {
      ASSERT_TRUE(h->base->Update(a, Row("a", 3)).ok());
      ASSERT_TRUE(h->base->Update(b, Row("b", 27)).ok());
    });
    Step s = round("update-only burst");
    EXPECT_EQ(s.rescanned, 2u);
  }

  // Deleting the table's first row: its successor is renumbered.
  {
    const Address head = layout.begin()->second.front();
    both([&](Harness* h) {
      ASSERT_TRUE(h->base->Delete(head).ok());
      std::erase(h->live, head);
    });
    Step s = round("delete the first row");
    EXPECT_EQ(s.rescanned, 1u);
  }

  // Deletes whose successor lies beyond emptied pages: the last row of page
  // 2 and every row of pages 3 and 4. The successor (first row of page 5)
  // sits on a clean page and must still get its deletion repair.
  {
    auto it = std::next(layout.begin(), 2);
    std::vector<Address> doomed = {it->second.back()};
    for (int k = 0; k < 2; ++k) {
      ++it;
      doomed.insert(doomed.end(), it->second.begin(), it->second.end());
    }
    both([&](Harness* h) {
      for (Address a : doomed) {
        ASSERT_TRUE(h->base->Delete(a).ok());
        std::erase(h->live, a);
      }
    });
    Step s = round("deletes past emptied pages");
    EXPECT_EQ(s.rescanned, 3u);
    EXPECT_GT(s.run.stats[0].fixups_deleted, 0u);
  }

  // Reinserts: first-fit fills the hole on page 0, then the emptied page 3.
  both([&](Harness* h) {
    for (int k = 0; k < 5; ++k) {
      auto a = h->base->Insert(Row("re" + std::to_string(k), 4 + k));
      ASSERT_TRUE(a.ok());
      h->live.push_back(*a);
    }
  });
  {
    Step s = round("reinsert into an emptied page");
    EXPECT_GE(s.rescanned, 2u);
    EXPECT_GT(s.reused, 0u);
  }

  // Inserts onto newly allocated pages past the end of the table.
  {
    const size_t pages_before = cached.base->info()->heap->pages().size();
    both([&](Harness* h) {
      for (int k = 0; k < 400; ++k) {
        auto a = h->base->Insert(Row("new" + std::to_string(k), k % 30));
        ASSERT_TRUE(a.ok());
        h->live.push_back(*a);
      }
    });
    ASSERT_GT(cached.base->info()->heap->pages().size(), pages_before);
    Step s = round("inserts on new pages");
    EXPECT_GT(s.reused, 0u);
  }

  // A two-class group with one class current and one stale: class ">= 15"
  // has not refreshed since the first fill, class "< 15" just did.
  {
    both([&](Harness* h) { churn(h, 901, 40); });
    refresh({0}, Exec(nullptr), Exec(&cache));
    ASSERT_TRUE(cache.CanServe(*cached.base, cd[1]));
    ASSERT_FALSE(cache.CanServe(*cached.base, cd[3]));
    Step s = refresh({1, 3}, Exec(nullptr), Exec(&cache));
    EXPECT_FALSE(s.run.stats[0].served_from_cache);
    EXPECT_GT(s.reused, 0u);
    EXPECT_TRUE(cache.CanServe(*cached.base, cd[2]));
  }

  // Seeded churn: random bursts of every kind, each refresh checked.
  for (uint64_t r = 0; r < 6; ++r) {
    both([&](Harness* h) { churn(h, 930 + r, 10 + 20 * (r % 3)); });
    const std::vector<size_t> which =
        r % 2 == 0 ? std::vector<size_t>{0, 3} : std::vector<size_t>{2};
    refresh(which, Exec(nullptr), Exec(&cache));
    refresh({1}, Exec(nullptr), Exec(&cache));
  }

  // A writer interleaving the refresh: both sides refresh over a cut taken
  // before a burst of writes. The streams equal the cut, and the cached
  // side installs nothing (the repairs no longer describe the table).
  {
    both([&](Harness* h) { churn(h, 950, 30); });
    RefreshExecution plain_exec = Exec(nullptr);
    RefreshExecution cached_exec = Exec(&cache);
    plain_exec.epoch = plain.base->OpenEpoch();
    cached_exec.epoch = cached.base->OpenEpoch();
    both([&](Harness* h) { churn(h, 951, 30); });
    const uint64_t fills = cache.Stats().fills;
    Step s = refresh({0}, plain_exec, cached_exec);
    EXPECT_GT(s.reused, 0u);
    EXPECT_EQ(cache.Stats().fills, fills) << "an inexact splice installed";
    EXPECT_FALSE(cache.CanServe(*cached.base, cd[1]));
    // Quiesced again, the next refresh splices and installs.
    round("after the interleaved writer");
  }

  // A re-attached heap: the same pages under a new heap (a restart) share
  // nothing with the old clock, so the image must be rebuilt from every
  // page. Recovery's recount on a live heap has the same effect.
  {
    BufferPool* pool = cached.sys.base_catalog()->buffer_pool();
    Catalog reattached(pool);
    TableInfo* old_info = cached.base->info();
    auto info = reattached.AttachTable(old_info->name, old_info->schema,
                                       old_info->heap->pages(),
                                       old_info->heap->policy(), old_info->id);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    BaseTable base(*info, AnnotationMode::kLazy, cached.base->oracle(),
                   /*wal=*/nullptr);
    BaseTable* old_base = cached.base;
    cached.base = &base;
    both([&](Harness* h) { churn(h, 960, 20); });
    Step s = round("re-attached heap");
    EXPECT_EQ(s.reused, 0u);

    ASSERT_TRUE(base.info()->heap->RecountLive().ok());
    ASSERT_FALSE(cache.CanServe(base, cd[1]));
    Step recount = round("recounted heap");
    EXPECT_EQ(recount.reused, 0u);
    cached.base = old_base;  // `base` dies with this scope
  }
}

/// Writers racing a cached refresh: the splice reads the page directory
/// while writer threads stamp pages, so it must still transmit exactly the
/// cut (the quiesced cache-less twin's stream) and install nothing, and
/// the next quiesced refresh must converge. Run under TSan in CI.
TEST(DeltaCacheTest, SpliceBesideConcurrentWriters) {
  SnapshotSystemOptions cached_opts;
  cached_opts.delta_cache_enabled = true;
  SnapshotSystem cached_sys(cached_opts);
  SnapshotSystem plain_sys;
  struct Site {
    SnapshotSystem* sys;
    BaseTable* base = nullptr;
    std::vector<Address> live;
  };
  Site sites[2] = {{&cached_sys, nullptr, {}}, {&plain_sys, nullptr, {}}};
  for (Site& s : sites) {
    auto b = s.sys->CreateBaseTable("emp", EmpSchema());
    ASSERT_TRUE(b.ok());
    s.base = *b;
    Random rng(5);
    for (int i = 0; i < 3000; ++i) {
      auto a = s.base->Insert(
          Row("e" + std::to_string(i), int64_t(rng.Uniform(30))));
      ASSERT_TRUE(a.ok());
      s.live.push_back(*a);
    }
    ASSERT_TRUE(s.sys->CreateSnapshot("snap", "emp", "Salary < 15").ok());
    ASSERT_TRUE(s.sys->Refresh(RefreshRequest::For("snap")).ok());
    // The same pre-cut burst on both sides, on the first page or two.
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(s.base->Update(s.live[i], Row("p", i % 30)).ok());
    }
  }
  auto oracle = plain_sys.Refresh(RefreshRequest::For("snap"));
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  constexpr int kWriters = 2;
  std::vector<std::thread> writers;
  RefreshRequest request = RefreshRequest::For("snap");
  Site& a = sites[0];
  // The writers own disjoint slices of the last third of the rows, so the
  // middle pages stay clean and are copied from the image.
  // Each writer's first write lands before the refresh goes on, so the
  // refresh is interleaved however the threads are scheduled.
  std::atomic<int> started{0};
  request.on_epoch_open = [&a, &writers, &started] {
    const size_t first = a.live.size() * 2 / 3;
    const size_t slice = (a.live.size() - first) / kWriters;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([base = a.base, &a, &started, first, slice, t] {
        Random rng(100 + t);
        for (int op = 0; op < 300; ++op) {
          const Address addr =
              a.live[first + t * slice + rng.Uniform(slice)];
          const Status st = base->Update(addr, Row("w", op % 30));
          EXPECT_TRUE(st.ok() || st.IsResourceExhausted()) << st.ToString();
          if (op == 0) started.fetch_add(1);
        }
      });
    }
    while (started.load() < kWriters) std::this_thread::yield();
  };
  const DeltaCache::StatsSnapshot before = cached_sys.delta_cache()->Stats();
  auto concurrent = cached_sys.Refresh(request);
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(writers.size(), static_cast<size_t>(kWriters));
  const ChannelStats& got = concurrent->stats.traffic;
  const ChannelStats& want = oracle->stats.traffic;
  EXPECT_EQ(got.entry_messages, want.entry_messages);
  EXPECT_EQ(got.payload_bytes, want.payload_bytes);
  EXPECT_EQ(got.wire_bytes, want.wire_bytes);
  const DeltaCache::StatsSnapshot after = cached_sys.delta_cache()->Stats();
  EXPECT_GT(after.pages_reused, before.pages_reused);
  EXPECT_EQ(after.fills, before.fills) << "installed an inexact splice";

  ASSERT_TRUE(cached_sys.DrainChannel().ok());
  ASSERT_TRUE(cached_sys.Refresh(RefreshRequest::For("snap")).ok());
  auto snap = cached_sys.GetSnapshot("snap");
  ASSERT_TRUE(snap.ok());
  auto actual = (*snap)->Contents();
  auto expected = cached_sys.ExpectedContents("snap");
  ASSERT_TRUE(actual.ok() && expected.ok());
  EXPECT_EQ(*actual, *expected);
  EXPECT_TRUE(ValidateAnnotationChain(a.base).ok());
}

/// Introspection surface: stats, per-class debug lines, and Clear().
TEST(DeltaCacheTest, StatsDebugStringAndClear) {
  Harness h;
  h.Create();
  h.Populate(1, 200);
  DeltaCache cache(/*byte_budget=*/1 << 20);

  std::vector<SnapshotDescriptor> descs{MakeDesc(1, "Salary < 10"),
                                        MakeDesc(2, "Salary >= 10")};
  std::vector<Timestamp> times(2, kNullTimestamp);
  ASSERT_TRUE(RunGroup(&h, &descs, &times, {0, 1}, Exec(&cache)).status.ok());

  DeltaCache::StatsSnapshot st = cache.Stats();
  EXPECT_EQ(st.classes, 2u);
  EXPECT_EQ(st.fills, 2u);
  EXPECT_GT(st.bytes, 0u);
  EXPECT_EQ(st.byte_budget, uint64_t{1 << 20});

  const std::string debug = cache.DebugString();
  EXPECT_NE(debug.find("Salary < 10"), std::string::npos) << debug;
  EXPECT_NE(debug.find("Salary >= 10"), std::string::npos) << debug;

  cache.Clear();
  EXPECT_EQ(cache.Stats().classes, 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
  EXPECT_EQ(cache.Stats().fills, 2u);  // cumulative meters survive
  EXPECT_FALSE(cache.CanServe(*h.base, descs[0]));

  // After Clear the next refresh is a miss that re-fills.
  ASSERT_TRUE(RunGroup(&h, &descs, &times, {0}, Exec(&cache)).status.ok());
  EXPECT_GT(cache.Stats().misses, 0u);
  EXPECT_EQ(cache.Stats().classes, 1u);
}

}  // namespace
}  // namespace snapdiff
