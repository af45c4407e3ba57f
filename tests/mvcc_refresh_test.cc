// Writer-vs-refresh property test for copy-on-write scan epochs.
//
// Two systems run the same deterministic history: A refreshes while writer
// threads mutate the base table (unleashed at the instant the scan epoch
// opens, via RefreshRequest::on_epoch_open); B is the quiesced oracle — no
// writers, same state at the cut. The refresh under concurrency must be
// indistinguishable from the oracle run: identical wire traffic (message
// counts by type, payload and wire bytes — the stream is byte-identical
// because message serialization is deterministic), identical snapshot
// contents, identical new SnapTime. Afterwards A quiesces and one more
// refresh must converge the snapshot on the post-cut base state with an
// intact annotation chain — no fix-up lost to a writer stays lost, and
// none is applied twice.

#include "snapshot/snapshot_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "snapshot/base_table.h"

namespace snapdiff {
namespace {

constexpr uint64_t kSeed = 0x51a9d1ff;
constexpr int kInitialRows = 400;
constexpr int kPreCutOps = 150;
constexpr int kWriterThreads = 4;
constexpr int kWriterOps = 80;

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

Tuple Row(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary)});
}

/// Fixed-width row name: in-place updates never need to grow the slot, so
/// a random update of a packed page cannot fail with "page full".
std::string Name(char prefix, uint64_t n) {
  std::string s = std::to_string(n % 1000000);
  return prefix + std::string(6 - s.size(), '0') + s;
}

/// One base site with a tracked set of live addresses, so the deterministic
/// mutation script can pick update/delete targets reproducibly.
struct Site {
  SnapshotSystem sys;
  BaseTable* base = nullptr;
  std::vector<Address> live;
};

void LoadBase(Site* s) {
  auto base = s->sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  s->base = *base;
  Random rng(kSeed);
  for (int i = 0; i < kInitialRows; ++i) {
    auto addr =
        s->base->Insert(Row(Name('e', static_cast<uint64_t>(i)), rng.UniformInt(0, 99)));
    ASSERT_TRUE(addr.ok());
    s->live.push_back(*addr);
  }
}

/// Applies `ops` random mutations (insert / update / delete) drawn from
/// `rng`. Identical seeds against identical table histories produce
/// identical mutation sequences — and identical resulting addresses, since
/// heap placement is deterministic.
void Mutate(BaseTable* base, std::vector<Address>* live, Random* rng,
            int ops) {
  for (int i = 0; i < ops; ++i) {
    const uint64_t pick = rng->Uniform(10);
    if (live->empty() || pick < 4) {
      auto addr = base->Insert(Row(Name('m', rng->Uniform(100000)),
                                   rng->UniformInt(0, 99)));
      EXPECT_TRUE(addr.ok());
      if (addr.ok()) live->push_back(*addr);
    } else if (pick < 8) {
      const size_t at = rng->Uniform(live->size());
      EXPECT_TRUE(base->Update((*live)[at],
                               Row(Name('u', rng->Uniform(100000)),
                                   rng->UniformInt(0, 99)))
                      .ok());
    } else {
      const size_t at = rng->Uniform(live->size());
      EXPECT_TRUE(base->Delete((*live)[at]).ok());
      (*live)[at] = live->back();
      live->pop_back();
    }
  }
}

/// Traffic identity: the refresh under concurrent writers must have sent
/// the same stream as the quiesced oracle run. Message serialization is
/// deterministic, so equal counts per message type plus equal payload and
/// wire byte totals pin the streams to each other byte for byte.
void ExpectSameStream(const RefreshStats& got, const RefreshStats& want) {
  EXPECT_EQ(got.traffic.messages, want.traffic.messages);
  EXPECT_EQ(got.traffic.entry_messages, want.traffic.entry_messages);
  EXPECT_EQ(got.traffic.delete_messages, want.traffic.delete_messages);
  EXPECT_EQ(got.traffic.control_messages, want.traffic.control_messages);
  EXPECT_EQ(got.traffic.payload_bytes, want.traffic.payload_bytes);
  EXPECT_EQ(got.traffic.wire_bytes, want.traffic.wire_bytes);
  EXPECT_EQ(got.entries_scanned, want.entries_scanned);
  EXPECT_EQ(got.snap_upserts, want.snap_upserts);
  EXPECT_EQ(got.snap_inserts, want.snap_inserts);
  EXPECT_EQ(got.snap_deletes, want.snap_deletes);
  EXPECT_EQ(got.new_snap_time, want.new_snap_time);
}

/// The applied result of both streams: same addresses, same tuples.
void ExpectSameContents(SnapshotSystem* a, SnapshotSystem* b) {
  auto snap_a = a->GetSnapshot("snap");
  auto snap_b = b->GetSnapshot("snap");
  ASSERT_TRUE(snap_a.ok());
  ASSERT_TRUE(snap_b.ok());
  auto contents_a = (*snap_a)->Contents();
  auto contents_b = (*snap_b)->Contents();
  ASSERT_TRUE(contents_a.ok());
  ASSERT_TRUE(contents_b.ok());
  ASSERT_EQ(contents_a->size(), contents_b->size());
  auto it_a = contents_a->begin();
  for (const auto& [addr, row] : *contents_b) {
    EXPECT_EQ(it_a->first, addr) << "address divergence at " << addr.ToString();
    EXPECT_TRUE(it_a->second.Equals(row))
        << "tuple divergence at " << addr.ToString();
    ++it_a;
  }
}

/// Snapshot == restrict ∘ project of the live base (post-quiesce check).
void ExpectFaithful(SnapshotSystem* sys) {
  auto snap = sys->GetSnapshot("snap");
  ASSERT_TRUE(snap.ok());
  auto actual = (*snap)->Contents();
  ASSERT_TRUE(actual.ok());
  auto expected = sys->ExpectedContents("snap");
  ASSERT_TRUE(expected.ok());
  for (const auto& [addr, row] : *actual) {
    EXPECT_TRUE(expected->contains(addr))
        << "stale snapshot row at " << addr.ToString() << ": "
        << row.value(0).ToString() << "/" << row.value(1).ToString();
  }
  ASSERT_EQ(actual->size(), expected->size());
  for (const auto& [addr, row] : *expected) {
    ASSERT_TRUE(actual->contains(addr)) << "missing " << addr.ToString();
    EXPECT_TRUE(actual->at(addr).Equals(row))
        << "differs at " << addr.ToString();
  }
  ASSERT_TRUE((*snap)->ValidateIndex().ok());
}

class MvccRefreshPropertyTest
    : public ::testing::TestWithParam<RefreshMethod> {};

TEST_P(MvccRefreshPropertyTest, ConcurrentWritersAreInvisibleAtTheCut) {
  const RefreshMethod method = GetParam();
  Site a;
  Site b;
  for (Site* s : {&a, &b}) {
    LoadBase(s);
    if (::testing::Test::HasFatalFailure()) return;
    SnapshotOptions opts;
    opts.method = method;
    Random pre_rng(kSeed ^ 0x9e3779b97f4a7c15ull);
    if (method == RefreshMethod::kAsap) {
      // ASAP propagates at write time, so the interesting epoch-protected
      // stream is the *initial copy*: mutate first, then attach.
      Mutate(s->base, &s->live, &pre_rng, kPreCutOps);
      ASSERT_TRUE(s->sys.CreateSnapshot("snap", "emp", "Salary < 50", opts)
                      .ok());
    } else {
      ASSERT_TRUE(s->sys.CreateSnapshot("snap", "emp", "Salary < 50", opts)
                      .ok());
      ASSERT_TRUE(s->sys.Refresh(RefreshRequest::For("snap")).ok());
      Mutate(s->base, &s->live, &pre_rng, kPreCutOps);
    }
  }

  // B is the oracle: the same state at the cut, refreshed quiesced.
  auto oracle = b.sys.Refresh(RefreshRequest::For("snap"));
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  // A refreshes with writer threads unleashed the instant the epoch opens.
  // Each thread owns a disjoint slice of the pre-cut addresses, so the
  // threads race the refresh scan (and each other only through the table's
  // internal mutation lock), never double-delete an address.
  std::vector<std::thread> writers;
  RefreshRequest request = RefreshRequest::For("snap");
  request.on_epoch_open = [&a, &writers] {
    const size_t slice = a.live.size() / kWriterThreads;
    for (int t = 0; t < kWriterThreads; ++t) {
      std::vector<Address> mine(
          a.live.begin() + static_cast<long>(t * slice),
          a.live.begin() + static_cast<long>(t == kWriterThreads - 1
                                                 ? a.live.size()
                                                 : (t + 1) * slice));
      writers.emplace_back([base = a.base, mine = std::move(mine), t]() mutable {
        Random rng(kSeed + 977u * static_cast<uint64_t>(t + 1));
        Mutate(base, &mine, &rng, kWriterOps);
      });
    }
  };
  auto concurrent = a.sys.Refresh(request);
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(writers.size(), static_cast<size_t>(kWriterThreads))
      << "on_epoch_open hook never fired";

  // The concurrent stream is indistinguishable from the quiesced one.
  ExpectSameStream(concurrent->stats, oracle->stats);
  ExpectSameContents(&a.sys, &b.sys);

  // Quiesced convergence: one more refresh catches the snapshot up on the
  // post-cut writes, including every fix-up the epoch refresh skipped
  // because a writer won the row.
  ASSERT_TRUE(a.sys.DrainChannel().ok());
  auto converge = a.sys.Refresh(RefreshRequest::For("snap"));
  ASSERT_TRUE(converge.ok()) << converge.status().ToString();
  ExpectFaithful(&a.sys);
  if (method == RefreshMethod::kDifferential) {
    // Zero lost fix-ups (NULL annotations left behind) and zero duplicated
    // ones (a double-applied repair breaks the PrevAddr chain).
    EXPECT_TRUE(ValidateAnnotationChain(a.base).ok());
  }
}

std::string MethodName(
    const ::testing::TestParamInfo<RefreshMethod>& info) {
  switch (info.param) {
    case RefreshMethod::kFull:
      return "Full";
    case RefreshMethod::kDifferential:
      return "Differential";
    case RefreshMethod::kIdeal:
      return "Ideal";
    case RefreshMethod::kLogBased:
      return "LogBased";
    case RefreshMethod::kAsap:
      return "Asap";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MvccRefreshPropertyTest,
                         ::testing::Values(RefreshMethod::kFull,
                                           RefreshMethod::kDifferential,
                                           RefreshMethod::kIdeal,
                                           RefreshMethod::kLogBased,
                                           RefreshMethod::kAsap),
                         MethodName);

// The differential refresh under writers must skip — never misapply — the
// fix-up of any row a writer touched after the cut, and must report the
// skips. A heavy-delete workload forces plenty of chain repairs to race.
TEST(MvccRefreshTest, SkippedFixupsAreCountedAndRepairedNextRound) {
  Site s;
  LoadBase(&s);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(s.sys.CreateSnapshot("snap", "emp", "Salary < 80").ok());
  ASSERT_TRUE(s.sys.Refresh(RefreshRequest::For("snap")).ok());
  // Deletions detected lazily at the next refresh = chain anomalies whose
  // repairs the concurrent writers then race.
  Random rng(kSeed ^ 0xfeedface);
  Mutate(s.base, &s.live, &rng, kPreCutOps);

  // One guaranteed race: `victim` is in this refresh's delta (lazy update
  // NULLed its timestamp pre-cut), and the hook below rewrites it again
  // immediately after the cut — so the scan's buffered repair for it must
  // fail its byte-identity guard and be skipped, regardless of how the
  // scheduler treats the racing threads.
  const Address victim = s.live[0];
  ASSERT_TRUE(s.base->Update(victim, Row(Name('v', 1), 5)).ok());

  std::vector<std::thread> writers;
  RefreshRequest request = RefreshRequest::For("snap");
  request.on_epoch_open = [&s, &writers, victim] {
    ASSERT_TRUE(s.base->Update(victim, Row(Name('v', 2), 5)).ok());
    for (int t = 0; t < kWriterThreads; ++t) {
      // All threads hammer updates over the whole table (updates only, so
      // concurrent threads never invalidate each other's addresses).
      writers.emplace_back([&s, t] {
        Random thread_rng(kSeed + 31u * static_cast<uint64_t>(t + 1));
        for (int i = 0; i < kWriterOps; ++i) {
          const Address addr = s.live[thread_rng.Uniform(s.live.size())];
          (void)s.base->Update(
              addr, Row(Name('w', thread_rng.Uniform(100000)),
                        thread_rng.UniformInt(0, 99)));
        }
      });
    }
  };
  auto report = s.sys.Refresh(request);
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Writers raced the fix-up scan over every row, so at least one repair
  // must have been conditionally skipped — and the very next quiesced
  // refresh must leave a fully repaired chain anyway.
  EXPECT_GT(report->stats.fixups_skipped, 0u);
  ASSERT_TRUE(s.sys.Refresh(RefreshRequest::For("snap")).ok());
  EXPECT_TRUE(ValidateAnnotationChain(s.base).ok());
  ExpectFaithful(&s.sys);
}

/// Holds a refresh inside its on_epoch_open hook until released.
class EpochPark {
 public:
  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

/// Serves one refresh of `name` on another thread, the way a refresh
/// server's connection thread does, into a link that thread owns.
std::future<Status> ServeOnAnotherThread(SnapshotSystem* sys,
                                         const std::string& name) {
  return std::async(std::launch::async, [sys, name]() -> Status {
    ASSIGN_OR_RETURN(SnapshotSystem::SnapshotWireInfo info,
                     sys->DescribeSnapshot(name));
    SnapshotSystem::ServeRequest request;
    request.snapshot_id = info.id;
    Channel link;
    ASSIGN_OR_RETURN(SnapshotSystem::ServeOutcome served,
                     sys->ServeRefresh(request, &link));
    return sys->AcknowledgeServe(info.id, served.session_id);
  });
}

/// Refreshes "a" (on emp) with the refresh parked at its epoch while
/// `probe` runs, then releases it; the parked refresh must succeed.
template <typename Probe>
void WithRefreshParkedAtEpoch(SnapshotSystem* sys, Probe probe) {
  EpochPark park;
  RefreshRequest request = RefreshRequest::For("a");
  request.on_epoch_open = [&park] { park.Park(); };
  std::future<Result<RefreshReport>> first = std::async(
      std::launch::async, [sys, &request] { return sys->Refresh(request); });
  park.AwaitParked();
  probe();
  park.Release();
  Result<RefreshReport> report = first.get();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
}

// Per-table admission is what serializes refreshes now that no table lock
// exists: a refresh parked at its epoch keeps a second refresh of the same
// base table out, while a refresh of another table streams alongside it.
TEST(MvccRefreshTest, AdmissionSerializesRefreshesPerBaseTable) {
  SnapshotSystem sys;
  for (const char* table : {"emp", "dept"}) {
    auto base = sys.CreateBaseTable(table, EmpSchema());
    ASSERT_TRUE(base.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*base)->Insert(Row(Name('e', i), i)).ok());
    }
  }
  ASSERT_TRUE(sys.CreateSnapshot("a", "emp", "Salary < 30").ok());
  ASSERT_TRUE(sys.CreateSnapshot("b", "emp", "Salary >= 30").ok());
  ASSERT_TRUE(sys.CreateSnapshot("c", "dept", "Salary < 30").ok());
  ASSERT_EQ(sys.refreshes_concurrent_high_water(), 0u);

  // Same table: the second refresh queues at admission, before its epoch,
  // and only runs once the parked one has released the table.
  std::future<Status> same;
  WithRefreshParkedAtEpoch(&sys, [&] {
    same = ServeOnAnotherThread(&sys, "b");
    EXPECT_EQ(same.wait_for(std::chrono::milliseconds(200)),
              std::future_status::timeout)
        << "a refresh of the same table overtook the parked one";
  });
  Status same_status = same.get();
  EXPECT_TRUE(same_status.ok()) << same_status.ToString();
  EXPECT_EQ(sys.refreshes_concurrent_high_water(), 1u);

  // Different table: admitted while the first is still parked.
  WithRefreshParkedAtEpoch(&sys, [&] {
    std::future<Status> other = ServeOnAnotherThread(&sys, "c");
    ASSERT_EQ(other.wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << "a refresh of another table waited for the parked one";
    Status other_status = other.get();
    EXPECT_TRUE(other_status.ok()) << other_status.ToString();
  });
  EXPECT_EQ(sys.refreshes_concurrent_high_water(), 2u);

  auto expected = sys.ExpectedContents("a");
  auto actual = (*sys.GetSnapshot("a"))->Contents();
  ASSERT_TRUE(expected.ok() && actual.ok());
  EXPECT_EQ(actual->size(), expected->size());
}

}  // namespace
}  // namespace snapdiff
