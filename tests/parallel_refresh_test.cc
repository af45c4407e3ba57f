// Equivalence tests for the parallel partitioned refresh pipeline: with any
// worker count and batch size, the differential executor must emit exactly
// the sequential executor's message stream (workers run the one Figure 3/7
// scan and the merge settles only each partition's head and pending
// decisions, so this is byte-for-byte equality), and ENTRY_BATCH
// coalescing must be pure transport.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "expr/parser.h"
#include "net/refresh_session.h"
#include "obs/metrics.h"
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

/// One independent base site. Two harnesses driven with the same seeds
/// stay in perfect lockstep (storage, addresses, oracle), so a sequential
/// refresh of one and a parallel refresh of the other see identical
/// tables.
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
        // An update that outgrows its page is refused ("page full") the
        // same way on every twin, so the twins stay in lockstep.
        const Status st = base->Update(live[rng.Uniform(live.size())],
                                       Row("u" + std::to_string(op), salary));
        ASSERT_TRUE(st.ok() || st.IsResourceExhausted()) << st.ToString();
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

struct RunResult {
  Status status = Status::OK();
  std::vector<Message> messages;
  std::vector<RefreshStats> stats;
  ChannelStats traffic;
};

/// Runs one group refresh directly against the executor, draining the wire
/// into `messages` and advancing `snap_times` from the END_OF_REFRESH
/// markers so rounds chain like facade refreshes. With `member_sinks` each
/// member sends through its own RefreshSession on the shared channel;
/// `resume_after` > 0 runs a resumed shared session that suppresses that
/// many messages.
RunResult RunGroup(Harness* h, std::vector<SnapshotDescriptor>* descs,
                   std::vector<Timestamp>* snap_times, RefreshExecution exec,
                   bool member_sinks = false, uint64_t resume_after = 0) {
  RunResult out;
  Channel channel;
  out.stats.resize(descs->size());
  std::vector<std::unique_ptr<RefreshSession>> sessions;
  std::vector<GroupRefreshMember> members;
  for (size_t i = 0; i < descs->size(); ++i) {
    MessageSink* sink = nullptr;
    if (member_sinks) {
      sessions.push_back(
          std::make_unique<RefreshSession>(&channel, 101 + i, 0));
      sink = sessions.back().get();
    }
    members.push_back({&(*descs)[i], (*snap_times)[i], &out.stats[i], sink});
  }
  RefreshSession shared(&channel, 7, resume_after);
  if (resume_after > 0) exec.session = &shared;
  out.status = ExecuteGroupDifferentialRefresh(h->base, &members, &channel,
                                               nullptr, exec);
  while (channel.HasPending()) {
    auto m = channel.Receive();
    if (!m.ok()) {
      out.status = m.status();
      break;
    }
    if (m->type == MessageType::kEndOfRefresh) {
      for (size_t i = 0; i < descs->size(); ++i) {
        if ((*descs)[i].id == m->snapshot_id) {
          (*snap_times)[i] = m->timestamp;
        }
      }
    }
    out.messages.push_back(std::move(*m));
  }
  out.traffic = channel.stats();
  return out;
}

void ExpectSameStream(const RunResult& a, const RunResult& b) {
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (size_t i = 0; i < a.messages.size(); ++i) {
    ASSERT_TRUE(a.messages[i] == b.messages[i])
        << "message " << i << ": " << a.messages[i].ToString() << " vs "
        << b.messages[i].ToString();
  }
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].ToString(), b.stats[i].ToString()) << "member " << i;
  }
  EXPECT_EQ(a.traffic.messages, b.traffic.messages);
  EXPECT_EQ(a.traffic.entry_messages, b.traffic.entry_messages);
  EXPECT_EQ(a.traffic.delete_messages, b.traffic.delete_messages);
  EXPECT_EQ(a.traffic.control_messages, b.traffic.control_messages);
  EXPECT_EQ(a.traffic.batched_entries, b.traffic.batched_entries);
  EXPECT_EQ(a.traffic.payload_bytes, b.traffic.payload_bytes);
  EXPECT_EQ(a.traffic.wire_bytes, b.traffic.wire_bytes);
  EXPECT_EQ(a.traffic.frames, b.traffic.frames);
}

std::vector<SnapshotDescriptor> ThreeWayDescs() {
  std::vector<SnapshotDescriptor> descs;
  descs.push_back(MakeDesc(1, "Salary < 10"));
  descs.push_back(MakeDesc(2, "Salary >= 10 AND Salary < 20"));
  // One member with the anchor optimization: payload-free entries must
  // survive the parallel extraction and batching unchanged.
  descs.push_back(MakeDesc(3, "Salary >= 5", /*anchor=*/true));
  return descs;
}

TEST(ParallelRefreshTest, StreamIdenticalToSequentialOnRandomizedWorkload) {
  Harness seq;
  Harness par;
  seq.Create();
  par.Create();
  seq.Populate(11, 2500);  // multi-page: dozens of 4 KiB pages
  par.Populate(11, 2500);

  auto seq_descs = ThreeWayDescs();
  auto par_descs = ThreeWayDescs();
  std::vector<Timestamp> seq_times(3, kNullTimestamp);
  std::vector<Timestamp> par_times(3, kNullTimestamp);

  ThreadPool pool(4);
  RefreshExecution parallel{4, &pool, 1};

  // Initial population refresh, then churn rounds with inserts, updates,
  // and deletes (the deletes manufacture PrevAddr anomalies that can land
  // on partition boundaries).
  ExpectSameStream(RunGroup(&seq, &seq_descs, &seq_times, {}),
                   RunGroup(&par, &par_descs, &par_times, parallel));
  for (uint64_t round = 0; round < 4; ++round) {
    seq.Mutate(round * 31 + 5, 250);
    par.Mutate(round * 31 + 5, 250);
    ExpectSameStream(RunGroup(&seq, &seq_descs, &seq_times, {}),
                     RunGroup(&par, &par_descs, &par_times, parallel));
    ASSERT_EQ(seq_times, par_times);
  }
}

TEST(ParallelRefreshTest, BatchingIdenticalAcrossSequentialAndParallel) {
  Harness seq;
  Harness par;
  seq.Create();
  par.Create();
  seq.Populate(23, 1500);
  par.Populate(23, 1500);

  auto seq_descs = ThreeWayDescs();
  auto par_descs = ThreeWayDescs();
  std::vector<Timestamp> seq_times(3, kNullTimestamp);
  std::vector<Timestamp> par_times(3, kNullTimestamp);

  ThreadPool pool(4);
  RefreshExecution seq_batched{1, nullptr, 8};
  RefreshExecution par_batched{4, &pool, 8};

  RunResult a = RunGroup(&seq, &seq_descs, &seq_times, seq_batched);
  RunResult b = RunGroup(&par, &par_descs, &par_times, par_batched);
  ExpectSameStream(a, b);
  // The bulk initial refresh must actually have coalesced.
  EXPECT_GT(a.traffic.batched_entries, 0u);
  bool saw_batch = false;
  for (const Message& m : a.messages) {
    if (m.type == MessageType::kEntryBatch) saw_batch = true;
  }
  EXPECT_TRUE(saw_batch);
}

TEST(ParallelRefreshTest, BatchedStreamExpandsToUnbatchedStream) {
  Harness plain;
  Harness batched;
  plain.Create();
  batched.Create();
  plain.Populate(41, 800);
  batched.Populate(41, 800);
  plain.Mutate(42, 100);
  batched.Mutate(42, 100);

  // Single member: the per-snapshot order guarantee becomes a global one,
  // so unpacking every ENTRY_BATCH must reproduce the unbatched wire
  // exactly.
  std::vector<SnapshotDescriptor> plain_descs{MakeDesc(1, "Salary < 20")};
  std::vector<SnapshotDescriptor> batched_descs{MakeDesc(1, "Salary < 20")};
  std::vector<Timestamp> plain_times(1, kNullTimestamp);
  std::vector<Timestamp> batched_times(1, kNullTimestamp);

  RunResult a = RunGroup(&plain, &plain_descs, &plain_times, {});
  RunResult b =
      RunGroup(&batched, &batched_descs, &batched_times, {1, nullptr, 16});
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_LT(b.messages.size(), a.messages.size());

  std::vector<Message> expanded;
  for (const Message& m : b.messages) {
    if (m.type == MessageType::kEntryBatch) {
      auto entries = UnpackEntryBatch(m);
      ASSERT_TRUE(entries.ok());
      for (Message& e : *entries) expanded.push_back(std::move(e));
    } else {
      expanded.push_back(m);
    }
  }
  ASSERT_EQ(expanded.size(), a.messages.size());
  for (size_t i = 0; i < expanded.size(); ++i) {
    EXPECT_TRUE(expanded[i] == a.messages[i]) << "message " << i;
  }
  // Accounting invariant: pre-batching entry count is recoverable.
  uint64_t batches = 0;
  for (const Message& m : b.messages) {
    if (m.type == MessageType::kEntryBatch) ++batches;
  }
  EXPECT_EQ((b.traffic.entry_messages - batches) + b.traffic.batched_entries,
            a.traffic.entry_messages);
}

TEST(ParallelRefreshTest, EmptyAndTinyTablesMatchSequential) {
  ThreadPool pool(8);
  RefreshExecution parallel{8, &pool, 4};

  // Empty table: partitioning yields nothing; both paths send only the
  // end-of-refresh markers.
  {
    Harness seq, par;
    seq.Create();
    par.Create();
    auto sd = ThreeWayDescs();
    auto pd = ThreeWayDescs();
    std::vector<Timestamp> st(3, kNullTimestamp), pt(3, kNullTimestamp);
    RunResult a = RunGroup(&seq, &sd, &st, {1, nullptr, 4});
    RunResult b = RunGroup(&par, &pd, &pt, parallel);
    ExpectSameStream(a, b);
    EXPECT_EQ(a.traffic.control_messages, 3u);
  }
  // More workers than pages: partitions degrade to one page each.
  {
    Harness seq, par;
    seq.Create();
    par.Create();
    seq.Populate(5, 40);
    par.Populate(5, 40);
    auto sd = ThreeWayDescs();
    auto pd = ThreeWayDescs();
    std::vector<Timestamp> st(3, kNullTimestamp), pt(3, kNullTimestamp);
    ExpectSameStream(RunGroup(&seq, &sd, &st, {1, nullptr, 4}),
                     RunGroup(&par, &pd, &pt, parallel));
  }
}

TEST(ParallelRefreshTest, ParallelWithoutPoolIsRejected) {
  Harness h;
  h.Create();
  h.Populate(3, 10);
  auto descs = ThreeWayDescs();
  std::vector<Timestamp> times(3, kNullTimestamp);
  RunResult r = RunGroup(&h, &descs, &times, {4, nullptr, 1});
  EXPECT_TRUE(r.status.IsInvalidArgument());
}

/// Facade-level coverage: group refresh through SnapshotSystem with both
/// knobs on stays faithful and meters the batching.
TEST(ParallelRefreshTest, SystemGroupRefreshUnderBatchingStaysFaithful) {
  SnapshotSystemOptions options;
  options.refresh_workers = 4;
  options.refresh_batch_size = 8;
  SnapshotSystem sys(options);
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  Random rng(7);
  std::vector<Address> live;
  for (int i = 0; i < 400; ++i) {
    auto a = (*base)->Insert(
        Row("e" + std::to_string(i), int64_t(rng.Uniform(30))));
    ASSERT_TRUE(a.ok());
    live.push_back(*a);
  }
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  ASSERT_TRUE(sys.CreateSnapshot("high", "emp", "Salary >= 10").ok());

  auto results = sys.RefreshGroup({"low", "high"});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  uint64_t batched = 0;
  for (const auto& [name, stats] : *results) {
    batched += stats.traffic.batched_entries;
  }
  EXPECT_GT(batched, 0u);

  for (uint64_t round = 0; round < 3; ++round) {
    for (int op = 0; op < 60; ++op) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const int64_t salary = static_cast<int64_t>(rng.Uniform(30));
      if (kind == 0 || live.empty()) {
        auto a = (*base)->Insert(Row("n", salary));
        ASSERT_TRUE(a.ok());
        live.push_back(*a);
      } else if (kind == 1) {
        ASSERT_TRUE(
            (*base)->Update(live[rng.Uniform(live.size())], Row("u", salary))
                .ok());
      } else {
        const size_t idx = rng.Uniform(live.size());
        ASSERT_TRUE((*base)->Delete(live[idx]).ok());
        live.erase(live.begin() + idx);
      }
    }
    ASSERT_TRUE(sys.RefreshGroup({"low", "high"}).ok());
    for (const std::string name : {"low", "high"}) {
      auto snap = sys.GetSnapshot(name);
      ASSERT_TRUE(snap.ok());
      auto actual = (*snap)->Contents();
      ASSERT_TRUE(actual.ok());
      auto expected = sys.ExpectedContents(name);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(actual->size(), expected->size()) << name;
      for (const auto& [addr, row] : *expected) {
        ASSERT_TRUE(actual->contains(addr)) << name;
        EXPECT_TRUE(actual->at(addr).Equals(row)) << name;
      }
      ASSERT_TRUE((*snap)->ValidateIndex().ok());
    }
  }
}

/// A group of 65 members runs on the partition workers and matches the
/// sequential scan.
TEST(ParallelRefreshTest, LargeGroupRunsOnWorkers) {
  Harness seq;
  Harness par;
  seq.Create();
  par.Create();
  seq.Populate(31, 1200);
  par.Populate(31, 1200);

  auto make = [] {
    std::vector<SnapshotDescriptor> descs;
    for (SnapshotId id = 1; id <= 65; ++id) {
      const int64_t lo = int64_t(id % 30);
      descs.push_back(MakeDesc(
          id,
          "Salary >= " + std::to_string(lo) + " AND Salary < " +
              std::to_string(lo + 1 + int64_t(id % 7)),
          /*anchor=*/id % 3 == 0));
    }
    return descs;
  };
  auto seq_descs = make();
  auto par_descs = make();
  std::vector<Timestamp> seq_times(65, kNullTimestamp);
  std::vector<Timestamp> par_times(65, kNullTimestamp);
  ThreadPool pool(4);
  RefreshExecution parallel{4, &pool, 1};

  obs::Counter* worker0 = obs::MetricsRegistry::Default().GetCounter(
      "snapshot.refresh.parallel.worker.0.rows");
  for (uint64_t round = 0; round < 3; ++round) {
    if (round > 0) {
      seq.Mutate(round * 13 + 1, 150);
      par.Mutate(round * 13 + 1, 150);
    }
    const uint64_t before = worker0->value();
    RunResult a = RunGroup(&seq, &seq_descs, &seq_times, {});
    RunResult b = RunGroup(&par, &par_descs, &par_times, parallel);
    EXPECT_GT(worker0->value(), before) << "round " << round;
    ExpectSameStream(a, b);
    ASSERT_EQ(seq_times, par_times);
  }
}

/// Every row's stored bytes (user columns + annotations) in address order.
std::vector<std::pair<Address, std::string>> StoredRows(BaseTable* base) {
  std::vector<std::pair<Address, std::string>> rows;
  EXPECT_TRUE(base
                  ->ScanAnnotated([&rows](Address addr,
                                          const BaseTable::AnnotatedView& row) {
                    rows.emplace_back(addr, std::string(row.raw));
                    return Status::OK();
                  })
                  .ok());
  return rows;
}

/// The live rows of each of `workers` partitions, in address order.
std::vector<std::vector<Address>> RowsByPartition(const Harness& h,
                                                  size_t workers) {
  const std::vector<PageId>& pages = h.base->info()->heap->pages();
  const std::vector<BaseTable::ScanPartition> parts =
      h.base->Partition(workers);
  std::vector<Address> sorted = h.live;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::vector<Address>> rows(parts.size());
  for (const Address addr : sorted) {
    const size_t index =
        std::find(pages.begin(), pages.end(), addr.page()) - pages.begin();
    for (size_t k = 0; k < parts.size(); ++k) {
      if (index >= parts[k].first_page &&
          index < parts[k].first_page + parts[k].page_count) {
        rows[k].push_back(addr);
      }
    }
  }
  return rows;
}

/// Only rows the test pins at Salary >= kSparse qualify for the sparse
/// members, so whole partitions can hold none of their rows.
constexpr int64_t kSparse = 100;

/// Folds the epoch path's skipped repairs into its writes: which repairs a
/// concurrent writer beats is a race, how many the scan derived is not.
void FoldSkippedRepairs(RunResult* r) {
  for (RefreshStats& s : r->stats) {
    s.base_writes += s.fixups_skipped;
    s.fixups_skipped = 0;
  }
}

/// The boundary cases of the partitioned scan, at several worker counts:
/// every partition's head (all-inserted partitions, deletions in front of
/// a partition's first row), a member's first send in a partition (entry
/// Deletion set and unset, raised inside the partition first, or carried
/// through a partition with no qualified row), anchors, shared and
/// per-member streams, a resumed prefix that crosses a partition boundary,
/// and the epoch path beside two writers. The parallel run must equal the
/// sequential one in stream, stats, channel meters and the base's stored
/// rows after the fix-ups.
TEST(ParallelRefreshTest, PartitionHeadsMatchSequential) {
  auto make_descs = [] {
    std::vector<SnapshotDescriptor> descs;
    descs.push_back(MakeDesc(1, "Salary < 10"));
    descs.push_back(MakeDesc(2, "Salary >= " + std::to_string(kSparse)));
    descs.push_back(MakeDesc(3, "Salary >= 5", /*anchor=*/true));
    descs.push_back(
        MakeDesc(4, "Salary >= " + std::to_string(kSparse), /*anchor=*/true));
    return descs;
  };
  for (const size_t workers : {2, 3, 4, 7}) {
    for (const bool member_sinks : {false, true}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   (member_sinks ? " member sinks" : " shared stream"));
      // Three twins: `probe` refreshes sequentially and unsuppressed, so
      // the resumed round can find where a partition's messages end.
      Harness seq, par, probe;
      Harness* all[] = {&seq, &par, &probe};
      std::vector<SnapshotDescriptor> descs[3];
      std::vector<Timestamp> times[3];
      for (size_t h = 0; h < 3; ++h) {
        all[h]->Create();
        all[h]->Populate(17, 1200);
        descs[h] = make_descs();
        times[h].assign(4, kNullTimestamp);
      }
      ThreadPool pool(workers);
      const size_t batch = member_sinks ? 3 : 1;
      RefreshExecution seq_exec{1, nullptr, batch};
      RefreshExecution par_exec{workers, &pool, batch};

      // `resume_at(dry)` > 0 runs seq and par through a resumed shared
      // session that suppresses that many messages of the probe's stream.
      auto refresh = [&](const char* what,
                         std::function<uint64_t(const RunResult&)> resume_at =
                             nullptr) {
        SCOPED_TRACE(what);
        const bool sinks = member_sinks && resume_at == nullptr;
        RunResult dry =
            RunGroup(&probe, &descs[2], &times[2], seq_exec, sinks, 0);
        ASSERT_TRUE(dry.status.ok());
        const uint64_t resume_after = resume_at ? resume_at(dry) : 0;
        RunResult a = RunGroup(&seq, &descs[0], &times[0], seq_exec, sinks,
                               resume_after);
        RunResult b = RunGroup(&par, &descs[1], &times[1], par_exec, sinks,
                               resume_after);
        ExpectSameStream(a, b);
        ASSERT_EQ(times[0], times[1]);
        ASSERT_EQ(times[0], times[2]);
        EXPECT_TRUE(StoredRows(seq.base) == StoredRows(par.base));
        EXPECT_EQ(a.traffic.messages + resume_after, dry.traffic.messages);
      };
      auto update = [&](Address addr, int64_t salary) {
        for (Harness* h : all) {
          ASSERT_TRUE(h->base->Update(addr, Row("x", salary)).ok());
        }
      };
      auto erase = [&](Address addr) {
        for (Harness* h : all) {
          ASSERT_TRUE(h->base->Delete(addr).ok());
          h->live.erase(std::find(h->live.begin(), h->live.end(), addr));
        }
      };

      // Bulk load: every partition is all inserted rows, all head.
      refresh("bulk load");
      std::vector<std::vector<Address>> parts = RowsByPartition(seq, workers);
      ASSERT_EQ(parts.size(), workers);
      // Sparse rows in the first and last partitions only.
      for (const size_t k : {size_t{0}, workers - 1}) {
        for (size_t r = 10; r <= 30; r += 10) {
          update(parts[k][r], kSparse + int64_t(r));
        }
      }
      refresh("sparse rows");

      // The first partition's last sparse row stops qualifying: the sparse
      // members leave it with Deletion set, carry it through the middle
      // partitions (no qualified row) and must send the last partition's
      // first sparse row, which is not fresh. Every partition's first row
      // loses its predecessor.
      update(parts[0][30], 1);
      for (size_t k = 1; k < workers; ++k) erase(parts[k - 1].back());
      refresh("deletion set on entry, deletions before heads");

      // Deletion raised inside the first partition before its first sparse
      // row; the last partition enters with Deletion unset and keeps its
      // first sparse row unsent.
      parts = RowsByPartition(seq, workers);
      update(parts[0][2], 7);
      refresh("deletion raised before first qualified row");

      // Deletion raised in a partition without a sparse row (the second,
      // given three or more): it carries into the last partition.
      parts = RowsByPartition(seq, workers);
      update(parts[1][2], 8);
      refresh("deletion raised where the member has no qualified row");

      // A resumed shared session whose suppressed prefix ends three
      // entries into the second partition's messages.
      parts = RowsByPartition(seq, workers);
      for (size_t k = 0; k < workers; ++k) {
        for (size_t r = 0; r < parts[k].size(); r += 4) {
          update(parts[k][r], int64_t(r % 10));
        }
      }
      const Address second = parts[1].front();
      refresh("resumed across a partition boundary",
              [second](const RunResult& dry) -> uint64_t {
                for (size_t i = 0; i < dry.messages.size(); ++i) {
                  Address first = dry.messages[i].base_addr;
                  if (dry.messages[i].type == MessageType::kEntryBatch) {
                    auto entries = UnpackEntryBatch(dry.messages[i]);
                    EXPECT_TRUE(entries.ok());
                    first = entries->front().base_addr;
                  } else if (dry.messages[i].type != MessageType::kEntry) {
                    continue;
                  }
                  if (first >= second) {
                    EXPECT_LT(i + 3, dry.messages.size());
                    return i + 3;
                  }
                }
                ADD_FAILURE() << "no message from the second partition";
                return 1;
              });

      // Holes at the partitions' first rows, then more inserts than the
      // table holds: heads that start with inserted rows, and trailing
      // partitions made only of inserted rows.
      parts = RowsByPartition(seq, workers);
      for (size_t k = 1; k < workers; ++k) erase(parts[k].front());
      Random rng(99);
      for (int i = 0; i < 1800; ++i) {
        const int64_t salary = i % 50 == 0 ? kSparse + i % 7
                                           : int64_t(rng.Uniform(30));
        Address addr;
        for (Harness* h : all) {
          auto a = h->base->Insert(Row("i" + std::to_string(i), salary));
          ASSERT_TRUE(a.ok());
          if (h != all[0]) ASSERT_EQ(*a, addr);
          addr = *a;
          h->live.push_back(*a);
        }
      }
      refresh("inserted partitions");

      // The epoch path beside two writer threads that update and delete
      // rows of their own while the refresh runs. The cut fixes the
      // stream; which repairs a writer beats is a race, so skipped repairs
      // fold into writes and only rows no writer touched are compared.
      std::vector<Address> touched;
      for (size_t i = 3; i < seq.live.size(); i += 5) {
        touched.push_back(seq.live[i]);
      }
      std::sort(touched.begin(), touched.end());
      RunResult epoch_runs[2];
      for (size_t h = 0; h < 2; ++h) {
        RefreshExecution exec = h == 0 ? seq_exec : par_exec;
        exec.epoch = all[h]->base->OpenEpoch();
        std::atomic<int> started{0};
        std::vector<std::thread> writers;
        for (size_t w = 0; w < 2; ++w) {
          writers.emplace_back([&touched, &started, w, base = all[h]->base] {
            for (size_t i = w; i < touched.size(); i += 2) {
              const Status st =
                  i % 3 == 0 ? base->Delete(touched[i])
                             : base->Update(touched[i], Row("w", i % 30));
              EXPECT_TRUE(st.ok() || st.IsResourceExhausted())
                  << st.ToString();
              if (i < 2) started.fetch_add(1);
            }
          });
        }
        while (started.load() < 2) std::this_thread::yield();
        epoch_runs[h] = RunGroup(all[h], &descs[h], &times[h], exec,
                                 member_sinks, 0);
        for (std::thread& t : writers) t.join();
        FoldSkippedRepairs(&epoch_runs[h]);
      }
      ExpectSameStream(epoch_runs[0], epoch_runs[1]);
      ASSERT_EQ(times[0], times[1]);
      auto untouched = [&touched](BaseTable* base) {
        auto rows = StoredRows(base);
        std::erase_if(rows, [&touched](const auto& row) {
          return std::binary_search(touched.begin(), touched.end(),
                                    row.first);
        });
        return rows;
      };
      EXPECT_TRUE(untouched(seq.base) == untouched(par.base));
    }
  }
}

}  // namespace
}  // namespace snapdiff
