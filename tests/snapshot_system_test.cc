#include "snapshot/snapshot_manager.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "catalog/tuple_view.h"
#include "common/random.h"

namespace snapdiff {
namespace {

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

Tuple Row(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary)});
}

/// Asserts a snapshot's contents equal restrict∘project of the base.
void ExpectFaithful(SnapshotSystem* sys, const std::string& snap_name) {
  auto snap = sys->GetSnapshot(snap_name);
  ASSERT_TRUE(snap.ok());
  auto actual = (*snap)->Contents();
  ASSERT_TRUE(actual.ok());
  auto expected = sys->ExpectedContents(snap_name);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(actual->size(), expected->size()) << snap_name;
  for (const auto& [addr, row] : *expected) {
    ASSERT_TRUE(actual->contains(addr))
        << snap_name << " missing " << addr.ToString();
    EXPECT_TRUE(actual->at(addr).Equals(row))
        << snap_name << " differs at " << addr.ToString();
  }
  ASSERT_TRUE((*snap)->ValidateIndex().ok());
}

TEST(SnapshotSystemTest, CreateRefreshBasics) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*base)->Insert(Row("e" + std::to_string(i), i)).ok());
  }
  auto snap = sys.CreateSnapshot("low", "emp", "Salary < 10");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->row_count(), 0u);  // starts empty
  auto stats = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*snap)->row_count(), 10u);
  EXPECT_EQ(stats->stats.traffic.entry_messages, 10u);
  ExpectFaithful(&sys, "low");
}

TEST(SnapshotSystemTest, UnknownNamesFail) {
  SnapshotSystem sys;
  EXPECT_TRUE(sys.GetBaseTable("nope").status().IsNotFound());
  EXPECT_TRUE(sys.Refresh(RefreshRequest::For("nope")).status().IsNotFound());
  EXPECT_TRUE(
      sys.CreateSnapshot("s", "nope", "TRUE").status().IsNotFound());
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(sys.CreateSnapshot("s", "emp", "Wage < 3").status().ok() ==
              false);
  EXPECT_TRUE(sys.DropSnapshot("nope").IsNotFound());
}

TEST(SnapshotSystemTest, BadRestrictionRejectedAtCreate) {
  SnapshotSystem sys;
  ASSERT_TRUE(sys.CreateBaseTable("emp", EmpSchema()).ok());
  EXPECT_FALSE(sys.CreateSnapshot("s1", "emp", "Salary <").ok());
  EXPECT_FALSE(sys.CreateSnapshot("s2", "emp", "Salary").ok());
  EXPECT_FALSE(sys.CreateSnapshot("s3", "emp", "Unknown < 3").ok());
}

TEST(SnapshotSystemTest, FirstDifferentialSnapshotAnnotatesTable) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema(), AnnotationMode::kNone);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Insert(Row("early", 5)).ok());
  EXPECT_FALSE((*base)->stored_schema().HasAnnotations());

  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  // R*: funny columns appear automatically; the pre-existing row is intact.
  EXPECT_TRUE((*base)->stored_schema().HasAnnotations());
  EXPECT_EQ((*base)->mode(), AnnotationMode::kLazy);
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("low")).ok());
  ExpectFaithful(&sys, "low");
}

TEST(SnapshotSystemTest, BindingsFollowAnnotationColumnsAddedLater) {
  // Refreshes bind restrictions and resolve the annotation slots per
  // refresh. Adding the annotation columns reassigns the stored and user
  // schemas in place (same addresses), so anything resolved before that —
  // here by a full refresh over the unannotated layout — must not be
  // reused: the differential refresh would read the wrong slots, see NULL
  // annotations on every row and resend the whole table each time.
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema(), AnnotationMode::kNone);
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs;
  for (int i = 0; i < 40; ++i) {
    auto a = (*base)->Insert(Row("emp-" + std::to_string(i), i % 20));
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  SnapshotOptions full;
  full.method = RefreshMethod::kFull;
  ASSERT_TRUE(sys.CreateSnapshot("mid", "emp", "Salary < 15", full).ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("mid")).ok());
  ExpectFaithful(&sys, "mid");

  // Adds $PREVADDR$/$TIMESTAMP$ after the STRING column and SetMode(kLazy).
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  ASSERT_TRUE((*base)->stored_schema().HasAnnotations());
  auto first = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(first.ok());
  ExpectFaithful(&sys, "low");
  EXPECT_EQ(first->stats.traffic.entry_messages, 20u);

  ASSERT_TRUE((*base)->Update(addrs[3], Row("emp-3b", 4)).ok());
  ASSERT_TRUE((*base)->Delete(addrs[5]).ok());
  auto second = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(second.ok());
  ExpectFaithful(&sys, "low");
  EXPECT_LE(second->stats.traffic.entry_messages, 2u);

  auto third = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(third.ok());
  ExpectFaithful(&sys, "low");
  EXPECT_EQ(third->stats.traffic.entry_messages, 0u);
  EXPECT_EQ(third->stats.base_writes, 0u);

  // The write path is bound to the grown layout too: a new row is stored
  // at full width with NULL annotations (lazy), an update widens a row
  // written before the columns existed, and a delete repairs the chain.
  auto fresh = (*base)->Insert(Row("emp-new", 2));
  ASSERT_TRUE(fresh.ok());
  {
    auto stored = (*base)->info()->heap->Get(*fresh);
    ASSERT_TRUE(stored.ok());
    auto view = TupleView::Parse((*base)->stored_schema(), *stored);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->stored_field_count(),
              (*base)->stored_schema().column_count());
    auto annotated = (*base)->ReadAnnotated(*fresh);
    ASSERT_TRUE(annotated.ok());
    EXPECT_TRUE(annotated->prev_addr.IsNull());
    EXPECT_EQ(annotated->timestamp, kNullTimestamp);
  }
  ASSERT_TRUE((*base)->Update(addrs[7], Row("emp-7b", 8)).ok());
  ASSERT_TRUE((*base)->Delete(addrs[9]).ok());
  auto fourth = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(fourth.ok());
  ExpectFaithful(&sys, "low");
  // The insert, the update and the row after the deleted one (it now
  // closes the gap) — nothing resent for lack of annotations.
  EXPECT_LE(fourth->stats.traffic.entry_messages, 3u);
  EXPECT_TRUE(ValidateAnnotationChain(*base).ok());
  auto fifth = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(fifth.ok());
  EXPECT_EQ(fifth->stats.traffic.entry_messages, 0u);
  EXPECT_EQ(fifth->stats.base_writes, 0u);

  // The full refresh now reads the user prefix of annotated rows.
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("mid")).ok());
  ExpectFaithful(&sys, "mid");
}

TEST(SnapshotSystemTest, ProjectionNarrowsColumns) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Insert(Row("Laura", 6)).ok());
  SnapshotOptions opts;
  opts.projection = {"Salary"};
  auto snap = sys.CreateSnapshot("sal", "emp", "TRUE", opts);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("sal")).ok());
  auto contents = (*snap)->Contents();
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->size(), 1u);
  EXPECT_EQ(contents->begin()->second.size(), 1u);
  EXPECT_EQ(contents->begin()->second.value(0).as_int64(), 6);
  ExpectFaithful(&sys, "sal");
}

TEST(SnapshotSystemTest, MultipleSnapshotsIndependentRefresh) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs;
  for (int i = 0; i < 30; ++i) {
    auto a = (*base)->Insert(Row("e" + std::to_string(i), i % 20));
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  ASSERT_TRUE(sys.CreateSnapshot("high", "emp", "Salary >= 10").ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("low")).ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("high")).ok());
  ExpectFaithful(&sys, "low");
  ExpectFaithful(&sys, "high");

  // Mutate, refresh only "low": "high" keeps its frozen state.
  ASSERT_TRUE((*base)->Update(addrs[0], Row("e0", 15)).ok());
  ASSERT_TRUE((*base)->Delete(addrs[1]).ok());
  auto high_before = (*sys.GetSnapshot("high"))->Contents();
  ASSERT_TRUE(high_before.ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("low")).ok());
  ExpectFaithful(&sys, "low");
  auto high_after = (*sys.GetSnapshot("high"))->Contents();
  ASSERT_TRUE(high_after.ok());
  EXPECT_EQ(high_before->size(), high_after->size());

  // Now refresh "high" too; both converge.
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("high")).ok());
  ExpectFaithful(&sys, "high");
  ExpectFaithful(&sys, "low");
}

TEST(SnapshotSystemTest, SnapshotOnSnapshotCascade) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*base)->Insert(Row("e" + std::to_string(i), i)).ok());
  }
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("low")).ok());
  // Second-level snapshot over the first one's storage.
  auto tiny = sys.CreateSnapshot("tiny", "low", "Salary < 3");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("tiny")).ok());
  auto contents = (*tiny)->Contents();
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->size(), 3u);  // salaries 0,1,2
  ExpectFaithful(&sys, "tiny");

  // Propagate a base change through both levels.
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("low")).ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("tiny")).ok());
  ExpectFaithful(&sys, "tiny");
}

TEST(SnapshotSystemTest, LogBasedRefreshMatchesBase) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs;
  for (int i = 0; i < 20; ++i) {
    auto a = (*base)->Insert(Row("e" + std::to_string(i), i));
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  SnapshotOptions opts;
  opts.method = RefreshMethod::kLogBased;
  ASSERT_TRUE(sys.CreateSnapshot("log", "emp", "Salary < 10", opts).ok());
  auto init = sys.Refresh(RefreshRequest::For("log"));
  ASSERT_TRUE(init.ok());
  ExpectFaithful(&sys, "log");

  ASSERT_TRUE((*base)->Update(addrs[3], Row("e3", 99)).ok());   // leaves
  ASSERT_TRUE((*base)->Update(addrs[15], Row("e15", 1)).ok());  // joins
  ASSERT_TRUE((*base)->Delete(addrs[5]).ok());                  // leaves
  auto stats = sys.Refresh(RefreshRequest::For("log"));
  ASSERT_TRUE(stats.ok());
  ExpectFaithful(&sys, "log");
  // Exactly one upsert (e15) and two deletes (e3, e5).
  EXPECT_EQ(stats->stats.traffic.entry_messages, 1u);
  EXPECT_EQ(stats->stats.traffic.delete_messages, 2u);
  EXPECT_GT(stats->stats.log_records_culled, 0u);
}

TEST(SnapshotSystemTest, LogBasedFallsBackToFullAfterTruncation) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*base)->Insert(Row("e" + std::to_string(i), i)).ok());
  }
  SnapshotOptions opts;
  opts.method = RefreshMethod::kLogBased;
  ASSERT_TRUE(sys.CreateSnapshot("log", "emp", "Salary < 5", opts).ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("log")).ok());

  ASSERT_TRUE((*base)->Insert(Row("late", 0)).ok());
  // Reclaim the whole log: the snapshot's position is now unreachable.
  sys.wal()->Truncate(sys.wal()->LastLsn());
  auto stats = sys.Refresh(RefreshRequest::For("log"));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->stats.fell_back_to_full);
  ExpectFaithful(&sys, "log");
}

TEST(SnapshotSystemTest, LogTruncationAffectsOnlyLaggingSnapshots) {
  // Two log-based snapshots at different log positions: truncating up to
  // the newer one's position forces only the lagging one into a full
  // retransmission.
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs;
  for (int i = 0; i < 10; ++i) {
    auto a = (*base)->Insert(Row("e" + std::to_string(i), i));
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  SnapshotOptions opts;
  opts.method = RefreshMethod::kLogBased;
  ASSERT_TRUE(sys.CreateSnapshot("lag", "emp", "Salary < 5", opts).ok());
  ASSERT_TRUE(sys.CreateSnapshot("cur", "emp", "Salary < 5", opts).ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("lag")).ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("cur")).ok());

  ASSERT_TRUE((*base)->Update(addrs[0], Row("e0", 1)).ok());
  // Only "cur" sees the change; its position advances.
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("cur")).ok());
  // Reclaim everything "cur" no longer needs — strands "lag".
  sys.wal()->Truncate(sys.wal()->LastLsn());
  ASSERT_TRUE((*base)->Update(addrs[1], Row("e1", 2)).ok());

  auto lag_stats = sys.Refresh(RefreshRequest::For("lag"));
  ASSERT_TRUE(lag_stats.ok());
  EXPECT_TRUE(lag_stats->stats.fell_back_to_full);
  auto cur_stats = sys.Refresh(RefreshRequest::For("cur"));
  ASSERT_TRUE(cur_stats.ok());
  EXPECT_FALSE(cur_stats->stats.fell_back_to_full);
  ExpectFaithful(&sys, "lag");
  ExpectFaithful(&sys, "cur");
}

TEST(SnapshotSystemTest, IdealSendsExactNetChanges) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs;
  for (int i = 0; i < 20; ++i) {
    auto a = (*base)->Insert(Row("e" + std::to_string(i), i));
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  SnapshotOptions opts;
  opts.method = RefreshMethod::kIdeal;
  ASSERT_TRUE(sys.CreateSnapshot("ideal", "emp", "Salary < 10", opts).ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("ideal")).ok());
  ExpectFaithful(&sys, "ideal");

  // A value updated twice nets to ONE message; an update that leaves the
  // row's projection unchanged nets to ZERO.
  ASSERT_TRUE((*base)->Update(addrs[2], Row("e2", 3)).ok());
  ASSERT_TRUE((*base)->Update(addrs[2], Row("e2b", 4)).ok());
  ASSERT_TRUE((*base)->Update(addrs[4], Row("e4", 4)).ok());  // same values
  auto stats = sys.Refresh(RefreshRequest::For("ideal"));
  ASSERT_TRUE(stats.ok());
  ExpectFaithful(&sys, "ideal");
  EXPECT_EQ(stats->stats.data_messages(), 1u);
}

TEST(SnapshotSystemTest, AsapStreamsChangesImmediately) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  SnapshotOptions opts;
  opts.method = RefreshMethod::kAsap;
  auto snap = sys.CreateSnapshot("asap", "emp", "Salary < 10", opts);
  ASSERT_TRUE(snap.ok());

  ASSERT_TRUE((*base)->Insert(Row("Laura", 6)).ok());
  ASSERT_TRUE((*base)->Insert(Row("Bruce", 15)).ok());
  // Changes are on the wire without any refresh.
  EXPECT_GT(sys.data_channel()->pending(), 0u);
  ASSERT_TRUE(sys.DrainChannel().ok());
  EXPECT_EQ((*snap)->row_count(), 1u);

  auto st = sys.AsapStats("asap");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ((*st)->propagated, 1u);  // Bruce never qualified
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("asap")).ok());
  ExpectFaithful(&sys, "asap");
}

TEST(SnapshotSystemTest, AsapPartitionBuffersAndRecovers) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  SnapshotOptions opts;
  opts.method = RefreshMethod::kAsap;
  auto snap = sys.CreateSnapshot("asap", "emp", "Salary < 10", opts);
  ASSERT_TRUE(snap.ok());

  auto a = (*base)->Insert(Row("Laura", 6));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(sys.DrainChannel().ok());
  EXPECT_EQ((*snap)->row_count(), 1u);

  // Partition: base changes must be buffered.
  sys.SetPartitioned(true);
  ASSERT_TRUE((*base)->Update(*a, Row("Laura", 7)).ok());
  ASSERT_TRUE((*base)->Insert(Row("Mohan", 9)).ok());
  auto st = sys.AsapStats("asap");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ((*st)->buffered, 2u);
  EXPECT_EQ((*snap)->Lookup(*a)->value(1).as_int64(), 6);  // stale

  // Heal and flush: the snapshot catches up.
  sys.SetPartitioned(false);
  ASSERT_TRUE(sys.FlushAsapBuffers().ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("asap")).ok());
  ExpectFaithful(&sys, "asap");
}

TEST(SnapshotSystemTest, AsapRejectModeLosesChanges) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  SnapshotOptions opts;
  opts.method = RefreshMethod::kAsap;
  opts.asap_buffer_on_partition = false;
  auto snap = sys.CreateSnapshot("asap", "emp", "Salary < 10", opts);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("asap")).ok());  // initializing full copy
  EXPECT_EQ((*snap)->row_count(), 0u);

  sys.SetPartitioned(true);
  ASSERT_TRUE((*base)->Insert(Row("Laura", 6)).ok());
  sys.SetPartitioned(false);
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("asap")).ok());
  auto st = sys.AsapStats("asap");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ((*st)->rejected, 1u);
  // The paper's warning made concrete: the snapshot is permanently stale —
  // Laura's insert was rejected during the partition and is lost.
  EXPECT_EQ((*snap)->row_count(), 0u);
}

TEST(SnapshotSystemTest, DropSnapshotStopsAsapStream) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  SnapshotOptions opts;
  opts.method = RefreshMethod::kAsap;
  ASSERT_TRUE(sys.CreateSnapshot("asap", "emp", "TRUE", opts).ok());
  ASSERT_TRUE(sys.DropSnapshot("asap").ok());
  // No observer left: inserts do not enqueue messages.
  ASSERT_TRUE((*base)->Insert(Row("x", 1)).ok());
  EXPECT_EQ(sys.data_channel()->pending(), 0u);
}

TEST(SnapshotSystemTest, DuplicateProjectionRejected) {
  SnapshotSystem sys;
  ASSERT_TRUE(sys.CreateBaseTable("emp", EmpSchema()).ok());
  SnapshotOptions opts;
  opts.projection = {"Salary", "Salary"};
  EXPECT_TRUE(sys.CreateSnapshot("dup", "emp", "TRUE", opts)
                  .status()
                  .IsInvalidArgument());
}

TEST(SnapshotSystemTest, DropThenRecreateSameName) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Insert(Row("a", 5)).ok());
  ASSERT_TRUE(sys.CreateSnapshot("s", "emp", "Salary < 10").ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("s")).ok());
  ASSERT_TRUE(sys.DropSnapshot("s").ok());
  // Same name, different restriction: a fresh, empty snapshot.
  auto again = sys.CreateSnapshot("s", "emp", "Salary >= 10");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->row_count(), 0u);
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("s")).ok());
  ExpectFaithful(&sys, "s");
}

TEST(SnapshotSystemTest, TinyBufferPoolsStayFaithful) {
  // 8-frame pools force constant eviction through refresh scans, fix-up
  // writes, and snapshot applies.
  SnapshotSystemOptions opts;
  opts.base_pool_pages = 8;
  opts.snap_pool_pages = 8;
  SnapshotSystem sys(opts);
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  Random rng(55);
  std::vector<Address> live;
  for (int i = 0; i < 400; ++i) {
    auto a = (*base)->Insert(
        Row("row-" + std::to_string(i), int64_t(rng.Uniform(20))));
    ASSERT_TRUE(a.ok());
    live.push_back(*a);
  }
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  for (int round = 0; round < 4; ++round) {
    auto stats = sys.Refresh(RefreshRequest::For("low"));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ExpectFaithful(&sys, "low");
    for (int op = 0; op < 40; ++op) {
      const size_t idx = rng.Uniform(live.size());
      ASSERT_TRUE(
          (*base)->Update(live[idx], Row("u", int64_t(rng.Uniform(20))))
              .ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Property sweep: every refresh method stays faithful under randomized
// workloads across placement policies.
// ---------------------------------------------------------------------------

using FaithfulnessParam =
    std::tuple<RefreshMethod, PlacementPolicy, uint64_t /*seed*/>;

class FaithfulnessTest : public ::testing::TestWithParam<FaithfulnessParam> {
};

TEST_P(FaithfulnessTest, RandomWorkloadStaysFaithful) {
  const auto [method, placement, seed] = GetParam();
  SnapshotSystem sys;
  auto base_r = sys.CreateBaseTable("emp", EmpSchema(),
                                    AnnotationMode::kLazy, placement);
  ASSERT_TRUE(base_r.ok());
  BaseTable* base = *base_r;

  Random rng(seed);
  std::vector<Address> live;
  for (int i = 0; i < 100; ++i) {
    auto a = base->Insert(
        Row("init" + std::to_string(i), int64_t(rng.Uniform(20))));
    ASSERT_TRUE(a.ok());
    live.push_back(*a);
  }

  SnapshotOptions opts;
  opts.method = method;
  ASSERT_TRUE(sys.CreateSnapshot("snap", "emp", "Salary < 10", opts).ok());

  for (int round = 0; round < 8; ++round) {
    auto stats = sys.Refresh(RefreshRequest::For("snap"));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ExpectFaithful(&sys, "snap");
    if (method == RefreshMethod::kDifferential) {
      // Invariant 4 of DESIGN.md: the fix-up restored the PrevAddr chain.
      ASSERT_TRUE(ValidateAnnotationChain(base).ok()) << "round " << round;
    }

    // Random mutation burst.
    for (int op = 0; op < 25; ++op) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const int64_t salary = static_cast<int64_t>(rng.Uniform(20));
      if (kind == 0 || live.empty()) {
        auto a = base->Insert(Row("n" + std::to_string(op), salary));
        ASSERT_TRUE(a.ok());
        live.push_back(*a);
      } else if (kind == 1) {
        const size_t idx = rng.Uniform(live.size());
        ASSERT_TRUE(
            base->Update(live[idx], Row("u" + std::to_string(op), salary))
                .ok());
      } else {
        const size_t idx = rng.Uniform(live.size());
        ASSERT_TRUE(base->Delete(live[idx]).ok());
        live.erase(live.begin() + idx);
      }
    }
  }
  auto final_stats = sys.Refresh(RefreshRequest::For("snap"));
  ASSERT_TRUE(final_stats.ok());
  ExpectFaithful(&sys, "snap");
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndPlacements, FaithfulnessTest,
    ::testing::Combine(
        ::testing::Values(RefreshMethod::kFull, RefreshMethod::kDifferential,
                          RefreshMethod::kIdeal, RefreshMethod::kLogBased,
                          RefreshMethod::kAsap),
        ::testing::Values(PlacementPolicy::kFirstFit,
                          PlacementPolicy::kAppend, PlacementPolicy::kRandom),
        ::testing::Values(7u, 1234u)),
    [](const ::testing::TestParamInfo<FaithfulnessParam>& param_info) {
      std::string name =
          std::string(RefreshMethodToString(std::get<0>(param_info.param))) +
          "_" +
          std::string(
              PlacementPolicyToString(std::get<1>(param_info.param))) +
          "_s" + std::to_string(std::get<2>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Eager annotation maintenance must be faithful too.
class EagerFaithfulnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EagerFaithfulnessTest, DifferentialOverEagerTable) {
  SnapshotSystem sys;
  auto base_r = sys.CreateBaseTable("emp", EmpSchema(), AnnotationMode::kEager,
                                    PlacementPolicy::kFirstFit);
  ASSERT_TRUE(base_r.ok());
  BaseTable* base = *base_r;
  Random rng(GetParam());
  std::vector<Address> live;
  for (int i = 0; i < 60; ++i) {
    auto a = base->Insert(Row("i" + std::to_string(i),
                              int64_t(rng.Uniform(20))));
    ASSERT_TRUE(a.ok());
    live.push_back(*a);
  }
  ASSERT_TRUE(sys.CreateSnapshot("snap", "emp", "Salary < 10").ok());
  for (int round = 0; round < 6; ++round) {
    auto stats = sys.Refresh(RefreshRequest::For("snap"));
    ASSERT_TRUE(stats.ok());
    ExpectFaithful(&sys, "snap");
    // Eager mode: the refresh never needs fix-up writes.
    EXPECT_EQ(stats->stats.base_writes, 0u) << "round " << round;
    for (int op = 0; op < 20; ++op) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const int64_t salary = static_cast<int64_t>(rng.Uniform(20));
      if (kind == 0 || live.empty()) {
        auto a = base->Insert(Row("n", salary));
        ASSERT_TRUE(a.ok());
        live.push_back(*a);
      } else if (kind == 1) {
        ASSERT_TRUE(
            base->Update(live[rng.Uniform(live.size())], Row("u", salary))
                .ok());
      } else {
        const size_t idx = rng.Uniform(live.size());
        ASSERT_TRUE(base->Delete(live[idx]).ok());
        live.erase(live.begin() + idx);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EagerFaithfulnessTest,
                         ::testing::Values(3u, 99u, 4242u));

}  // namespace
}  // namespace snapdiff
