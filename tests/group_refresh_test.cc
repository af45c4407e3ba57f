// Tests for SnapshotSystem::RefreshGroup — several differential snapshots
// of one base table served by a single combined fix-up + transmit scan.

#include <gtest/gtest.h>

#include "common/random.h"
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

void ExpectFaithful(SnapshotSystem* sys, const std::string& name) {
  auto snap = sys->GetSnapshot(name);
  ASSERT_TRUE(snap.ok());
  auto actual = (*snap)->Contents();
  ASSERT_TRUE(actual.ok());
  auto expected = sys->ExpectedContents(name);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(actual->size(), expected->size()) << name;
  for (const auto& [addr, row] : *expected) {
    ASSERT_TRUE(actual->contains(addr)) << name << " " << addr.ToString();
    EXPECT_TRUE(actual->at(addr).Equals(row)) << name;
  }
}

class GroupRefreshTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto base = sys_.CreateBaseTable("emp", EmpSchema());
    ASSERT_TRUE(base.ok());
    base_ = *base;
    Random rng(17);
    for (int i = 0; i < 60; ++i) {
      auto a = base_->Insert(
          Row("e" + std::to_string(i), int64_t(rng.Uniform(30))));
      ASSERT_TRUE(a.ok());
      live_.push_back(*a);
    }
    ASSERT_TRUE(sys_.CreateSnapshot("low", "emp", "Salary < 10").ok());
    ASSERT_TRUE(
        sys_.CreateSnapshot("mid", "emp", "Salary >= 10 AND Salary < 20")
            .ok());
    ASSERT_TRUE(sys_.CreateSnapshot("high", "emp", "Salary >= 20").ok());
  }

  void Mutate(uint64_t seed) {
    Random rng(seed);
    for (int op = 0; op < 25; ++op) {
      const int kind = static_cast<int>(rng.Uniform(3));
      const int64_t salary = static_cast<int64_t>(rng.Uniform(30));
      if (kind == 0 || live_.empty()) {
        auto a = base_->Insert(Row("n", salary));
        ASSERT_TRUE(a.ok());
        live_.push_back(*a);
      } else if (kind == 1) {
        ASSERT_TRUE(
            base_->Update(live_[rng.Uniform(live_.size())], Row("u", salary))
                .ok());
      } else {
        const size_t idx = rng.Uniform(live_.size());
        ASSERT_TRUE(base_->Delete(live_[idx]).ok());
        live_.erase(live_.begin() + idx);
      }
    }
  }

  SnapshotSystem sys_;
  BaseTable* base_ = nullptr;
  std::vector<Address> live_;
};

TEST_F(GroupRefreshTest, InitializesAllMembersFaithfully) {
  auto results = sys_.RefreshGroup({"low", "mid", "high"});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 3u);
  for (const std::string name : {"low", "mid", "high"}) {
    ExpectFaithful(&sys_, name);
  }
  // The union of the three partitions covers the table exactly.
  size_t total = 0;
  for (const std::string name : {"low", "mid", "high"}) {
    total += (*sys_.GetSnapshot(name))->row_count();
  }
  EXPECT_EQ(total, base_->live_rows());
}

TEST_F(GroupRefreshTest, AllMembersShareOneSnapTime) {
  auto results = sys_.RefreshGroup({"low", "mid", "high"});
  ASSERT_TRUE(results.ok());
  const Timestamp t = (*sys_.GetSnapshot("low"))->snap_time();
  EXPECT_EQ((*sys_.GetSnapshot("mid"))->snap_time(), t);
  EXPECT_EQ((*sys_.GetSnapshot("high"))->snap_time(), t);
}

TEST_F(GroupRefreshTest, StaysFaithfulUnderChurn) {
  ASSERT_TRUE(sys_.RefreshGroup({"low", "mid", "high"}).ok());
  for (uint64_t round = 0; round < 5; ++round) {
    Mutate(round * 13 + 1);
    auto results = sys_.RefreshGroup({"low", "mid", "high"});
    ASSERT_TRUE(results.ok());
    for (const std::string name : {"low", "mid", "high"}) {
      ExpectFaithful(&sys_, name);
    }
  }
}

TEST_F(GroupRefreshTest, QuiescentGroupSendsOnlyEndMarkers) {
  ASSERT_TRUE(sys_.RefreshGroup({"low", "mid", "high"}).ok());
  auto again = sys_.RefreshGroup({"low", "mid", "high"});
  ASSERT_TRUE(again.ok());
  for (const auto& [name, stats] : *again) {
    EXPECT_EQ(stats.data_messages(), 0u) << name;
    EXPECT_EQ(stats.traffic.control_messages, 1u) << name;
    EXPECT_EQ(stats.base_writes, 0u) << name;
  }
}

TEST_F(GroupRefreshTest, PerMemberTrafficAttribution) {
  ASSERT_TRUE(sys_.RefreshGroup({"low", "mid", "high"}).ok());
  // Move one specific row from "low" to "high": low must purge, high must
  // receive; mid sees nothing but possibly a deletion-flag anchor.
  auto expected_low = sys_.ExpectedContents("low");
  ASSERT_TRUE(expected_low.ok());
  ASSERT_FALSE(expected_low->empty());
  const Address victim = expected_low->begin()->first;
  ASSERT_TRUE(base_->Update(victim, Row("moved", 25)).ok());

  auto results = sys_.RefreshGroup({"low", "mid", "high"});
  ASSERT_TRUE(results.ok());
  EXPECT_GT(results->at("high").traffic.entry_messages, 0u);
  for (const std::string name : {"low", "mid", "high"}) {
    ExpectFaithful(&sys_, name);
  }
}

TEST_F(GroupRefreshTest, GroupMixedWithSingleRefreshes) {
  // Group and single refreshes interleave freely; SnapTimes diverge and
  // reconverge without missing changes.
  ASSERT_TRUE(sys_.RefreshGroup({"low", "mid", "high"}).ok());
  Mutate(99);
  ASSERT_TRUE(sys_.Refresh(RefreshRequest::For("mid")).ok());
  Mutate(100);
  auto results = sys_.RefreshGroup({"low", "mid", "high"});
  ASSERT_TRUE(results.ok());
  for (const std::string name : {"low", "mid", "high"}) {
    ExpectFaithful(&sys_, name);
  }
}

TEST_F(GroupRefreshTest, LossyLinkFailsLoudlyAndNextGroupRepairs) {
  ASSERT_TRUE(sys_.RefreshGroup({"low", "mid", "high"}).ok());
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Mutate(seed);
    // A member whose stream lost a message never applies its END: the
    // group must report that instead of success over a diverged replica.
    sys_.data_channel()->Arm(FaultPlan::DropEvery(5));
    auto lossy = sys_.RefreshGroup({"low", "mid", "high"});
    EXPECT_TRUE(lossy.status().IsUnavailable()) << lossy.status().ToString();
    sys_.data_channel()->Heal();
    // The incomplete members kept their old SnapTime, so a clean group
    // refresh re-sends everything they missed.
    auto repaired = sys_.RefreshGroup({"low", "mid", "high"});
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    for (const std::string name : {"low", "mid", "high"}) {
      ExpectFaithful(&sys_, name);
    }
  }
}

TEST_F(GroupRefreshTest, ValidationErrors) {
  EXPECT_TRUE(sys_.RefreshGroup({}).status().IsInvalidArgument());
  EXPECT_TRUE(sys_.RefreshGroup({"nope"}).status().IsNotFound());

  SnapshotOptions full_opts;
  full_opts.method = RefreshMethod::kFull;
  ASSERT_TRUE(sys_.CreateSnapshot("full", "emp", "TRUE", full_opts).ok());
  EXPECT_TRUE(
      sys_.RefreshGroup({"low", "full"}).status().IsInvalidArgument());

  auto other = sys_.CreateBaseTable("other", EmpSchema());
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(sys_.CreateSnapshot("other_low", "other", "Salary < 10").ok());
  EXPECT_TRUE(
      sys_.RefreshGroup({"low", "other_low"}).status().IsInvalidArgument());

  // A repeated member is rejected before any demand crosses the link, on
  // the plain wire and on the encoded one.
  const uint64_t demands = sys_.request_channel()->stats().messages;
  EXPECT_TRUE(
      sys_.RefreshGroup({"low", "low", "high"}).status().IsInvalidArgument());
  EXPECT_EQ(sys_.request_channel()->stats().messages, demands);
  SnapshotSystemOptions encoded;
  encoded.wire_encoding = true;
  SnapshotSystem enc(encoded);
  auto enc_base = enc.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(enc_base.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*enc_base)->Insert(Row("e" + std::to_string(i), i)).ok());
  }
  ASSERT_TRUE(enc.CreateSnapshot("low", "emp", "Salary < 10").ok());
  ASSERT_TRUE(enc.CreateSnapshot("high", "emp", "Salary >= 10").ok());
  EXPECT_TRUE(
      enc.RefreshGroup({"low", "low", "high"}).status().IsInvalidArgument());
  ASSERT_TRUE(enc.RefreshGroup({"low", "high"}).ok());
  ExpectFaithful(&enc, "low");
  ExpectFaithful(&enc, "high");
}

TEST_F(GroupRefreshTest, GroupSupersedesAStaleServeSession) {
  // A serve of "low" that its client never acknowledged...
  auto info = sys_.DescribeSnapshot("low");
  ASSERT_TRUE(info.ok());
  SnapshotSystem::ServeRequest request;
  request.snapshot_id = info->id;
  Channel lost_link;
  auto stale = sys_.ServeRefresh(request, &lost_link);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  // ...is superseded by the group's own session for "low", exactly as a
  // single Refresh would supersede it: the stale ack finds nothing live.
  ASSERT_TRUE(sys_.RefreshGroup({"low", "high"}).ok());
  EXPECT_TRUE(sys_.AcknowledgeServe(info->id, stale->session_id).IsNotFound());
  ExpectFaithful(&sys_, "low");
  ExpectFaithful(&sys_, "high");
}

// Ablation A6: one base scan serves the whole group ("much of the extra
// work is amortized over the set of snapshots"). A group that served its
// members one after another would fetch about three times the pages.
TEST(GroupRefreshScanTest, OneScanServesTheWholeGroup) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  Random rng(29);
  std::vector<Address> live;
  for (int i = 0; i < 2000; ++i) {
    auto a = (*base)->Insert(
        Row("e" + std::to_string(i), int64_t(rng.Uniform(30))));
    ASSERT_TRUE(a.ok());
    live.push_back(*a);
  }
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  ASSERT_TRUE(
      sys.CreateSnapshot("mid", "emp", "Salary >= 10 AND Salary < 20").ok());
  ASSERT_TRUE(sys.CreateSnapshot("high", "emp", "Salary >= 20").ok());
  ASSERT_TRUE(sys.RefreshGroup({"low", "mid", "high"}).ok());

  const BufferPoolStats& pool = sys.base_catalog()->buffer_pool()->stats();
  const auto fetches = [&pool] { return pool.hits + pool.misses; };
  const auto churn = [&] {
    for (int op = 0; op < 50; ++op) {
      ASSERT_TRUE((*base)
                      ->Update(live[rng.Uniform(live.size())],
                               Row("u", int64_t(rng.Uniform(30))))
                      .ok());
    }
  };

  churn();
  const uint64_t before_group = fetches();
  auto group = sys.RefreshGroup({"low", "mid", "high"});
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  const uint64_t group_fetches = fetches() - before_group;
  for (const auto& [name, stats] : *group) {
    EXPECT_EQ(stats.entries_scanned, (*base)->live_rows()) << name;
    ExpectFaithful(&sys, name);
  }

  churn();
  const uint64_t before_single = fetches();
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("mid")).ok());
  const uint64_t single_fetches = fetches() - before_single;

  ASSERT_GT(single_fetches, 0u);
  EXPECT_LE(group_fetches * 4, single_fetches * 5)
      << "group " << group_fetches << " vs single " << single_fetches;
}

}  // namespace
}  // namespace snapdiff
