#include "snapshot/differential_refresh.h"

#include <gtest/gtest.h>

#include "expr/parser.h"
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

Address A(uint64_t raw) { return Address::FromRaw(raw); }

/// End-to-end reproduction of Figures 5 and 6: lazy (batch) annotation
/// maintenance, a mixed workload of insert/update/delete including slot
/// reuse, then the combined fix-up + refresh pass.
class PaperFigure56Test : public ::testing::Test {
 protected:
  void SetUp() override {
    auto base = sys_.CreateBaseTable("emp", EmpSchema(),
                                     AnnotationMode::kLazy,
                                     PlacementPolicy::kFirstFit);
    ASSERT_TRUE(base.ok());
    base_ = *base;
    auto snap = sys_.CreateSnapshot("emp_lowpaid", "emp", "Salary < 10");
    ASSERT_TRUE(snap.ok());
    snap_ = *snap;

    // Initial population at addresses 1..7 (single page, first-fit):
    //   1 Bruce 15, 2 Temp 20 (placeholder), 3 Hamid 9, 4 Jack 6,
    //   5 Mohan 9, 6 Paul 8, 7 Bob 8.
    const struct {
      const char* name;
      int64_t salary;
    } rows[] = {{"Bruce", 15}, {"Temp", 20}, {"Hamid", 9}, {"Jack", 6},
                {"Mohan", 9},  {"Paul", 8},  {"Bob", 8}};
    for (const auto& r : rows) {
      auto addr = base_->Insert(Row(r.name, r.salary));
      ASSERT_TRUE(addr.ok());
      addrs_.push_back(*addr);
    }
    ASSERT_EQ(addrs_[0], A(1));
    ASSERT_EQ(addrs_[6], A(7));

    // Initialize the snapshot — Figure 6 "before": {3,4,5,6,7}.
    auto init = sys_.Refresh(RefreshRequest::For("emp_lowpaid"));
    ASSERT_TRUE(init.ok()) << init.status().ToString();
    auto contents = snap_->Contents();
    ASSERT_TRUE(contents.ok());
    ASSERT_EQ(contents->size(), 5u);
    ASSERT_TRUE(contents->contains(A(3)));
    ASSERT_TRUE(contents->contains(A(7)));

    // The paper's intervening workload:
    //   delete Temp; insert Laura 6 (reuses address 2);
    //   Hamid's raise to 15; delete Jack (4); delete Bob (7).
    ASSERT_TRUE(base_->Delete(A(2)).ok());
    auto laura = base_->Insert(Row("Laura", 6));
    ASSERT_TRUE(laura.ok());
    ASSERT_EQ(*laura, A(2)) << "first-fit must reuse the hole";
    ASSERT_TRUE(base_->Update(A(3), Row("Hamid", 15)).ok());
    ASSERT_TRUE(base_->Delete(A(4)).ok());
    ASSERT_TRUE(base_->Delete(A(7)).ok());
  }

  SnapshotSystem sys_;
  BaseTable* base_ = nullptr;
  SnapshotTable* snap_ = nullptr;
  std::vector<Address> addrs_;
};

TEST_F(PaperFigure56Test, RefreshMessagesMatchFigure6) {
  // Intercept the wire: run the executor against a scratch channel.
  SnapshotDescriptor desc;
  desc.id = 42;
  auto restriction = ParsePredicate("Salary < 10");
  ASSERT_TRUE(restriction.ok());
  Channel channel;
  RefreshStats stats;
  // The facade path is covered below; here we drive the executor directly
  // to inspect the wire.
  desc.restriction = *restriction;
  desc.projection = {"Name", "Salary"};
  std::vector<GroupRefreshMember> members{
      {&desc, snap_->snap_time(), &stats}};
  ASSERT_TRUE(ExecuteGroupDifferentialRefresh(base_, &members, &channel).ok());

  // Figure 6's message table: (2, 0, Laura 6), (5, 2, Mohan 9), (NULL, 6).
  auto m1 = channel.Receive();
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1->type, MessageType::kEntry);
  EXPECT_EQ(m1->base_addr, A(2));
  EXPECT_EQ(m1->prev_addr, Address::Origin());  // the paper's PrevAddr 0
  auto laura = Tuple::Deserialize(EmpSchema(), m1->payload);
  ASSERT_TRUE(laura.ok());
  EXPECT_EQ(laura->value(0).as_string(), "Laura");
  EXPECT_EQ(laura->value(1).as_int64(), 6);

  auto m2 = channel.Receive();
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->type, MessageType::kEntry);
  EXPECT_EQ(m2->base_addr, A(5));
  EXPECT_EQ(m2->prev_addr, A(2));
  auto mohan = Tuple::Deserialize(EmpSchema(), m2->payload);
  ASSERT_TRUE(mohan.ok());
  EXPECT_EQ(mohan->value(0).as_string(), "Mohan");

  auto m3 = channel.Receive();
  ASSERT_TRUE(m3.ok());
  EXPECT_EQ(m3->type, MessageType::kEndOfRefresh);
  EXPECT_EQ(m3->prev_addr, A(6));  // LastQual = Paul's address
  EXPECT_FALSE(channel.HasPending());

  // Fix-up categories (cf. Figure 5's comments). Unlike the paper's
  // example, address 2 here was occupied (Temp) before Laura reused it, so
  // Hamid's PrevAddr is anomalous too: deletions are detected at Hamid
  // (Temp's) and at Mohan (Jack's).
  EXPECT_EQ(stats.fixups_inserted, 1u);  // Laura
  EXPECT_EQ(stats.fixups_updated, 1u);   // Hamid
  EXPECT_EQ(stats.fixups_deleted, 2u);
}

TEST_F(PaperFigure56Test, BaseTableAfterFixupMatchesFigure5) {
  auto refreshed = sys_.Refresh(RefreshRequest::For("emp_lowpaid"));
  ASSERT_TRUE(refreshed.ok());

  // Figure 5 "Base Table after Refresh": PrevAddr chain 0,1,2,3,5 over
  // live addresses 1,2,3,5,6; Laura/Hamid/Mohan stamped with the fix-up
  // time, Bruce/Paul untouched.
  struct Expect {
    uint64_t addr;
    uint64_t prev;
    bool restamped;
  };
  const Expect expects[] = {
      {1, 0, false}, {2, 1, true}, {3, 2, true}, {5, 3, true}, {6, 5, false}};
  const Timestamp fixup_time = refreshed->stats.new_snap_time;
  for (const Expect& e : expects) {
    auto row = base_->ReadAnnotated(A(e.addr));
    ASSERT_TRUE(row.ok()) << e.addr;
    EXPECT_EQ(row->prev_addr, e.prev == 0 ? Address::Origin() : A(e.prev))
        << e.addr;
    if (e.restamped) {
      EXPECT_EQ(row->timestamp, fixup_time) << e.addr;
    } else {
      EXPECT_LT(row->timestamp, fixup_time) << e.addr;
      EXPECT_NE(row->timestamp, kNullTimestamp) << e.addr;
    }
  }
}

TEST_F(PaperFigure56Test, SnapshotAfterRefreshMatchesFigure6) {
  auto refreshed = sys_.Refresh(RefreshRequest::For("emp_lowpaid"));
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  auto contents = snap_->Contents();
  ASSERT_TRUE(contents.ok());
  // Figure 6 "after": {2: Laura 6, 5: Mohan 9, 6: Paul 8}.
  ASSERT_EQ(contents->size(), 3u);
  EXPECT_EQ(contents->at(A(2)).value(0).as_string(), "Laura");
  EXPECT_EQ(contents->at(A(5)).value(0).as_string(), "Mohan");
  EXPECT_EQ(contents->at(A(6)).value(0).as_string(), "Paul");
  EXPECT_EQ(snap_->snap_time(), refreshed->stats.new_snap_time);

  // Message accounting: 2 entries + request/end controls.
  EXPECT_EQ(refreshed->stats.traffic.entry_messages, 2u);
  EXPECT_EQ(refreshed->stats.traffic.delete_messages, 0u);
}

TEST_F(PaperFigure56Test, QuiescentRefreshSendsOnlyEndMarker) {
  ASSERT_TRUE(sys_.Refresh(RefreshRequest::For("emp_lowpaid")).ok());
  auto again = sys_.Refresh(RefreshRequest::For("emp_lowpaid"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.data_messages(), 0u);
  EXPECT_EQ(again->stats.traffic.messages, 1u);  // just END_OF_REFRESH
  EXPECT_EQ(again->stats.base_writes, 0u);
  auto contents = snap_->Contents();
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->size(), 3u);
}

}  // namespace
}  // namespace snapdiff
