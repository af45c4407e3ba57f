// Site-restart integration test: the base site lives on a FileDiskManager;
// after a shutdown (buffer pool flushed, all in-memory state discarded) the
// table is re-attached, the timestamp oracle recovered past its checkpoint,
// and a differential refresh still ships exactly the pre- and post-crash
// changes — the "local, recoverable counter" story of the paper.

#include <gtest/gtest.h>

#include <filesystem>

#include "catalog/catalog.h"
#include "expr/parser.h"
#include "snapshot/differential_refresh.h"
#include "snapshot/snapshot_table.h"
#include "storage/disk_manager.h"
#include "txn/timestamp_oracle.h"

namespace snapdiff {
namespace {

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

Tuple Row(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary)});
}

class RestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("snapdiff_restart_" + std::to_string(::getpid()) + ".db");
    std::filesystem::remove(path_);

    // The snapshot site survives the base-site crash (it is remote).
    auto snap = SnapshotTable::Create(&snap_catalog_, "snap", EmpSchema(),
                                      &snap_oracle_);
    ASSERT_TRUE(snap.ok());
    snap_ = std::move(*snap);
    restriction_ = *ParsePredicate("Salary < 10");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  Status RefreshInto(BaseTable* base, SnapshotTable* snap,
                     RefreshStats* stats) {
    SnapshotDescriptor desc;
    desc.id = 1;
    desc.restriction = restriction_;
    desc.projection = {"Name", "Salary"};
    Channel channel;
    std::vector<GroupRefreshMember> members{{&desc, snap->snap_time(), stats}};
    RETURN_IF_ERROR(ExecuteGroupDifferentialRefresh(base, &members, &channel));
    stats->traffic = channel.stats();
    while (channel.HasPending()) {
      ASSIGN_OR_RETURN(Message m, channel.Receive());
      RETURN_IF_ERROR(snap->ApplyMessage(m, stats));
    }
    return Status::OK();
  }

  void ExpectFaithful(BaseTable* base) {
    auto contents = snap_->Contents();
    ASSERT_TRUE(contents.ok());
    std::map<Address, Tuple> expected;
    auto bound = restriction_->Bind(base->user_schema());
    ASSERT_TRUE(bound.ok());
    ASSERT_TRUE(base->ScanAnnotated([&](Address addr,
                                        const BaseTable::AnnotatedView& row)
                                        -> Status {
                      ASSIGN_OR_RETURN(bool q, bound->Qualifies(row.user));
                      if (q) {
                        ASSIGN_OR_RETURN(Tuple user, row.user.Materialize());
                        expected.emplace(addr, std::move(user));
                      }
                      return Status::OK();
                    }).ok());
    ASSERT_EQ(contents->size(), expected.size());
    for (const auto& [addr, row] : expected) {
      ASSERT_TRUE(contents->contains(addr)) << addr.ToString();
      EXPECT_TRUE(contents->at(addr).Equals(row));
    }
  }

  std::filesystem::path path_;
  MemoryDiskManager snap_disk_;
  BufferPool snap_pool_{&snap_disk_, 64};
  Catalog snap_catalog_{&snap_pool_};
  TimestampOracle snap_oracle_;
  std::unique_ptr<SnapshotTable> snap_;
  ExprPtr restriction_;
};

TEST_F(RestartTest, DifferentialRefreshSurvivesBaseSiteRestart) {
  constexpr PageId kOraclePage = 0;
  std::vector<PageId> table_pages;
  std::vector<Address> addrs;
  Timestamp last_prestart_ts = 0;

  // ---- Phase 1: original base-site incarnation -------------------------
  {
    auto disk = FileDiskManager::Open(path_.string());
    ASSERT_TRUE(disk.ok());
    // Page 0 is reserved for the oracle checkpoint.
    ASSERT_TRUE((*disk)->AllocatePage().ok());
    BufferPool pool(disk->get(), 32);
    Catalog catalog(&pool);
    TimestampOracle oracle;

    auto annotated = EmpSchema().WithAnnotations();
    ASSERT_TRUE(annotated.ok());
    auto info = catalog.CreateTable("emp", *annotated);
    ASSERT_TRUE(info.ok());
    BaseTable base(*info, AnnotationMode::kLazy, &oracle, nullptr);

    for (int i = 0; i < 40; ++i) {
      auto a = base.Insert(Row("e" + std::to_string(i), i % 20));
      ASSERT_TRUE(a.ok());
      addrs.push_back(*a);
    }
    RefreshStats init;
    ASSERT_TRUE(RefreshInto(&base, snap_.get(), &init).ok());
    ExpectFaithful(&base);
    ASSERT_TRUE(oracle.Checkpoint(disk->get(), kOraclePage).ok());

    // Post-checkpoint activity that must survive the restart: lazy NULL
    // annotations on disk are precisely the to-do list for the next
    // fix-up.
    ASSERT_TRUE(base.Update(addrs[3], Row("e3", 1)).ok());
    ASSERT_TRUE(base.Delete(addrs[7]).ok());
    ASSERT_TRUE(base.Insert(Row("late", 2)).ok());
    last_prestart_ts = oracle.Current();

    table_pages = (*info)->heap->pages();
    ASSERT_TRUE(pool.FlushAll().ok());
    // Everything in memory dies here.
  }

  // ---- Phase 2: restart ------------------------------------------------
  {
    auto disk = FileDiskManager::Open(path_.string());
    ASSERT_TRUE(disk.ok());
    BufferPool pool(disk->get(), 32);
    Catalog catalog(&pool);

    auto recovered = TimestampOracle::Recover(disk->get(), kOraclePage,
                                              /*skew=*/1000);
    ASSERT_TRUE(recovered.ok());
    // Monotonicity across the crash, even though post-checkpoint
    // timestamps were issued and lost.
    EXPECT_GT(recovered->PeekNext(), last_prestart_ts);

    auto annotated = EmpSchema().WithAnnotations();
    ASSERT_TRUE(annotated.ok());
    auto info = catalog.AttachTable("emp", *annotated, table_pages);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ((*info)->heap->live_tuples(), 40u);  // 40 +1 insert -1 delete

    TimestampOracle oracle = *recovered;
    BaseTable base(*info, AnnotationMode::kLazy, &oracle, nullptr);

    // The pre-crash rows read back intact, annotations included.
    auto row3 = base.ReadAnnotated(addrs[3]);
    ASSERT_TRUE(row3.ok());
    EXPECT_EQ(row3->timestamp, kNullTimestamp);  // awaiting fix-up
    EXPECT_EQ(row3->user.value(1).as_int64(), 1);

    // The refresh picks up exactly the cross-crash changes.
    RefreshStats stats;
    ASSERT_TRUE(RefreshInto(&base, snap_.get(), &stats).ok());
    ExpectFaithful(&base);
    EXPECT_GT(stats.traffic.entry_messages, 0u);
    EXPECT_LT(stats.traffic.entry_messages, 10u);  // not a full resend

    // And the system keeps working post-restart.
    ASSERT_TRUE(base.Update(addrs[5], Row("e5", 3)).ok());
    RefreshStats more;
    ASSERT_TRUE(RefreshInto(&base, snap_.get(), &more).ok());
    ExpectFaithful(&base);
  }
}

TEST_F(RestartTest, AttachRejectsUnsortedPages) {
  auto disk = FileDiskManager::Open(path_.string());
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->AllocatePage().ok());
  ASSERT_TRUE((*disk)->AllocatePage().ok());
  BufferPool pool(disk->get(), 8);
  auto heap = TableHeap::Attach(&pool, {1, 0});
  EXPECT_TRUE(heap.status().IsInvalidArgument());
}

}  // namespace
}  // namespace snapdiff
