#include <gtest/gtest.h>

#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace snapdiff {
namespace {

Address A(SlotId slot) { return Address::FromPageSlot(0, slot); }

TEST(LogRecordTest, SerializationRoundTrip) {
  LogRecord rec;
  rec.lsn = 42;
  rec.txn_id = 7;
  rec.type = LogRecordType::kUpdate;
  rec.table_id = 3;
  rec.addr = A(5);
  rec.before = "old-bytes";
  rec.after = "new-bytes";

  std::string buf;
  rec.SerializeTo(&buf);
  EXPECT_EQ(buf.size(), rec.SerializedSize());

  std::string_view in = buf;
  auto back = LogRecord::DeserializeFrom(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rec);
  EXPECT_TRUE(in.empty());
}

TEST(LogRecordTest, TruncationIsCorruption) {
  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.after = "payload";
  std::string buf;
  rec.SerializeTo(&buf);
  std::string_view in(buf.data(), buf.size() - 3);
  EXPECT_TRUE(LogRecord::DeserializeFrom(&in).status().IsCorruption());
}

TEST(LogManagerTest, AppendAssignsSequentialLsns) {
  LogManager log;
  EXPECT_EQ(log.LastLsn(), kInvalidLsn);
  EXPECT_EQ(log.LogBegin(1), 1u);
  EXPECT_EQ(log.LogInsert(1, 5, A(0), "x"), 2u);
  EXPECT_EQ(log.LogCommit(1), 3u);
  EXPECT_EQ(log.LastLsn(), 3u);
  auto rec = log.Get(2);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->type, LogRecordType::kInsert);
  EXPECT_TRUE(log.Get(0).status().IsNotFound());
  EXPECT_TRUE(log.Get(4).status().IsNotFound());
}

TEST(LogManagerTest, ScanFromLsn) {
  LogManager log;
  log.LogBegin(1);
  log.LogInsert(1, 5, A(0), "x");
  log.LogCommit(1);
  EXPECT_EQ(log.Scan(0).size(), 3u);
  EXPECT_EQ(log.Scan(2).size(), 1u);
  EXPECT_EQ(log.Scan(3).size(), 0u);
}

class CullTest : public ::testing::Test {
 protected:
  static constexpr TableId kTable = 5;
  LogManager log_;
};

TEST_F(CullTest, OnlyCommittedChangesCount) {
  log_.LogBegin(1);
  log_.LogInsert(1, kTable, A(0), "committed");
  log_.LogCommit(1);
  log_.LogBegin(2);
  log_.LogInsert(2, kTable, A(1), "uncommitted");
  log_.LogBegin(3);
  log_.LogInsert(3, kTable, A(2), "aborted");
  log_.LogAbort(3);

  auto net = log_.CollectCommittedChanges(kTable, 0);
  ASSERT_TRUE(net.ok());
  ASSERT_EQ(net->size(), 1u);
  EXPECT_TRUE(net->contains(A(0)));
  EXPECT_EQ(net->at(A(0)).after, "committed");
}

TEST_F(CullTest, OtherTablesFiltered) {
  log_.LogBegin(1);
  log_.LogInsert(1, kTable, A(0), "mine");
  log_.LogInsert(1, 99, A(1), "other table");
  log_.LogCommit(1);

  CullStats stats;
  auto net = log_.CollectCommittedChanges(kTable, 0, &stats);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->size(), 1u);
  EXPECT_EQ(stats.records_scanned, 4u);
  EXPECT_EQ(stats.relevant_records, 1u);
  EXPECT_GT(stats.bytes_scanned, 0u);
}

TEST_F(CullTest, CoalescesMultipleUpdates) {
  log_.LogBegin(1);
  log_.LogUpdate(1, kTable, A(0), "v0", "v1");
  log_.LogUpdate(1, kTable, A(0), "v1", "v2");
  log_.LogUpdate(1, kTable, A(0), "v2", "v3");
  log_.LogCommit(1);

  auto net = log_.CollectCommittedChanges(kTable, 0);
  ASSERT_TRUE(net.ok());
  ASSERT_EQ(net->size(), 1u);
  const NetChange& c = net->at(A(0));
  EXPECT_EQ(c.kind, NetChange::Kind::kUpdate);
  EXPECT_EQ(c.before, "v0");
  EXPECT_EQ(c.after, "v3");
}

TEST_F(CullTest, InsertThenDeleteVanishes) {
  log_.LogBegin(1);
  log_.LogInsert(1, kTable, A(0), "ephemeral");
  log_.LogDelete(1, kTable, A(0), "ephemeral");
  log_.LogCommit(1);

  auto net = log_.CollectCommittedChanges(kTable, 0);
  ASSERT_TRUE(net.ok());
  EXPECT_TRUE(net->empty());
}

TEST_F(CullTest, UpdateThenDeleteIsDelete) {
  log_.LogBegin(1);
  log_.LogUpdate(1, kTable, A(0), "v0", "v1");
  log_.LogDelete(1, kTable, A(0), "v1");
  log_.LogCommit(1);

  auto net = log_.CollectCommittedChanges(kTable, 0);
  ASSERT_TRUE(net.ok());
  const NetChange& c = net->at(A(0));
  EXPECT_EQ(c.kind, NetChange::Kind::kDelete);
  EXPECT_EQ(c.before, "v0");
  EXPECT_TRUE(c.after.empty());
}

TEST_F(CullTest, DeleteThenReinsertIsUpdate) {
  // Slot reuse: delete then insert at the same address nets to an update.
  log_.LogBegin(1);
  log_.LogDelete(1, kTable, A(0), "old");
  log_.LogInsert(1, kTable, A(0), "new");
  log_.LogCommit(1);

  auto net = log_.CollectCommittedChanges(kTable, 0);
  ASSERT_TRUE(net.ok());
  const NetChange& c = net->at(A(0));
  EXPECT_EQ(c.kind, NetChange::Kind::kUpdate);
  EXPECT_EQ(c.before, "old");
  EXPECT_EQ(c.after, "new");
}

TEST_F(CullTest, IntervalRespected) {
  log_.LogBegin(1);
  log_.LogInsert(1, kTable, A(0), "early");
  log_.LogCommit(1);
  const Lsn mark = log_.LastLsn();
  log_.LogBegin(2);
  log_.LogInsert(2, kTable, A(1), "late");
  log_.LogCommit(2);

  auto net = log_.CollectCommittedChanges(kTable, mark);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->size(), 1u);
  EXPECT_TRUE(net->contains(A(1)));
}

TEST_F(CullTest, ResultsOrderedByAddress) {
  log_.LogBegin(1);
  log_.LogInsert(1, kTable, A(9), "i9");
  log_.LogInsert(1, kTable, A(2), "i2");
  log_.LogInsert(1, kTable, A(5), "i5");
  log_.LogCommit(1);
  auto net = log_.CollectCommittedChanges(kTable, 0);
  ASSERT_TRUE(net.ok());
  Address prev = Address::Origin();
  for (const auto& [addr, change] : *net) {
    EXPECT_GT(addr, prev);
    prev = addr;
  }
}

TEST_F(CullTest, TruncationReclaimsSpaceAndGuardsScans) {
  log_.LogBegin(1);
  log_.LogInsert(1, kTable, A(0), std::string(1000, 'x'));
  log_.LogCommit(1);
  const Lsn mark = log_.LastLsn();
  log_.LogBegin(2);
  log_.LogInsert(2, kTable, A(1), "late");
  log_.LogCommit(2);

  const size_t before_bytes = log_.retained_bytes();
  log_.Truncate(mark);
  EXPECT_LT(log_.retained_bytes(), before_bytes);
  EXPECT_EQ(log_.retained_records(), 3u);

  // Collecting from before the truncation point must fail: the paper's
  // "transmit the entire base table if the last refresh of the snapshot
  // precedes the earliest retained changes".
  EXPECT_TRUE(log_.CollectCommittedChanges(kTable, 0).status().IsOutOfRange());
  // From the mark onward still works.
  auto net = log_.CollectCommittedChanges(kTable, mark);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->size(), 1u);
}

/// Truncation frees the dropped records' slots, not just their payloads,
/// while LSN numbering, Get() and the cull's start guard behave as if the
/// records were still assigned.
TEST_F(CullTest, TruncationFreesSlotsAndKeepsLsnArithmetic) {
  Lsn mark = kInvalidLsn;
  for (TxnId txn = 1; txn <= 4; ++txn) {
    log_.LogBegin(txn);
    log_.LogInsert(txn, kTable, A(static_cast<SlotId>(txn)), "row");
    log_.LogCommit(txn);
    if (txn == 2) mark = log_.LastLsn();
  }
  const size_t kept = log_.LastLsn() - mark;

  log_.Truncate(mark);
  EXPECT_TRUE(log_.Get(mark).status().IsNotFound());
  ASSERT_TRUE(log_.Get(mark + 1).ok());
  EXPECT_EQ((*log_.Get(mark + 1))->lsn, mark + 1);
  EXPECT_EQ(log_.retained_records(), kept);
  EXPECT_EQ(log_.base_lsn(), mark);

  const Lsn last = log_.LastLsn();
  const Lsn next = log_.LogBegin(9);
  EXPECT_EQ(next, last + 1);
  ASSERT_TRUE(log_.Get(next).ok());
  EXPECT_EQ((*log_.Get(next))->lsn, next);
  EXPECT_EQ(log_.retained_records(), kept + 1);

  // A second truncation moves the mark again; a cull that starts before
  // either mark still asks for a full refresh, one from the mark does not.
  log_.LogInsert(9, kTable, A(20), "late");
  log_.LogCommit(9);
  const Lsn mark2 = next;
  log_.Truncate(mark2);
  log_.Truncate(mark);  // behind the current mark: a no-op
  EXPECT_EQ(log_.retained_records(), 2u);
  EXPECT_TRUE(log_.CollectCommittedChanges(kTable, 0).status().IsOutOfRange());
  EXPECT_TRUE(
      log_.CollectCommittedChanges(kTable, mark).status().IsOutOfRange());
  EXPECT_TRUE(
      log_.CollectCommittedChanges(kTable, mark2 - 1).status().IsOutOfRange());
  auto net = log_.CollectCommittedChanges(kTable, mark2);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->size(), 1u);
  EXPECT_TRUE(log_.Get(mark2).status().IsNotFound());

  // Truncating past the end empties the log without renumbering it.
  const Lsn end = log_.LastLsn();
  log_.Truncate(end + 10);
  EXPECT_EQ(log_.retained_records(), 0u);
  EXPECT_EQ(log_.LastLsn(), end);
  EXPECT_EQ(log_.LogBegin(10), end + 1);
}

}  // namespace
}  // namespace snapdiff
