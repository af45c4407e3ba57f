#include <gtest/gtest.h>

#include "storage/disk_manager.h"
#include "txn/timestamp_oracle.h"

namespace snapdiff {
namespace {

TEST(TimestampOracleTest, MonotonicallyIncreasing) {
  TimestampOracle oracle;
  Timestamp prev = oracle.Next();
  for (int i = 0; i < 1000; ++i) {
    Timestamp next = oracle.Next();
    EXPECT_GT(next, prev);
    prev = next;
  }
}

TEST(TimestampOracleTest, CurrentAndPeek) {
  TimestampOracle oracle(10);
  EXPECT_EQ(oracle.PeekNext(), 10);
  EXPECT_EQ(oracle.Next(), 10);
  EXPECT_EQ(oracle.Current(), 10);
  EXPECT_EQ(oracle.PeekNext(), 11);
}

TEST(TimestampOracleTest, CheckpointAndRecoverNeverRepeats) {
  MemoryDiskManager disk;
  auto page = disk.AllocatePage();
  ASSERT_TRUE(page.ok());

  TimestampOracle oracle;
  for (int i = 0; i < 5; ++i) oracle.Next();
  ASSERT_TRUE(oracle.Checkpoint(&disk, *page).ok());
  // Issue more timestamps that are "lost" in the crash.
  Timestamp last_issued = 0;
  for (int i = 0; i < 100; ++i) last_issued = oracle.Next();

  auto recovered = TimestampOracle::Recover(&disk, *page, /*skew=*/1000);
  ASSERT_TRUE(recovered.ok());
  EXPECT_GT(recovered->PeekNext(), last_issued);
}

TEST(TimestampOracleTest, RecoverWithoutCheckpointFails) {
  MemoryDiskManager disk;
  auto page = disk.AllocatePage();
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(
      TimestampOracle::Recover(&disk, *page).status().IsCorruption());
}

}  // namespace
}  // namespace snapdiff
