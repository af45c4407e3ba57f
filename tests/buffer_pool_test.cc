#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "storage/disk_manager.h"

namespace snapdiff {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  MemoryDiskManager disk_;
};

TEST_F(BufferPoolTest, NewPageAssignsIds) {
  BufferPool pool(&disk_, 4);
  PageId id0, id1;
  auto p0 = pool.NewPage(&id0);
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(id0, 0u);
  auto p1 = pool.NewPage(&id1);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(id1, 1u);
  ASSERT_TRUE(pool.UnpinPage(id0, false).ok());
  ASSERT_TRUE(pool.UnpinPage(id1, false).ok());
}

TEST_F(BufferPoolTest, DataSurvivesEviction) {
  BufferPool pool(&disk_, 2);
  PageId id;
  auto p = pool.NewPage(&id);
  ASSERT_TRUE(p.ok());
  std::strcpy((*p)->data(), "payload");
  ASSERT_TRUE(pool.UnpinPage(id, /*dirty=*/true).ok());

  // Force eviction by cycling more pages than frames.
  for (int i = 0; i < 4; ++i) {
    PageId other;
    auto q = pool.NewPage(&other);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(pool.UnpinPage(other, false).ok());
  }

  auto again = pool.FetchPage(id);
  ASSERT_TRUE(again.ok());
  EXPECT_STREQ((*again)->data(), "payload");
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
}

/// Eviction leaves a frame's bytes in place (a fetch overwrites them all),
/// so a new page must still come up zeroed in a recycled frame.
TEST_F(BufferPoolTest, NewPageIsZeroedInARecycledFrame) {
  BufferPool pool(&disk_, 1);
  PageId a;
  auto p = pool.NewPage(&a);
  ASSERT_TRUE(p.ok());
  std::memset((*p)->data(), 0xab, Page::kPageSize);
  ASSERT_TRUE(pool.UnpinPage(a, /*dirty=*/true).ok());

  PageId b;
  auto q = pool.NewPage(&b);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, *p) << "the single frame was not recycled";
  const std::string zeros(Page::kPageSize, '\0');
  EXPECT_EQ(std::string((*q)->data(), Page::kPageSize), zeros);
  ASSERT_TRUE(pool.UnpinPage(b, false).ok());

  auto again = pool.FetchPage(a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(std::string((*again)->data(), Page::kPageSize),
            std::string(Page::kPageSize, '\xab'));
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  BufferPool pool(&disk_, 2);
  PageId a, b, c;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  ASSERT_TRUE(pool.NewPage(&b).ok());
  auto r = pool.NewPage(&c);
  EXPECT_TRUE(r.status().IsResourceExhausted());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  // One frame freed; now it works.
  EXPECT_TRUE(pool.NewPage(&c).ok());
  ASSERT_TRUE(pool.UnpinPage(b, false).ok());
  ASSERT_TRUE(pool.UnpinPage(c, false).ok());
}

TEST_F(BufferPoolTest, FetchCountsHitsAndMisses) {
  BufferPool pool(&disk_, 2);
  PageId id;
  ASSERT_TRUE(pool.NewPage(&id).ok());
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  ASSERT_TRUE(pool.FetchPage(id).ok());  // hit
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  EXPECT_EQ(pool.stats().hits, 1u);

  // Evict it, then fetch = miss.
  PageId x, y;
  ASSERT_TRUE(pool.NewPage(&x).ok());
  ASSERT_TRUE(pool.NewPage(&y).ok());
  ASSERT_TRUE(pool.UnpinPage(x, false).ok());
  ASSERT_TRUE(pool.UnpinPage(y, false).ok());
  ASSERT_TRUE(pool.FetchPage(id).ok());
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  EXPECT_GE(pool.stats().misses, 1u);
  EXPECT_GE(pool.stats().evictions, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(&disk_, 2);
  PageId pinned;
  auto p = pool.NewPage(&pinned);
  ASSERT_TRUE(p.ok());
  std::strcpy((*p)->data(), "pinned");

  // Cycle the other frame.
  for (int i = 0; i < 3; ++i) {
    PageId other;
    auto q = pool.NewPage(&other);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(pool.UnpinPage(other, false).ok());
  }
  // The pinned frame's contents are untouched.
  EXPECT_STREQ((*p)->data(), "pinned");
  ASSERT_TRUE(pool.UnpinPage(pinned, false).ok());
}

TEST_F(BufferPoolTest, UnpinErrors) {
  BufferPool pool(&disk_, 2);
  EXPECT_TRUE(pool.UnpinPage(42, false).IsNotFound());
  PageId id;
  ASSERT_TRUE(pool.NewPage(&id).ok());
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  EXPECT_TRUE(pool.UnpinPage(id, false).IsInternal());
}

TEST_F(BufferPoolTest, FlushAllWritesDirtyPages) {
  BufferPool pool(&disk_, 4);
  PageId id;
  auto p = pool.NewPage(&id);
  ASSERT_TRUE(p.ok());
  std::strcpy((*p)->data(), "durable");
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  char raw[Page::kPageSize];
  ASSERT_TRUE(disk_.ReadPage(id, raw).ok());
  EXPECT_STREQ(raw, "durable");
}

TEST_F(BufferPoolTest, PageGuardUnpinsOnDestruction) {
  BufferPool pool(&disk_, 1);
  PageId id;
  {
    auto p = pool.NewPage(&id);
    ASSERT_TRUE(p.ok());
    PageGuard guard(&pool, *p, true);
  }
  // The single frame must be reusable now.
  PageId id2;
  auto q = pool.NewPage(&id2);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(pool.UnpinPage(id2, false).ok());
}

TEST_F(BufferPoolTest, PageGuardMoveTransfersOwnership) {
  BufferPool pool(&disk_, 2);
  PageId id;
  auto p = pool.NewPage(&id);
  ASSERT_TRUE(p.ok());
  PageGuard g1(&pool, *p);
  PageGuard g2(std::move(g1));
  EXPECT_FALSE(static_cast<bool>(g1));
  EXPECT_TRUE(static_cast<bool>(g2));
  g2.Release();
  // Frame is unpinned exactly once: a second unpin would be an error.
  EXPECT_TRUE(pool.UnpinPage(id, false).IsInternal());
}

}  // namespace
}  // namespace snapdiff
