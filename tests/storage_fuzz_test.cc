// Property tests: slotted pages and table heaps mirrored against simple
// reference models under long random operation sequences.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/disk_manager.h"
#include "storage/slotted_page.h"
#include "storage/table_heap.h"

namespace snapdiff {
namespace {

class SlottedPageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlottedPageFuzzTest, MatchesReferenceModel) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  Random rng(GetParam());
  std::map<SlotId, std::string> ref;

  for (int step = 0; step < 4000; ++step) {
    const int op = static_cast<int>(rng.Uniform(4));
    if (op == 0) {  // insert
      std::string data(rng.Uniform(120) + 1, char('a' + rng.Uniform(26)));
      auto slot = sp.Insert(data, /*reuse_slots=*/true);
      if (slot.ok()) {
        EXPECT_FALSE(ref.contains(*slot));
        ref[*slot] = data;
      } else {
        EXPECT_TRUE(slot.status().IsResourceExhausted());
      }
    } else if (op == 1 && !ref.empty()) {  // delete
      auto it = ref.begin();
      std::advance(it, rng.Uniform(ref.size()));
      ASSERT_TRUE(sp.Delete(it->first).ok());
      ref.erase(it);
    } else if (op == 2 && !ref.empty()) {  // update (shrink or grow)
      auto it = ref.begin();
      std::advance(it, rng.Uniform(ref.size()));
      std::string data(rng.Uniform(200) + 1, char('A' + rng.Uniform(26)));
      Status st = sp.Update(it->first, data);
      if (st.ok()) {
        it->second = data;
      } else {
        EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
      }
    } else {  // verify a random slot
      if (!ref.empty()) {
        auto it = ref.begin();
        std::advance(it, rng.Uniform(ref.size()));
        auto got = sp.Get(it->first);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, it->second);
      }
    }
    if (step % 500 == 499) {
      // Full sweep.
      ASSERT_EQ(sp.live_count(), ref.size());
      for (const auto& [slot, data] : ref) {
        auto got = sp.Get(slot);
        ASSERT_TRUE(got.ok()) << slot;
        EXPECT_EQ(*got, data);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlottedPageFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 77u));

class TableHeapFuzzTest
    : public ::testing::TestWithParam<std::tuple<PlacementPolicy, uint64_t>> {
};

/// The page directory as the reference model sees it: every page's stamp,
/// indexed like pages().
std::vector<uint64_t> Stamps(const TableHeap& heap) {
  std::vector<uint64_t> stamps;
  for (size_t i = 0; i < heap.pages().size(); ++i) {
    stamps.push_back(heap.page_stamp(i));
  }
  return stamps;
}

/// Asserts the directory moved exactly as one mutation should: the pages
/// in `touched` (ids) are stamped above the clock `before`, at or below the
/// clock now, and every other page that existed kept its stamp.
void ExpectStampedExactly(const TableHeap& heap,
                          const std::vector<uint64_t>& stamps_before,
                          uint64_t before, const std::set<PageId>& touched) {
  for (size_t i = 0; i < heap.pages().size(); ++i) {
    const PageId id = heap.pages()[i];
    if (touched.contains(id)) {
      EXPECT_GT(heap.page_stamp(i), before) << "page " << id;
      EXPECT_LE(heap.page_stamp(i), heap.clock()) << "page " << id;
    } else {
      ASSERT_LT(i, stamps_before.size()) << "untouched new page " << id;
      EXPECT_EQ(heap.page_stamp(i), stamps_before[i]) << "page " << id;
    }
  }
}

TEST_P(TableHeapFuzzTest, MatchesReferenceModel) {
  const auto [policy, seed] = GetParam();
  MemoryDiskManager disk;
  BufferPool pool(&disk, 16);  // small: exercises eviction
  TableHeap heap(&pool, policy, seed);
  Random rng(seed ^ 0xABCD);
  std::map<Address, std::string> ref;

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.Uniform(5));
    const std::vector<uint64_t> stamps = Stamps(heap);
    const uint64_t clock = heap.clock();
    if (op == 0 || ref.empty()) {
      std::string data(rng.Uniform(300) + 1, char('a' + rng.Uniform(26)));
      auto addr = heap.Insert(data);
      ASSERT_TRUE(addr.ok());
      EXPECT_FALSE(ref.contains(*addr)) << "address reuse while live";
      ref[*addr] = data;
      ExpectStampedExactly(heap, stamps, clock, {addr->page()});
    } else if (op == 1) {
      auto it = ref.begin();
      std::advance(it, rng.Uniform(ref.size()));
      const Address addr = it->first;
      ASSERT_TRUE(heap.Delete(addr).ok());
      ref.erase(it);
      ExpectStampedExactly(heap, stamps, clock, {addr.page()});
    } else if (op == 2) {
      auto it = ref.begin();
      std::advance(it, rng.Uniform(ref.size()));
      std::string data(rng.Uniform(300) + 1, char('A' + rng.Uniform(26)));
      Status st = heap.Update(it->first, data);
      if (st.ok()) {
        it->second = data;
        ExpectStampedExactly(heap, stamps, clock, {it->first.page()});
      } else {
        // A rejected update changes no page.
        ExpectStampedExactly(heap, stamps, clock, {});
        EXPECT_EQ(heap.clock(), clock);
      }
    } else if (op == 3) {
      // An in-place patch (the fix-up path): same bytes back, page stamped.
      auto it = ref.begin();
      std::advance(it, rng.Uniform(ref.size()));
      {
        auto ref_bytes = heap.GetMutable(it->first);
        ASSERT_TRUE(ref_bytes.ok());
        ASSERT_EQ(ref_bytes->size, it->second.size());
      }
      ExpectStampedExactly(heap, stamps, clock, {it->first.page()});
    } else {
      auto it = ref.begin();
      std::advance(it, rng.Uniform(ref.size()));
      auto got = heap.Get(it->first);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, it->second);
      // Reads change nothing.
      ExpectStampedExactly(heap, stamps, clock, {});
      EXPECT_EQ(heap.clock(), clock);
    }
  }

  // Recovery's recount leaves every page dirty: stamped above any earlier
  // clock reading.
  const uint64_t before_recount = heap.clock();
  ASSERT_TRUE(heap.RecountLive().ok());
  for (size_t i = 0; i < heap.pages().size(); ++i) {
    EXPECT_GT(heap.page_stamp(i), before_recount) << "page " << i;
  }
  // So does re-attaching the pages as a new heap, whose clock is its own.
  ASSERT_TRUE(pool.FlushAll().ok());
  auto attached = TableHeap::Attach(&pool, heap.pages(), policy, seed);
  ASSERT_TRUE(attached.ok());
  EXPECT_NE((*attached)->id(), heap.id());
  EXPECT_EQ((*attached)->live_tuples(), ref.size());
  for (size_t i = 0; i < (*attached)->pages().size(); ++i) {
    EXPECT_GT((*attached)->page_stamp(i), 0u) << "page " << i;
  }
  // Final sweep: iteration order, contents, live count.
  EXPECT_EQ(heap.live_tuples(), ref.size());
  auto it = ref.begin();
  ASSERT_TRUE(heap.ForEach([&](Address addr, std::string_view bytes) {
                    EXPECT_TRUE(it != ref.end());
                    EXPECT_EQ(addr, it->first);
                    EXPECT_EQ(bytes, it->second);
                    ++it;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_TRUE(it == ref.end());

  // Oracle: the pin-aware Cursor and the copying Iterator must agree
  // position-for-position — same addresses, same bytes, same end.
  auto cur = heap.OpenCursor();
  ASSERT_TRUE(cur.ok());
  auto iter = heap.Begin();
  ASSERT_TRUE(iter.ok());
  while (cur->Valid() && iter->Valid()) {
    EXPECT_EQ(cur->address(), iter->address());
    EXPECT_EQ(cur->tuple(), iter->tuple());
    ASSERT_TRUE(cur->Next().ok());
    ASSERT_TRUE(iter->Next().ok());
  }
  EXPECT_EQ(cur->Valid(), iter->Valid());
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, TableHeapFuzzTest,
    ::testing::Combine(::testing::Values(PlacementPolicy::kFirstFit,
                                         PlacementPolicy::kAppend,
                                         PlacementPolicy::kRandom),
                       ::testing::Values(11u, 42u)),
    [](const ::testing::TestParamInfo<
        std::tuple<PlacementPolicy, uint64_t>>& param_info) {
      std::string name =
          std::string(
              PlacementPolicyToString(std::get<0>(param_info.param))) +
          "_s" + std::to_string(std::get<1>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace snapdiff
