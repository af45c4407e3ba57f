// Allocation accounting for the zero-copy scan pipeline. A global
// operator new interposer counts every heap allocation in the process;
// the tests sample the counter around scan loops to prove the steady-state
// differential scan (pinned cursor -> TupleView -> predicate -> projection
// serialization) performs zero heap allocations per row.
//
// This file must stay its own test binary: the interposer replaces the
// global allocation functions for the whole process.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "expr/parser.h"
#include "snapshot/snapshot_manager.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::aligned_alloc(static_cast<std::size_t>(align), size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace snapdiff {
namespace {

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

Tuple Row(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary)});
}

/// Builds a system with `rows` base rows and a differential snapshot that
/// has been refreshed into steady state (annotations repaired, snapshot
/// caught up, pool warm).
void BuildSteadyState(SnapshotSystem* sys, int rows) {
  auto base = sys->CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(
        (*base)->Insert(Row("emp-" + std::to_string(i), i % 1000)).ok());
  }
  ASSERT_TRUE(sys->CreateSnapshot("low", "emp", "Salary < 500").ok());
  // First refresh repairs all annotations and populates the snapshot;
  // second settles any lazily grown executor/metrics state.
  ASSERT_TRUE(sys->Refresh(RefreshRequest::For("low")).ok());
  ASSERT_TRUE(sys->Refresh(RefreshRequest::For("low")).ok());
}

TEST(ScanAllocTest, SteadyStateScanLoopIsAllocationFree) {
  SnapshotSystem sys;
  BuildSteadyState(&sys, 2000);
  auto base = sys.GetBaseTable("emp");
  ASSERT_TRUE(base.ok());

  auto restriction = ParsePredicate("Salary < 500");
  ASSERT_TRUE(restriction.ok());
  // Bound once, as every refresh executor binds: the scan below evaluates
  // by column index.
  auto bound = (*restriction)->Bind((*base)->user_schema());
  ASSERT_TRUE(bound.ok());
  std::vector<size_t> projection_indices = {0, 1};
  std::string payload;
  payload.reserve(256);

  // Warm-up pass (touches every page once; pool is large enough to hold
  // the whole table, so the measured pass below is all buffer-pool hits).
  uint64_t qualified_warm = 0;
  ASSERT_TRUE(
      (*base)
          ->ScanAnnotated([&](Address,
                              const BaseTable::AnnotatedView& row) -> Status {
            ASSIGN_OR_RETURN(bool q, bound->Qualifies(row.user));
            if (q) {
              payload.clear();
              RETURN_IF_ERROR(
                  row.user.AppendProjectionTo(projection_indices, &payload));
              ++qualified_warm;
            }
            return Status::OK();
          })
          .ok());
  ASSERT_EQ(qualified_warm, 1000u);

  // Measured pass: the full per-row hot path — pin-aware cursor, view
  // split, predicate evaluation, projection serialization — heap-silent.
  uint64_t qualified = 0;
  const uint64_t before = g_allocations.load();
  Status scan =
      (*base)->ScanAnnotated(
          [&](Address, const BaseTable::AnnotatedView& row) -> Status {
            ASSIGN_OR_RETURN(bool q, bound->Qualifies(row.user));
            if (q) {
              payload.clear();
              RETURN_IF_ERROR(
                  row.user.AppendProjectionTo(projection_indices, &payload));
              ++qualified;
            }
            return Status::OK();
          });
  const uint64_t after = g_allocations.load();

  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(qualified, 1000u);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in a steady-state scan of "
      << "2000 rows — the hot path must not allocate";
}

TEST(ScanAllocTest, RefreshAllocationsAreIndependentOfTableSize) {
  // End-to-end through the real executor: a quiescent differential refresh
  // allocates a fixed amount (session + control message + trace), so the
  // count must not change when the table is 4x larger.
  SnapshotSystem small_sys;
  BuildSteadyState(&small_sys, 500);
  SnapshotSystem big_sys;
  BuildSteadyState(&big_sys, 2000);

  const uint64_t small_before = g_allocations.load();
  auto small_report = small_sys.Refresh(RefreshRequest::For("low"));
  const uint64_t small_allocs = g_allocations.load() - small_before;
  ASSERT_TRUE(small_report.ok());
  EXPECT_EQ(small_report->stats.entries_scanned, 500u);
  EXPECT_EQ(small_report->stats.data_messages(), 0u);

  const uint64_t big_before = g_allocations.load();
  auto big_report = big_sys.Refresh(RefreshRequest::For("low"));
  const uint64_t big_allocs = g_allocations.load() - big_before;
  ASSERT_TRUE(big_report.ok());
  EXPECT_EQ(big_report->stats.entries_scanned, 2000u);
  EXPECT_EQ(big_report->stats.data_messages(), 0u);

  EXPECT_EQ(small_allocs, big_allocs)
      << "refresh allocations scale with table size: " << small_allocs
      << " for 500 rows vs " << big_allocs << " for 2000 rows";
}

}  // namespace
}  // namespace snapdiff
