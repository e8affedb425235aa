// Heap-allocation budget of the campus day.
//
// This binary replaces the global operator new/delete with a pair that
// counts every allocation, then runs one perfbench-sized campus day (the
// `campus_day` workload's shape: 30-50 attendees, 5-15 squatters, metrics
// bound to a registry) under each of the five reservation policies and
// asserts that the whole day, set-up included, stays within
// kBudgetPerEvent heap allocations per fired event. Profile windows live in
// one slab per profile, the majority vote counts in place, and the
// reservation refresh reuses its scratch (DESIGN.md "The campus-day hot
// path"); a change that reintroduces a per-event allocation on the day's
// path shows up here as a count, not as a timing wobble.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "experiments/campus_day.h"
#include "obs/metrics.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace imrm::experiments {
namespace {

constexpr double kBudgetPerEvent = 0.3;

class CampusAllocBudget : public ::testing::TestWithParam<CampusPolicy> {};

TEST_P(CampusAllocBudget, WholeDayStaysWithinBudget) {
  CampusDayConfig config;  // 40 attendees, 10 squatters: mid-range of perfbench's days
  config.policy = GetParam();
  obs::Registry registry;
  config.metrics = &registry;

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const CampusDayResult result = run_campus_day(config);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;

  const obs::Snapshot snapshot = registry.snapshot();
  const obs::CounterSample* fired = snapshot.counter("sim.events_fired");
  ASSERT_NE(fired, nullptr);
  ASSERT_GT(fired->value, 0u);
  ASSERT_GT(result.handoffs, 0u);
  const double per_event = double(allocations) / double(fired->value);
  std::printf("%s day: %llu heap allocations over %llu fired events (%.3f per event)\n",
              result.policy.c_str(), static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(fired->value), per_event);
  EXPECT_LE(per_event, kBudgetPerEvent)
      << allocations << " heap allocations over " << fired->value << " events ("
      << per_event << " per event, budget " << kBudgetPerEvent << ")";
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CampusAllocBudget,
                         ::testing::Values(CampusPolicy::kNone, CampusPolicy::kStatic,
                                           CampusPolicy::kBruteForce,
                                           CampusPolicy::kAggregate,
                                           CampusPolicy::kDispatcher),
                         [](const ::testing::TestParamInfo<CampusPolicy>& info) {
                           switch (info.param) {
                             case CampusPolicy::kNone: return "none";
                             case CampusPolicy::kStatic: return "static";
                             case CampusPolicy::kBruteForce: return "brute_force";
                             case CampusPolicy::kAggregate: return "aggregate";
                             case CampusPolicy::kDispatcher: return "dispatcher";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace imrm::experiments
