// Regression tests for the ISSUE 5 engine bugfix sweep:
//  * EventQueue: per-slot generation saturation (wraparound could alias a
//    stale EventId onto a live event after 2^32 slot reuses);
//  * ReplicationRunner: deterministic lowest-index error reporting and
//    stop-claiming-on-failure.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/replication.h"

namespace imrm::sim {
namespace {

// ---- EventQueue generation saturation ----------------------------------

TEST(EventQueueGeneration, SaturatedSlotIsRetiredNotRecycled) {
  EventQueue queue;
  int fired = 0;

  // Create one slot and free it, then age it to one step before saturation,
  // standing in for 2^32 - 2 schedule/cancel cycles.
  queue.cancel(queue.schedule(SimTime::seconds(1.0), [&] { ++fired; }));
  ASSERT_EQ(queue.retired_slots(), 0u);
  queue.age_free_slot_for_test(0xfffffffeu);

  // Reusing the aged slot issues an EventId with the last valid generation.
  const EventId last = queue.schedule(SimTime::seconds(1.0), [&] { ++fired; });
  EXPECT_EQ(std::uint32_t(last >> 32), 0xfffffffeu);
  queue.cancel(last);

  // Releasing it saturates the generation: the slot must be retired, so the
  // next schedule gets a FRESH slot at generation 0 rather than the old slot
  // wrapped back to generation 0.
  EXPECT_EQ(queue.retired_slots(), 1u);
  const EventId fresh = queue.schedule(SimTime::seconds(2.0), [&] { ++fired; });
  EXPECT_NE(std::uint32_t(fresh) & 0xffffffu, std::uint32_t(last) & 0xffffffu)
      << "saturated slot was recycled";
  EXPECT_EQ(std::uint32_t(fresh >> 32), 0u);

  // The regression scenario: a stale handle from the retired slot's history
  // carries (slot, generation 0) — before the fix, the wrapped slot would be
  // back at generation 0 and this cancel would kill the unrelated live
  // event occupying it.
  const EventId stale = EventId(std::uint32_t(last) & 0xffffffu);  // gen 0
  queue.cancel(stale);
  EXPECT_EQ(queue.size(), 1u) << "stale pre-wrap handle cancelled a live event";
  EXPECT_EQ(queue.pop().time, SimTime::seconds(2.0));
  EXPECT_EQ(queue.stats().cancelled, 2u);
}

TEST(EventQueueGeneration, RetiredSlotStaysOutOfTheFreeList) {
  EventQueue queue;
  queue.cancel(queue.schedule(SimTime::seconds(1.0), [] {}));
  queue.age_free_slot_for_test(0xfffffffeu);
  queue.cancel(queue.schedule(SimTime::seconds(1.0), [] {}));
  ASSERT_EQ(queue.retired_slots(), 1u);

  // Many further schedule/cancel cycles must never hand the retired slot
  // out again (its generation would alias historic EventIds).
  const std::uint32_t retired_slot = 0;  // the first slot ever allocated
  for (int i = 0; i < 1000; ++i) {
    const EventId id = queue.schedule(SimTime::seconds(1.0), [] {});
    EXPECT_NE(std::uint32_t(id) & 0xffffffu, retired_slot);
    queue.cancel(id);
  }
  EXPECT_EQ(queue.retired_slots(), 1u);
}

// ---- ReplicationRunner deterministic errors ----------------------------

TEST(ReplicationRunnerErrors, LowestFailingIndexWinsAtAnyThreadCount) {
  const std::set<std::size_t> failing = {7, 13, 41};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ReplicationRunner runner(threads);
    std::string caught;
    try {
      runner.run_indexed(64, [&](std::size_t index) {
        if (failing.count(index) != 0) {
          throw std::runtime_error("replication " + std::to_string(index));
        }
      });
      FAIL() << "run_indexed swallowed the failure at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    // The sequential answer — the lowest failing index — at every width.
    EXPECT_EQ(caught, "replication 7") << "threads=" << threads;
  }
}

TEST(ReplicationRunnerErrors, WorkersStopClaimingAfterAFailure) {
  ReplicationRunner runner(4);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      runner.run_indexed(5000,
                         [&](std::size_t index) {
                           executed.fetch_add(1, std::memory_order_relaxed);
                           if (index == 0) throw std::runtime_error("boom");
                           // Slow the survivors so the index-0 failure is
                           // recorded long before the pool could churn
                           // through the whole range; keeps the bound below
                           // robust even on a single-core host.
                           std::this_thread::sleep_for(std::chrono::microseconds(200));
                         }),
      std::runtime_error);
  // Index 0 is the first claim handed out, so its failure lands after a few
  // in-flight survivors at most. Without stop-claiming, all 5000 run.
  EXPECT_LT(executed.load(), 2500u) << "workers kept claiming after the failure";
}

TEST(ReplicationRunnerErrors, RunRethrowsBeforeResultsEscape) {
  ReplicationRunner runner(4);
  EXPECT_THROW(
      (void)runner.run(32, 1,
                       [](std::uint64_t, std::size_t index) -> int {
                         if (index == 5) throw std::runtime_error("partial");
                         return int(index);
                       }),
      std::runtime_error);
}

}  // namespace
}  // namespace imrm::sim
