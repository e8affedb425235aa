// Unit tests for the discrete-event engine: ordering, cancellation,
// periodic events, deterministic randomness.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/event_queue.h"
#include "sim/flat_map.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace imrm::sim {
namespace {

TEST(SimTime, UnitConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(SimTime::minutes(10).to_seconds(), 600.0);
  EXPECT_DOUBLE_EQ(SimTime::hours(2).to_minutes(), 120.0);
  EXPECT_DOUBLE_EQ(SimTime::millis(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::seconds(90).to_minutes(), 1.5);
}

TEST(SimTime, ComparisonAndArithmetic) {
  const SimTime a = SimTime::seconds(1);
  const SimTime b = SimTime::seconds(2);
  EXPECT_LT(a, b);
  EXPECT_EQ(a + a, b);
  EXPECT_EQ(b - a, a);
  EXPECT_LT(a, SimTime::infinity());
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::seconds(3), [&] { order.push_back(3); });
  q.schedule(SimTime::seconds(1), [&] { order.push_back(1); });
  q.schedule(SimTime::seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::seconds(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(SimTime::seconds(1), [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), SimTime::infinity());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  const EventId id = q.schedule(SimTime::seconds(1), [] {});
  q.pop().callback();
  q.cancel(id);  // must not crash or corrupt
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(SimTime::seconds(1), [] {});
  q.schedule(SimTime::seconds(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time().to_seconds(), 2.0);
}

TEST(EventQueue, CancelTwiceIsNoOp) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(SimTime::seconds(1), [&] { fired = true; });
  q.schedule(SimTime::seconds(2), [] {});
  q.cancel(id);
  q.cancel(id);  // second cancel must not touch any other event
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time().to_seconds(), 2.0);
  EXPECT_FALSE(fired);
}

TEST(EventQueue, StaleHandleCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId stale = q.schedule(SimTime::seconds(1), [] {});
  q.pop().callback();  // fires; the slot returns to the free-list
  bool fired = false;
  // The next schedule recycles the slot; the stale handle must not reach it.
  q.schedule(SimTime::seconds(2), [&] { fired = true; });
  q.cancel(stale);
  ASSERT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, EqualTimesFifoSurvivesInterleavedCancellations) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.schedule(SimTime::seconds(1), [&order, i] { order.push_back(i); }));
  }
  // Cancel every third event; the survivors must still fire in FIFO order.
  for (int i = 0; i < 64; i += 3) q.cancel(ids[std::size_t(i)]);
  while (!q.empty()) q.pop().callback();
  std::vector<int> expected;
  for (int i = 0; i < 64; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, MatchesReferenceModelUnderRandomChurn) {
  // Differential test of the indexed 4-ary heap against a sorted reference.
  EventQueue q;
  std::map<std::tuple<double, std::uint64_t>, int> reference;
  std::vector<std::pair<EventId, std::tuple<double, std::uint64_t>>> live;
  std::vector<int> fired;
  std::uint64_t seq = 0;
  Rng rng(2024);
  int tag = 0;
  for (int step = 0; step < 5000; ++step) {
    const double action = rng.uniform();
    if (action < 0.5 || q.empty()) {
      const double at = double(rng.uniform_int(0, 50));
      const int t = tag++;
      const EventId id = q.schedule(SimTime::seconds(at), [&fired, t] { fired.push_back(t); });
      reference[{at, seq}] = t;
      live.emplace_back(id, std::tuple<double, std::uint64_t>{at, seq});
      ++seq;
    } else if (action < 0.75 && !live.empty()) {
      const std::size_t victim = std::size_t(rng.uniform_int(0, int(live.size()) - 1));
      q.cancel(live[victim].first);
      reference.erase(live[victim].second);
      live.erase(live.begin() + long(victim));
    } else {
      ASSERT_FALSE(reference.empty());
      const auto expected = reference.begin();
      auto [time, callback] = q.pop();
      EXPECT_DOUBLE_EQ(time.to_seconds(), std::get<0>(expected->first));
      callback();
      ASSERT_FALSE(fired.empty());
      EXPECT_EQ(fired.back(), expected->second);
      std::erase_if(live, [&](const auto& e) { return e.second == expected->first; });
      reference.erase(expected);
    }
    ASSERT_EQ(q.size(), reference.size());
  }
}

TEST(EventQueue, SlotStorageBoundedOverLongRuns) {
  // Regression for the lazy-deletion design whose callbacks_/cancelled_
  // vectors grew by one entry per scheduled event forever: a million events
  // through a queue with bounded pendings must not grow slot storage beyond
  // the peak pending count.
  EventQueue q;
  constexpr int kTotal = 1'000'000;
  constexpr std::size_t kMaxPending = 64;
  int fired = 0;
  double now = 0.0;
  for (int i = 0; i < kTotal; ++i) {
    q.schedule(SimTime::seconds(now + 1.0 + double(i % 7)), [&fired] { ++fired; });
    if (q.size() >= kMaxPending) {
      auto event = q.pop();
      now = event.time.to_seconds();
      event.callback();
    }
  }
  while (!q.empty()) {
    auto event = q.pop();
    event.callback();
  }
  EXPECT_EQ(fired, kTotal);
  EXPECT_LE(q.slot_capacity(), kMaxPending);
  // Each live bucket holds at least one pending event and closed buckets
  // are recycled, so bucket storage is bounded the same way.
  EXPECT_LE(q.bucket_capacity(), kMaxPending);
}

// Differential harness for the time-bucketed queue: every schedule goes
// through add() so the queue and a std::map<(time, seq)> reference see the
// same sequence numbers, including schedules made from inside a callback.
class BucketOracle {
 public:
  void add(double at) {
    const int tag = next_tag_++;
    const EventId id = q_.schedule(SimTime::seconds(at), [this, tag, at] { on_fire(tag, at); });
    reference_[{at, seq_++}] = {tag, id};
  }

  // Pops one event and checks it is the reference's earliest.
  void pop_and_check() {
    ASSERT_FALSE(reference_.empty());
    const auto expected = reference_.begin();
    const int expected_tag = expected->second.first;
    const double expected_time = std::get<0>(expected->first);
    reference_.erase(expected);
    auto [time, callback] = q_.pop();
    ASSERT_DOUBLE_EQ(time.to_seconds(), expected_time);
    callback();
    ASSERT_FALSE(fired_.empty());
    ASSERT_EQ(fired_.back(), expected_tag);
  }

  // Cancels the event at `position` (0 = first, 1 = last, 2 = middle) among
  // those pending at the instant of the `pick`-th pending event. Returns the
  // case it exercised: 0 head, 1 tail, 2 middle, 3 the instant's only event.
  int cancel_at_instant(std::size_t pick, int position) {
    auto it = reference_.begin();
    std::advance(it, long(pick % reference_.size()));
    const double at = std::get<0>(it->first);
    std::vector<std::tuple<double, std::uint64_t>> same;
    for (auto e = reference_.lower_bound({at, 0}); e != reference_.end() && std::get<0>(e->first) == at;
         ++e) {
      same.push_back(e->first);
    }
    int exercised = position;
    std::size_t victim = 0;
    if (same.size() == 1) {
      exercised = 3;
    } else if (position == 1) {
      victim = same.size() - 1;
    } else if (position == 2) {
      if (same.size() < 3) return -1;
      victim = same.size() / 2;
    }
    q_.cancel(reference_.at(same[victim]).second);
    reference_.erase(same[victim]);
    return exercised;
  }

  void check_sizes() const {
    ASSERT_EQ(q_.size(), reference_.size());
    ASSERT_EQ(q_.empty(), reference_.empty());
    if (reference_.empty()) {
      ASSERT_TRUE(q_.next_time() == SimTime::infinity());
    } else {
      ASSERT_DOUBLE_EQ(q_.next_time().to_seconds(), std::get<0>(reference_.begin()->first));
    }
  }

  EventQueue& queue() { return q_; }
  [[nodiscard]] double now() const { return last_time_; }
  [[nodiscard]] std::size_t pending() const { return reference_.size(); }

 private:
  void on_fire(int tag, double at) {
    fired_.push_back(tag);
    last_time_ = at;
    // Every fifth event chains one at the instant being drained, as the
    // grid's exchange does: it appends to the bucket the pop just took its
    // head from.
    if (tag % 5 == 0) add(at);
  }

  EventQueue q_;
  // (time, seq) -> (tag, handle) of every pending event.
  std::map<std::tuple<double, std::uint64_t>, std::pair<int, EventId>> reference_;
  std::vector<int> fired_;
  std::uint64_t seq_ = 0;
  int next_tag_ = 0;
  double last_time_ = 0.0;
};

TEST(EventQueue, BucketsMatchReferenceUnderSameInstantChurn) {
  // Distinct pending instants: 2-4 (heavy same-time churn, every pop but a
  // bucket's last leaves the heap alone) and 24 (more instants than the
  // open-bucket table has entries, so same-time buckets coexist).
  for (const int instants : {2, 3, 4, 24}) {
    SCOPED_TRACE(instants);
    BucketOracle oracle;
    Rng rng(std::uint64_t(700 + instants));
    std::set<int> cancel_cases;
    for (int step = 0; step < 20000; ++step) {
      const double action = rng.uniform();
      if (action < 0.5 || oracle.pending() == 0) {
        // Sliding window of tick-aligned instants starting at the current
        // time: k = 0 lands on the instant being drained.
        const int k = rng.uniform_int(0, instants - 1);
        oracle.add(oracle.now() + 0.25 * double(k));
      } else if (action < 0.7) {
        const int exercised = oracle.cancel_at_instant(
            std::size_t(rng.uniform_int(0, 1 << 20)), rng.uniform_int(0, 2));
        if (exercised >= 0) cancel_cases.insert(exercised);
      } else {
        ASSERT_NO_FATAL_FAILURE(oracle.pop_and_check());
      }
      ASSERT_NO_FATAL_FAILURE(oracle.check_sizes());
    }
    while (oracle.pending() > 0) {
      ASSERT_NO_FATAL_FAILURE(oracle.pop_and_check());
      ASSERT_NO_FATAL_FAILURE(oracle.check_sizes());
    }
    // Head, tail, middle and only-event cancels were all exercised.
    EXPECT_EQ(cancel_cases, (std::set<int>{0, 1, 2, 3}));
    EXPECT_LE(oracle.queue().bucket_capacity(), oracle.queue().slot_capacity());
  }
}

TEST(EventQueue, EqualTimesFifoAcrossCoexistingBuckets) {
  // Evict the open-table entry of t = 1 with many other instants, then
  // schedule at t = 1 again: the second event opens a second bucket for the
  // same instant, and the pair must still fire in FIFO order.
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::seconds(1), [&order] { order.push_back(0); });
  constexpr int kOthers = 64;
  for (int i = 0; i < kOthers; ++i) {
    q.schedule(SimTime::seconds(2.0 + 0.125 * i), [] {});
  }
  q.schedule(SimTime::seconds(1), [&order] { order.push_back(1); });
  q.schedule(SimTime::seconds(1), [&order] { order.push_back(2); });
  EXPECT_EQ(q.bucket_capacity(), std::size_t(kOthers + 2));
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelReleasesCapturedState) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const EventId id = q.schedule(SimTime::seconds(1), [held = std::move(token)] { (void)held; });
  EXPECT_FALSE(watch.expired());
  q.cancel(id);
  EXPECT_TRUE(watch.expired());  // capture destroyed eagerly on cancel
}

TEST(EventQueue, HoldsMoveOnlyCaptures) {
  // std::function rejects move-only captures; the SBO callback must not.
  EventQueue q;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  q.schedule(SimTime::seconds(1),
             [p = std::move(payload), &seen]() mutable { seen = *p + 1; });
  q.pop().callback();
  EXPECT_EQ(seen, 42);
}

TEST(FlatMap, InsertFindEraseChurn) {
  sim::FlatMap<std::uint64_t, int> map;
  std::map<std::uint64_t, int> reference;
  Rng rng(11);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = std::uint64_t(rng.uniform_int(0, 300));
    const double action = rng.uniform();
    if (action < 0.5) {
      map[key] = step;
      reference[key] = step;
    } else if (action < 0.8) {
      EXPECT_EQ(map.erase(key), reference.erase(key) == 1);
    } else {
      const int* found = map.find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end());
      if (found) {
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t key, int value) {
    ++visited;
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(it->second, value);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlatMap, ClearOnAFreshMapIsANoOp) {
  sim::FlatMap<std::uint32_t, double> map;
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.memory_bytes(), 0u);
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_TRUE(map.insert(7, 1.5));
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 1.5);
}

TEST(FlatMap, ClearAfterErasingEverythingLeavesNoStaleEntry) {
  // Backward-shift deletion leaves no tombstones, so a map emptied by
  // erase() is as clean as a cleared one and clear() may skip it.
  sim::FlatMap<std::uint32_t, double> map;
  for (std::uint32_t k = 0; k < 100; ++k) map[k] = double(k);
  const std::size_t bytes = map.memory_bytes();
  for (std::uint32_t k = 0; k < 100; ++k) EXPECT_TRUE(map.erase(k));
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.memory_bytes(), bytes);
  std::size_t visited = 0;
  map.for_each([&visited](std::uint32_t, double) { ++visited; });
  EXPECT_EQ(visited, 0u);
  for (std::uint32_t k = 0; k < 100; ++k) EXPECT_EQ(map.find(k), nullptr) << k;
}

TEST(FlatMap, InsertAfterClearSeesOnlyNewEntries) {
  sim::FlatMap<std::uint32_t, double> map;
  for (std::uint32_t k = 0; k < 40; ++k) map[k] = double(k);
  const std::size_t bytes = map.memory_bytes();
  map.clear();
  EXPECT_EQ(map.memory_bytes(), bytes);  // capacity kept
  for (std::uint32_t k = 20; k < 60; ++k) EXPECT_TRUE(map.insert(k, -double(k)));
  EXPECT_EQ(map.size(), 40u);
  for (std::uint32_t k = 0; k < 60; ++k) {
    const double* found = map.find(k);
    if (k < 20) {
      EXPECT_EQ(found, nullptr) << k;
    } else {
      ASSERT_NE(found, nullptr) << k;
      EXPECT_EQ(*found, -double(k));
    }
  }
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = SimTime::zero();
  sim.at(SimTime::seconds(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen.to_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 5.0);
}

TEST(Simulator, RunUntilHonorsHorizon) {
  Simulator sim;
  int fired = 0;
  sim.at(SimTime::seconds(1), [&] { ++fired; });
  sim.at(SimTime::seconds(10), [&] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime::seconds(5)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 5.0);  // clock advances to horizon
  EXPECT_EQ(sim.run_until(SimTime::seconds(20)), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.at(SimTime::seconds(1), [&] {
    times.push_back(sim.now().to_seconds());
    sim.after(Duration::seconds(2), [&] { times.push_back(sim.now().to_seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Simulator, EveryRepeatsUntilHorizon) {
  Simulator sim;
  int ticks = 0;
  sim.every(Duration::seconds(1), SimTime::seconds(5.5), [&] { ++ticks; });
  sim.run();
  EXPECT_EQ(ticks, 5);  // t = 1..5
}

TEST(Simulator, EveryReleasesItsBodyAfterTheLastFiring) {
  // Each firing moves the repeater into its next slot: the body must stay
  // alive across firings and be released once the horizon stops the chain.
  Simulator sim;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  std::vector<double> times;
  sim.every(Duration::seconds(1), SimTime::seconds(3),
            [&sim, &times, held = std::move(token)] {
              ++*held;
              times.push_back(sim.now().to_seconds());
            });
  // Same-instant neighbours share the repeater's buckets.
  for (int t = 1; t <= 3; ++t) sim.at(SimTime::seconds(t), [] {});
  sim.run_until(SimTime::seconds(2));
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(*watch.lock(), 2);
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, EveryRejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(sim.every(Duration::zero(), SimTime::seconds(1), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.every(Duration::seconds(-1), SimTime::seconds(1), [] {}),
               std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, AtRejectsThePast) {
  Simulator sim;
  sim.run_until(SimTime::seconds(5));
  EXPECT_THROW(sim.at(SimTime::seconds(4), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.after(Duration::seconds(-1), [] {}), std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.at(SimTime::seconds(5), [] {});  // now() itself is allowed
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 5.0);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.at(SimTime::seconds(1), [&] { ++fired; });
  sim.at(SimTime::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // The fork must not replay the parent's sequence.
  Rng reference(42);
  (void)reference.engine()();  // fork consumed one draw
  bool all_equal = true;
  for (int i = 0; i < 50; ++i) {
    if (child.uniform() != reference.uniform()) all_equal = false;
  }
  // Not asserting exact relationship — only that child is a valid stream
  // distinct from a fresh seed-42 stream's first draws.
  Rng fresh(42);
  bool same_as_fresh = true;
  Rng child2 = Rng(42).fork();
  for (int i = 0; i < 50; ++i) {
    if (child2.uniform() != fresh.uniform()) same_as_fresh = false;
  }
  EXPECT_FALSE(same_as_fresh);
  (void)all_equal;
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_mean(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialRateMatches) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_rate(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(99);
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(weights)];
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / double(n), 0.6, 0.015);
}

TEST(Rng, DiscreteAllZeroWeightsFallsBackToFirst) {
  Rng rng(1);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_EQ(rng.discrete(weights), 0u);
}

TEST(Rng, TruncatedNormalStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.truncated_normal(0.0, 10.0, -1.0, 1.0);
    EXPECT_GE(x, -1.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(2, 4);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 4);
    saw_lo |= v == 2;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace imrm::sim
