// ShardedRunner: conservative-window correctness and worker-count
// invariance at the engine level (the campus-level suite is
// sharded_scale_test.cc).
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/profiler.h"
#include "sim/sharded_runner.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace imrm::sim {
namespace {

TEST(ShardedRunner, RejectsZeroDomains) {
  ShardedRunner::Config config{/*domains=*/0, /*workers=*/1,
                               /*window=*/Duration::millis(10)};
  EXPECT_THROW(ShardedRunner{config}, std::invalid_argument);
}

TEST(ShardedRunner, RejectsNonPositiveWindow) {
  for (const Duration window : {Duration::zero(), Duration::millis(-1)}) {
    ShardedRunner::Config config{/*domains=*/2, /*workers=*/2, window};
    EXPECT_THROW(ShardedRunner{config}, std::invalid_argument);
  }
}

struct TestRow {
  std::uint32_t value = 0;
};

TEST(ShardedRunner, RejectsOutOfRangeDomain) {
  ShardedRunner runner(ShardedRunner::Config{2, 1, Duration::millis(5)});
  int delivered = 0;
  runner.set_row_handler<TestRow>([&](std::size_t, const TestRow&) { ++delivered; });
  const Duration latency = Duration::millis(5);
  EXPECT_THROW(runner.post_row(0, 2, latency, TestRow{}), std::invalid_argument);
  EXPECT_THROW(runner.post_row(2, 0, latency, TestRow{}), std::invalid_argument);
  EXPECT_THROW(runner.post_row(5, 1, latency, TestRow{}), std::invalid_argument);
  runner.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(runner.stats().boundary_messages, 0u);
}

TEST(ShardedRunner, PostRowRejectsLatencyBelowTheWindowAndUnregisteredRows) {
  ShardedRunner runner(ShardedRunner::Config{2, 1, Duration::millis(5)});
  EXPECT_THROW(runner.post_row(0, 1, Duration::millis(5), TestRow{}), std::logic_error)
      << "no handler registered yet";
  std::vector<std::uint32_t> got;
  runner.set_row_handler<TestRow>(
      [&](std::size_t, const TestRow& row) { got.push_back(row.value); });
  EXPECT_THROW(runner.post_row(0, 1, Duration::millis(4), TestRow{1}),
               std::invalid_argument);
  EXPECT_THROW(runner.post_row(0, 1, Duration::millis(5), 1.0), std::logic_error);
  runner.post_row(0, 1, Duration::millis(5), TestRow{2});  // == window: fine
  runner.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(got, std::vector<std::uint32_t>{2});
  EXPECT_EQ(runner.stats().boundary_messages, 1u);
}

// Rows from several sources that reach one domain at one instant share one
// queue event there, and run in (source domain, posting order).
TEST(ShardedRunner, RowsAtOneInstantShareOneDrain) {
  ShardedRunner runner(ShardedRunner::Config{4, 1, Duration::millis(1)});
  std::vector<std::uint32_t> got;
  runner.set_row_handler<TestRow>([&](std::size_t to, const TestRow& row) {
    EXPECT_EQ(to, 0u);
    EXPECT_EQ(runner.domain(0).now(), SimTime::millis(2));
    got.push_back(row.value);
  });
  for (std::size_t src = 3; src >= 1; --src) {
    runner.domain(src).at(SimTime::millis(1), [&runner, src] {
      runner.post_row(src, 0, Duration::millis(1), TestRow{std::uint32_t(10 * src)});
      runner.post_row(src, 0, Duration::millis(1), TestRow{std::uint32_t(10 * src + 1)});
    });
  }
  runner.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(got, (std::vector<std::uint32_t>{10, 11, 20, 21, 30, 31}));
  EXPECT_EQ(runner.stats().boundary_messages, 6u);
  EXPECT_EQ(runner.stats().row_drains, 1u);
  EXPECT_EQ(runner.domain(0).events_fired(), 1u);
}

TEST(ShardedRunner, DeliversCrossDomainMessagesAtTheRequestedTime) {
  ShardedRunner::Config config{/*domains=*/2, /*workers=*/1,
                               /*window=*/Duration::millis(10)};
  ShardedRunner runner(config);
  std::vector<double> delivered_at;
  runner.set_row_handler<TestRow>([&](std::size_t to, const TestRow&) {
    delivered_at.push_back(runner.domain(to).now().to_millis());
  });
  runner.domain(0).at(SimTime::millis(3), [&] {
    runner.post_row(0, 1, Duration::millis(10), TestRow{});
  });
  runner.run_until(SimTime::seconds(1.0));
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_DOUBLE_EQ(delivered_at[0], 13.0);
}

// latency == window lands a message exactly on the window end. run_until
// fires events *at* its horizon, so the destination has already run its own
// events for that instant (including ones they chained at zero delay); the
// message runs after them at the same time, never earlier, and
// same-instant messages run in exchange order: source domain, then posting
// order.
TEST(ShardedRunner, MessageAtTheWindowEndRunsAfterThatInstantsLocalEvents) {
  for (const std::size_t workers : {std::size_t(1), std::size_t(2)}) {
    ShardedRunner::Config config{/*domains=*/3, workers, /*window=*/Duration::millis(10)};
    ShardedRunner runner(config);
    std::vector<std::string> order;
    std::vector<double> at_ms;
    const auto record = [&](const char* what) {
      order.emplace_back(what);
      at_ms.push_back(runner.domain(1).now().to_millis());
    };
    const char* const messages[] = {"from-0a", "from-0b", "from-2"};
    runner.set_row_handler<TestRow>(
        [&](std::size_t, const TestRow& row) { record(messages[row.value]); });
    runner.domain(1).at(SimTime::millis(10), [&] {
      record("local");
      runner.domain(1).after(Duration::zero(), [&] { record("local-chained"); });
    });
    runner.domain(2).at(SimTime::zero(), [&] {
      runner.post_row(2, 1, Duration::millis(10), TestRow{2});
    });
    runner.domain(0).at(SimTime::zero(), [&] {
      runner.post_row(0, 1, Duration::millis(10), TestRow{0});
      runner.post_row(0, 1, Duration::millis(10), TestRow{1});
    });
    runner.run_until(SimTime::seconds(1.0));
    EXPECT_EQ(order, (std::vector<std::string>{"local", "local-chained", "from-0a",
                                               "from-0b", "from-2"}))
        << "workers " << workers;
    ASSERT_EQ(at_ms.size(), 5u);
    for (const double t : at_ms) EXPECT_EQ(t, 10.0) << "workers " << workers;
    EXPECT_EQ(runner.stats().boundary_messages, 3u);
  }
}

TEST(ShardedRunner, SetupTimePostsAreDeliveredBeforeTheFirstWindow) {
  ShardedRunner::Config config{2, 1, Duration::millis(5)};
  ShardedRunner runner(config);
  bool delivered = false;
  runner.set_row_handler<TestRow>([&](std::size_t, const TestRow&) { delivered = true; });
  runner.post_row(0, 1, Duration::millis(5), TestRow{});
  runner.run_until(SimTime::seconds(1.0));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(runner.stats().boundary_messages, 1u);
}

TEST(ShardedRunner, PostRunsOnTheDestinationDomainOnly) {
  ShardedRunner::Config config{3, 1, Duration::millis(1)};
  ShardedRunner runner(config);
  int hits = 0;
  runner.set_row_handler<TestRow>([&](std::size_t to, const TestRow&) {
    ++hits;
    EXPECT_EQ(to, 2u);
    EXPECT_EQ(runner.domain(2).now(), SimTime::millis(2));
  });
  runner.domain(0).at(SimTime::millis(1), [&] {
    runner.post_row(0, 2, Duration::millis(1), TestRow{});
  });
  runner.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(runner.domain(1).events_fired(), 0u);
  EXPECT_EQ(runner.domain(2).events_fired(), 1u);
  EXPECT_EQ(runner.stats().boundary_messages, 1u);
}

// Ping-pong between two domains: each delivery re-posts to the other side.
// Checks multi-round exchange, event accounting, and window counting.
TEST(ShardedRunner, PingPongAcrossWindows) {
  ShardedRunner::Config config{2, 2, Duration::millis(1)};
  ShardedRunner runner(config);
  int bounces = 0;
  runner.set_row_handler<TestRow>([&](std::size_t at, const TestRow&) {
    if (++bounces >= 20) return;
    runner.post_row(at, 1 - at, Duration::millis(1), TestRow{});
  });
  runner.post_row(0, 1, Duration::millis(1), TestRow{});
  const std::uint64_t fired = runner.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(bounces, 20);
  EXPECT_EQ(fired, 20u);
  EXPECT_EQ(runner.stats().boundary_messages, 20u);
  EXPECT_GE(runner.stats().windows, 20u);
}

// The determinism contract: a mesh of domains that exchange messages with
// equal delivery times must produce an identical global event order for any
// worker count, and batch size, pinned or adaptive, is an execution knob
// only. Each domain appends (source, time, hop) to its own log; the
// concatenated logs, window counts and boundary-message counts are compared
// across (workers, batch) pairs.
struct MeshOutcome {
  std::vector<std::string> log;
  std::uint64_t windows = 0;
  std::uint64_t boundary = 0;
};

// Each delivery fans out again until a row has made `hops` hops.
MeshOutcome run_mesh(std::size_t domains, std::size_t workers, std::size_t batch,
                     std::uint32_t hops) {
  ShardedRunner::Config config{domains, workers, Duration::millis(2), batch};
  ShardedRunner runner(config);
  std::vector<std::vector<std::string>> logs(domains);
  // A row carries its source and hop as source * 100 + hop.
  runner.set_row_handler<TestRow>([&](std::size_t at, const TestRow& row) {
    const std::uint32_t from = row.value / 100;
    const std::uint32_t hop = row.value % 100;
    logs[at].push_back(std::to_string(from) + ">" + std::to_string(at) + "@" +
                       std::to_string(runner.domain(at).now().to_millis()) + "#" +
                       std::to_string(hop));
    if (hop >= hops) return;
    // Fan out to every other domain with IDENTICAL delivery times —
    // worst case for tie-breaking.
    for (std::size_t to = 0; to < domains; ++to) {
      if (to == at) continue;
      runner.post_row(at, to, Duration::millis(2),
                      TestRow{std::uint32_t(at * 100 + hop + 1)});
    }
  });
  for (std::size_t d = 0; d < domains; ++d) {
    runner.post_row(d, (d + 1) % domains, Duration::millis(2),
                    TestRow{std::uint32_t(d * 100)});
  }
  runner.run_until(SimTime::millis(14.5));
  MeshOutcome out;
  for (const auto& log : logs) {
    out.log.insert(out.log.end(), log.begin(), log.end());
  }
  out.windows = runner.stats().windows;
  out.boundary = runner.stats().boundary_messages;
  return out;
}

// Worker counts that do not divide the domain count, and one above it (the
// runner clamps it), at the default batch size.
TEST(ShardedRunner, ExecutionIsInvariantAcrossWorkerCounts) {
  const MeshOutcome base = run_mesh(7, 1, 0, 4);
  ASSERT_FALSE(base.log.empty());
  for (const std::size_t workers : {std::size_t(2), std::size_t(3), std::size_t(4),
                                    std::size_t(7), std::size_t(16)}) {
    const MeshOutcome got = run_mesh(7, workers, 0, 4);
    EXPECT_EQ(got.log, base.log) << "workers=" << workers;
    EXPECT_EQ(got.windows, base.windows) << "workers=" << workers;
    EXPECT_EQ(got.boundary, base.boundary) << "workers=" << workers;
  }
}

TEST(ShardedRunner, ExecutionIsInvariantAcrossBatchSizes) {
  const MeshOutcome base = run_mesh(5, 1, 1, 6);
  ASSERT_FALSE(base.log.empty());
  for (const std::size_t workers :
       {std::size_t(1), std::size_t(2), std::size_t(4), std::size_t(8)}) {
    for (const std::size_t batch : {std::size_t(1), std::size_t(3),
                                    std::size_t(64), std::size_t(0)}) {
      const MeshOutcome got = run_mesh(5, workers, batch, 6);
      EXPECT_EQ(got.log, base.log) << "workers=" << workers << " batch=" << batch;
      EXPECT_EQ(got.windows, base.windows)
          << "workers=" << workers << " batch=" << batch;
      EXPECT_EQ(got.boundary, base.boundary)
          << "workers=" << workers << " batch=" << batch;
    }
  }
}

// The ISSUE 10 point: bursts collapse coordinator dispatches. A sustained
// one-event-per-window ping-pong is the BENCH_7 pathology in miniature —
// batch=1 pays one dispatch per window, batch=64 one per 64, and the
// adaptive controller must land well under the unbatched count too.
TEST(ShardedRunner, BatchingCollapsesCoordinatorDispatches) {
  const auto run = [](std::size_t batch) {
    ShardedRunner::Config config{2, 2, Duration::millis(1), batch};
    ShardedRunner runner(config);
    int bounces = 0;
    runner.set_row_handler<TestRow>([&](std::size_t at, const TestRow&) {
      if (++bounces >= 400) return;
      runner.post_row(at, 1 - at, Duration::millis(1), TestRow{});
    });
    runner.post_row(0, 1, Duration::millis(1), TestRow{});
    runner.run_until(SimTime::seconds(1.0));
    EXPECT_EQ(bounces, 400);
    return runner.stats();
  };

  const ShardedRunner::Stats unbatched = run(1);
  const ShardedRunner::Stats batched = run(64);
  const ShardedRunner::Stats adaptive = run(0);
  // batch=1 is the ISSUE 5 regime: every window is its own dispatch.
  EXPECT_EQ(unbatched.dispatches, unbatched.windows);
  EXPECT_GE(unbatched.windows, 400u);
  // Same simulation, same windows — an order of magnitude fewer barriers.
  EXPECT_EQ(batched.windows, unbatched.windows);
  EXPECT_LE(batched.dispatches * 10, unbatched.dispatches);
  EXPECT_EQ(adaptive.windows, unbatched.windows);
  EXPECT_LT(adaptive.dispatches, unbatched.dispatches);
}

TEST(ShardedRunner, RepeatedRunUntilCarriesLeftoverMessages) {
  ShardedRunner::Config config{2, 1, Duration::millis(10)};
  ShardedRunner runner(config);
  bool delivered = false;
  runner.set_row_handler<TestRow>([&](std::size_t, const TestRow&) { delivered = true; });
  runner.domain(0).at(SimTime::millis(95), [&] {
    runner.post_row(0, 1, Duration::millis(10), TestRow{});
  });
  runner.run_until(SimTime::millis(100));
  EXPECT_FALSE(delivered) << "delivery at 105ms must not fire by 100ms";
  runner.run_until(SimTime::millis(200));
  EXPECT_TRUE(delivered);
}

TEST(ShardedRunner, IdleDomainsSkipAheadCheaply) {
  // Two events a minute apart with a 1ms window: the runner must not grind
  // through 60000 empty windows.
  ShardedRunner::Config config{2, 1, Duration::millis(1)};
  ShardedRunner runner(config);
  int fired = 0;
  runner.domain(0).at(SimTime::seconds(0.5), [&] { ++fired; });
  runner.domain(1).at(SimTime::seconds(60.0), [&] { ++fired; });
  runner.run_until(SimTime::seconds(120.0));
  EXPECT_EQ(fired, 2);
  EXPECT_LE(runner.stats().windows, 4u);
}

// Checked with a throw, not an assert, so release builds refuse it too.
TEST(ShardedRunner, PostRejectsLatencyBelowTheWindowInEveryBuild) {
  ShardedRunner::Config config{2, 1, Duration::millis(5)};
  ShardedRunner runner(config);
  int delivered = 0;
  runner.set_row_handler<TestRow>([&](std::size_t, const TestRow&) { ++delivered; });
  for (const Duration latency :
       {Duration::zero(), Duration::millis(-1), Duration::millis(4.999)}) {
    EXPECT_THROW(runner.post_row(0, 1, latency, TestRow{}), std::invalid_argument)
        << latency.to_millis() << " ms";
  }
  runner.post_row(0, 1, Duration::millis(5), TestRow{});  // == window: fine
  runner.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(runner.stats().boundary_messages, 1u);
}

// Exchange-order property: whatever the worker count and batch size, every
// destination receives its messages in the canonical (deliver time, source
// domain, per-source serial) order. Each round, every source posts several
// messages at once to random destinations, so one exchange carries all of a
// round's traffic; rounds sit ten windows apart, so no two rounds ever share
// a delivery time and the reference order needs no exchange index.
struct Delivery {
  double time;
  std::size_t source;
  std::uint32_t serial;
  bool operator==(const Delivery&) const = default;
};

using DeliveryLogs = std::vector<std::vector<Delivery>>;

constexpr std::size_t kOrderDomains = 8;

struct Post {
  double at;
  std::size_t to;
  Duration latency;
};

/// Per source domain, its posts in posting order (index = serial). Mixed:
/// latencies of 1x, 2x and 3.5x the window, and every odd source posts a
/// quarter window late, so a destination's batch arrives out of delivery
/// order. Otherwise every post is simultaneous with latency 2x and each
/// batch is already in order.
std::vector<std::vector<Post>> exchange_plan(bool mixed) {
  constexpr int kRounds = 12;
  constexpr int kPostsPerRound = 4;
  const double factors[] = {1.0, 2.0, 3.5};
  std::vector<std::vector<Post>> plan(kOrderDomains);
  for (std::size_t src = 0; src < kOrderDomains; ++src) {
    std::mt19937 rng(std::uint32_t(1000 + src));
    for (int round = 0; round < kRounds; ++round) {
      const double at = 0.01 * (round + 1) + (mixed && src % 2 == 1 ? 0.00025 : 0.0);
      for (int k = 0; k < kPostsPerRound; ++k) {
        const std::size_t to = rng() % kOrderDomains;
        const double factor = mixed ? factors[rng() % 3] : 2.0;
        plan[src].push_back(Post{at, to, Duration::millis(factor)});
      }
    }
  }
  return plan;
}

DeliveryLogs canonical_order(const std::vector<std::vector<Post>>& plan) {
  DeliveryLogs logs(kOrderDomains);
  for (std::size_t src = 0; src < kOrderDomains; ++src) {
    for (std::uint32_t serial = 0; serial < plan[src].size(); ++serial) {
      const Post& p = plan[src][serial];
      const SimTime deliver = SimTime::seconds(p.at) + p.latency;
      logs[p.to].push_back(Delivery{deliver.to_seconds(), src, serial});
    }
  }
  for (auto& log : logs) {
    std::sort(log.begin(), log.end(), [](const Delivery& a, const Delivery& b) {
      return std::tie(a.time, a.source, a.serial) < std::tie(b.time, b.source, b.serial);
    });
  }
  return logs;
}

DeliveryLogs delivered_order(const std::vector<std::vector<Post>>& plan,
                             std::size_t workers, std::size_t batch) {
  ShardedRunner runner(
      ShardedRunner::Config{kOrderDomains, workers, Duration::millis(1), batch});
  DeliveryLogs logs(kOrderDomains);  // logs[d] is written only by domain d's worker
  // A row carries its source and serial as source << 16 | serial.
  runner.set_row_handler<TestRow>([&](std::size_t to, const TestRow& row) {
    logs[to].push_back(Delivery{runner.domain(to).now().to_seconds(), row.value >> 16,
                                row.value & 0xffffu});
  });
  for (std::size_t src = 0; src < kOrderDomains; ++src) {
    for (std::uint32_t serial = 0; serial < plan[src].size(); ++serial) {
      const Post& p = plan[src][serial];
      runner.domain(src).at(SimTime::seconds(p.at), [&runner, p, src, serial] {
        runner.post_row(src, p.to, p.latency, TestRow{std::uint32_t(src << 16) | serial});
      });
    }
  }
  runner.run_until(SimTime::seconds(1.0));
  return logs;
}

TEST(ShardedRunner, ExchangeDeliversInCanonicalOrder) {
  for (const bool mixed : {false, true}) {
    const auto plan = exchange_plan(mixed);
    const DeliveryLogs reference = canonical_order(plan);
    for (const std::size_t workers : {std::size_t(1), std::size_t(2), std::size_t(4)}) {
      for (const std::size_t batch : {std::size_t(1), std::size_t(0)}) {
        EXPECT_EQ(delivered_order(plan, workers, batch), reference)
            << "mixed=" << mixed << " workers=" << workers << " batch=" << batch;
      }
    }
  }
}

// Row-path oracle: a seeded workload run through the runner must give every
// domain the same log as an independent sequential reference, for every
// worker count and batch size. The workload is built to stress the drain:
// most messages converge on domain 0, every message lands on a multiple of
// the window where local events also fire (some chaining a zero-delay
// follow-up), latencies are one, two or three windows, and each delivery
// re-posts until its hop budget runs out.
struct OracleRow {
  std::uint32_t id = 0;
  std::uint16_t hop = 0;
  std::uint16_t origin = 0;
};

constexpr std::size_t kOracleDomains = 8;
constexpr int kOracleHops = 5;
const Duration kOracleWindow = Duration::millis(1);

/// The reference: one Simulator per domain, run in the runner's window
/// sequence (the earliest pending event plus the window, clipped to the
/// horizon). At each window end every posted message becomes its own queue
/// event at its destination, in (source domain, posting serial) order. No
/// drains, no pools, no threads.
class SequentialReference {
 public:
  Simulator& domain(std::size_t d) { return sims_[d]; }

  template <class Row, class Handler>
  void set_row_handler(Handler handler) {
    static_assert(std::is_same_v<Row, OracleRow>);
    handler_ = std::move(handler);
  }

  void post_row(std::size_t from, std::size_t to, Duration latency, const OracleRow& row) {
    outboxes_[from].push_back(Message{sims_[from].now() + latency, to, row});
  }

  void run_until(SimTime horizon) {
    for (;;) {
      for (auto& outbox : outboxes_) {
        for (const Message& m : outbox) {
          sims_[m.to].at(m.deliver, [this, m] { handler_(m.to, m.row); });
        }
        outbox.clear();
      }
      SimTime min_next = SimTime::infinity();
      for (const Simulator& sim : sims_) min_next = std::min(min_next, sim.next_event_time());
      if (min_next == SimTime::infinity() || min_next > horizon) return;
      SimTime target = min_next + kOracleWindow;
      if (target > horizon) target = horizon;
      for (Simulator& sim : sims_) sim.run_until(target);
    }
  }

 private:
  struct Message {
    SimTime deliver;
    std::size_t to;
    OracleRow row;
  };
  std::array<Simulator, kOracleDomains> sims_;
  std::array<std::vector<Message>, kOracleDomains> outboxes_;
  std::function<void(std::size_t, const OracleRow&)> handler_;
};

std::uint32_t oracle_hash(std::uint32_t id, std::uint32_t hop) {
  std::uint32_t h = id * 2654435761u ^ (hop + 0x9e3779b9u);
  h ^= h >> 15;
  h *= 2246822519u;
  return h ^ (h >> 13);
}

template <class Runner>
std::vector<std::vector<std::string>> oracle_logs(Runner& runner) {
  std::vector<std::vector<std::string>> logs(kOracleDomains);
  const auto log = [&runner, &logs](std::size_t d, const std::string& what) {
    logs[d].push_back(std::to_string(runner.domain(d).now().to_millis()) + " " + what);
  };
  const auto send = [&runner](std::size_t from, const OracleRow& m) {
    const std::uint32_t h = oracle_hash(m.id, m.hop);
    const std::size_t to = h % 3 != 0 ? 0 : (h >> 4) % kOracleDomains;
    runner.post_row(from, to, Duration::millis(double(1 + (h >> 8) % 3)), m);
  };
  runner.template set_row_handler<OracleRow>([&log, &send](std::size_t at, const OracleRow& m) {
    log(at, std::to_string(m.origin) + ":" + std::to_string(m.id) + "#" +
                std::to_string(m.hop));
    if (m.hop >= kOracleHops) return;
    OracleRow next = m;
    ++next.hop;
    send(at, next);
  });
  std::mt19937 rng(20261018);
  std::uint32_t next_id = 0;
  for (std::size_t d = 0; d < kOracleDomains; ++d) {
    for (int k = 0; k < 40; ++k) {
      const SimTime at = SimTime::millis(double(rng() % 30));
      const int posts = int(rng() % 3);
      const bool chain = rng() % 4 == 0;
      std::vector<OracleRow> batch_rows;
      for (int i = 0; i < posts; ++i) {
        batch_rows.push_back(OracleRow{next_id++, 0, std::uint16_t(d)});
      }
      runner.domain(d).at(at, [&runner, &log, &send, d, batch_rows, chain] {
        log(d, "local");
        for (const OracleRow& m : batch_rows) send(d, m);
        if (chain) runner.domain(d).after(Duration::zero(), [&log, d] { log(d, "chained"); });
      });
    }
  }
  runner.run_until(SimTime::seconds(1.0));
  return logs;
}

TEST(ShardedRunner, RowPathMatchesSequentialReference) {
  SequentialReference sequential;
  const auto reference = oracle_logs(sequential);
  std::size_t delivered = 0;
  for (const auto& log : reference) delivered += log.size();
  ASSERT_GT(delivered, 1000u);
  for (const std::size_t workers : {std::size_t(1), std::size_t(2), std::size_t(4),
                                      std::size_t(8)}) {
    for (const std::size_t batch : {std::size_t(1), std::size_t(8), std::size_t(0)}) {
      ShardedRunner runner(ShardedRunner::Config{kOracleDomains, workers, kOracleWindow, batch});
      EXPECT_EQ(oracle_logs(runner), reference) << "workers=" << workers << " batch=" << batch;
      EXPECT_GT(runner.stats().row_drains, 0u);
      EXPECT_LT(runner.stats().row_drains, runner.stats().boundary_messages)
          << "no two rows ever shared a drain; the workload misses its point";
    }
  }
}

// Steady traffic through the row pools must stop allocating: every slot a
// pool ever creates held a pending row when it was created, so the pools
// never hold more slots than the destinations' peak pending rows, however
// long the run.
TEST(ShardedRunner, RowPoolBoundedOverLongRuns) {
  constexpr std::size_t kDomains = 4;
  constexpr int kTokens = 6;  // rows circulating per domain
  constexpr std::uint64_t kDeliveries = 400'000;
  ShardedRunner runner(ShardedRunner::Config{kDomains, 1, Duration::millis(1)});
  std::vector<std::int64_t> in_flight(kDomains, 0);
  std::vector<std::int64_t> peak(kDomains, 0);
  std::uint64_t delivered = 0;
  std::size_t slots_at_tenth = 0;
  const auto post = [&](std::size_t from, TestRow row) {
    const std::size_t to = (from + 1 + row.value % 2) % kDomains;
    peak[to] = std::max(peak[to], ++in_flight[to]);
    runner.post_row(from, to, Duration::millis(1 + row.value % 3), TestRow{row.value + 1});
  };
  runner.set_row_handler<TestRow>([&](std::size_t at, const TestRow& row) {
    --in_flight[at];
    if (++delivered == kDeliveries / 10) slots_at_tenth = runner.row_pool_slots();
    if (delivered + kDomains * kTokens <= kDeliveries) post(at, row);
  });
  for (std::size_t d = 0; d < kDomains; ++d) {
    for (int k = 0; k < kTokens; ++k) post(d, TestRow{std::uint32_t(d * kTokens + k)});
  }
  runner.run_until(SimTime::seconds(1e6));
  EXPECT_EQ(delivered, kDeliveries);
  std::int64_t bound = 0;
  for (const std::int64_t p : peak) bound += p;
  EXPECT_LE(runner.row_pool_slots(), std::size_t(bound));
  EXPECT_EQ(runner.row_pool_slots(), slots_at_tenth) << "the pools kept growing";
}

// The profile's boundary_bytes is one row envelope per message exchanged,
// and each profile lane names its domains, the rows they received and the
// busiest of them.
TEST(ShardedRunner, ProfileCountsEnvelopeBytesAndRowsPerLane) {
  obs::Profiler profiler;
  profiler.set_enabled(true);
  ShardedRunner runner(ShardedRunner::Config{5, 2, Duration::millis(1), 0, &profiler});
  runner.set_row_handler<TestRow>([](std::size_t, const TestRow&) {});
  runner.domain(0).at(SimTime::millis(1), [&runner] {
    for (const std::size_t to : {1u, 1u, 1u, 3u, 4u}) {
      runner.post_row(0, to, Duration::millis(2), TestRow{});
    }
  });
  runner.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(runner.stats().boundary_messages, 5u);
  if (!obs::Profiler::compiled_in()) return;
  obs::ProfileSnapshot p;
  runner.export_profile(p);
  EXPECT_EQ(p.boundary_bytes, 5 * ShardedRunner::kRowEnvelopeBytes);
  ASSERT_EQ(p.shards.size(), 2u);
  // Lane 0 executes domains [0, 2), lane 1 [2, 5).
  EXPECT_EQ(p.shards[0].domain_begin, 0u);
  EXPECT_EQ(p.shards[0].domain_end, 2u);
  EXPECT_EQ(p.shards[0].rows_delivered, 3u);
  EXPECT_EQ(p.shards[0].busiest_domain, 1u);
  EXPECT_EQ(p.shards[0].busiest_domain_rows, 3u);
  EXPECT_EQ(p.shards[1].domain_begin, 2u);
  EXPECT_EQ(p.shards[1].domain_end, 5u);
  EXPECT_EQ(p.shards[1].rows_delivered, 2u);
  EXPECT_EQ(p.shards[1].busiest_domain, 3u);  // 3 and 4 tie: lowest id
  EXPECT_EQ(p.shards[1].busiest_domain_rows, 1u);
}

}  // namespace
}  // namespace imrm::sim
