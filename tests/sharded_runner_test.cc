// ShardedRunner: conservative-window correctness and worker-count
// invariance at the engine level (the campus-level suite is
// sharded_campus_test.cc).
#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/profiler.h"
#include "sim/sharded_runner.h"
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
  const auto deliver = [&delivered] { ++delivered; };
  EXPECT_THROW(runner.post(0, 2, latency, deliver), std::invalid_argument);
  EXPECT_THROW(runner.post(2, 0, latency, deliver), std::invalid_argument);
  EXPECT_THROW(runner.post_row(0, 2, latency, TestRow{}), std::invalid_argument);
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
  runner.domain(0).at(SimTime::millis(3), [&] {
    runner.post(0, 1, Duration::millis(10), [&] {
      delivered_at.push_back(runner.domain(1).now().to_millis());
    });
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
    runner.domain(1).at(SimTime::millis(10), [&] {
      record("local");
      runner.domain(1).after(Duration::zero(), [&] { record("local-chained"); });
    });
    runner.domain(2).at(SimTime::zero(), [&] {
      runner.post(2, 1, Duration::millis(10), [&] { record("from-2"); });
    });
    runner.domain(0).at(SimTime::zero(), [&] {
      runner.post(0, 1, Duration::millis(10), [&] { record("from-0a"); });
      runner.post(0, 1, Duration::millis(10), [&] { record("from-0b"); });
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
  runner.post(0, 1, Duration::millis(5), [&] { delivered = true; });
  runner.run_until(SimTime::seconds(1.0));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(runner.stats().boundary_messages, 1u);
}

TEST(ShardedRunner, PostRunsOnTheDestinationDomainOnly) {
  ShardedRunner::Config config{3, 1, Duration::millis(1)};
  ShardedRunner runner(config);
  int hits = 0;
  runner.domain(0).at(SimTime::millis(1), [&] {
    runner.post(0, 2, Duration::millis(1), [&] {
      ++hits;
      EXPECT_EQ(runner.domain(2).now(), SimTime::millis(2));
    });
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
  // Self-referential bounce: rebuild the callback each hop.
  struct Bouncer {
    ShardedRunner* runner;
    int* bounces;
    void bounce(std::size_t at) const {
      ++*bounces;
      if (*bounces >= 20) return;
      const std::size_t to = 1 - at;
      Bouncer self = *this;
      runner->post(at, to, Duration::millis(1), [self, to] { self.bounce(to); });
    }
  };
  Bouncer bouncer{&runner, &bounces};
  runner.post(0, 1, Duration::millis(1), [bouncer] { bouncer.bounce(1); });
  const std::uint64_t fired = runner.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(bounces, 20);
  EXPECT_EQ(fired, 20u);
  EXPECT_EQ(runner.stats().boundary_messages, 20u);
  EXPECT_GE(runner.stats().windows, 20u);
}

// The determinism contract: a mesh of domains that exchange messages with
// equal delivery times must produce an identical global event order at any
// worker count. Each domain appends (domain, time, payload) to its own log;
// the concatenated logs are compared across worker counts.
TEST(ShardedRunner, ExecutionIsInvariantAcrossWorkerCounts) {
  const auto run = [](std::size_t workers) {
    ShardedRunner::Config config{/*domains=*/5, workers, Duration::millis(2)};
    ShardedRunner runner(config);
    std::vector<std::vector<std::string>> logs(5);
    struct Node {
      ShardedRunner* runner;
      std::vector<std::vector<std::string>>* logs;
      void receive(std::size_t at, std::size_t from, int hop) const {
        (*logs)[at].push_back(std::to_string(from) + ">" + std::to_string(at) +
                              "@" + std::to_string(runner->domain(at).now().to_millis()) +
                              "#" + std::to_string(hop));
        if (hop >= 6) return;
        Node self = *this;
        // Fan out to every other domain with IDENTICAL delivery times —
        // worst case for tie-breaking.
        for (std::size_t to = 0; to < 5; ++to) {
          if (to == at) continue;
          runner->post(at, to, Duration::millis(2), [self, to, at, hop] {
            self.receive(to, at, hop + 1);
          });
        }
      }
    };
    Node node{&runner, &logs};
    for (std::size_t d = 0; d < 5; ++d) {
      runner.post(d, (d + 1) % 5, Duration::millis(2),
                  [node, d] { node.receive((d + 1) % 5, d, 0); });
    }
    runner.run_until(SimTime::millis(14.5));
    std::vector<std::string> flat;
    for (const auto& log : logs) {
      flat.insert(flat.end(), log.begin(), log.end());
    }
    return flat;
  };

  const std::vector<std::string> at1 = run(1);
  ASSERT_FALSE(at1.empty());
  EXPECT_EQ(run(2), at1);
  EXPECT_EQ(run(4), at1);
  EXPECT_EQ(run(8), at1);
}

// The ISSUE 10 contract: batch size (pinned or adaptive) is an execution
// knob only. The same mesh as above must produce identical logs, window
// counts and boundary-message counts for every (workers, batch) pair.
TEST(ShardedRunner, ExecutionIsInvariantAcrossBatchSizes) {
  struct Outcome {
    std::vector<std::string> log;
    std::uint64_t windows = 0;
    std::uint64_t boundary = 0;
  };
  const auto run = [](std::size_t workers, std::size_t batch) {
    ShardedRunner::Config config{/*domains=*/5, workers, Duration::millis(2),
                                 batch};
    ShardedRunner runner(config);
    std::vector<std::vector<std::string>> logs(5);
    struct Node {
      ShardedRunner* runner;
      std::vector<std::vector<std::string>>* logs;
      void receive(std::size_t at, std::size_t from, int hop) const {
        (*logs)[at].push_back(std::to_string(from) + ">" + std::to_string(at) +
                              "@" + std::to_string(runner->domain(at).now().to_millis()) +
                              "#" + std::to_string(hop));
        if (hop >= 6) return;
        Node self = *this;
        for (std::size_t to = 0; to < 5; ++to) {
          if (to == at) continue;
          runner->post(at, to, Duration::millis(2), [self, to, at, hop] {
            self.receive(to, at, hop + 1);
          });
        }
      }
    };
    Node node{&runner, &logs};
    for (std::size_t d = 0; d < 5; ++d) {
      runner.post(d, (d + 1) % 5, Duration::millis(2),
                  [node, d] { node.receive((d + 1) % 5, d, 0); });
    }
    runner.run_until(SimTime::millis(14.5));
    Outcome out;
    for (const auto& log : logs) {
      out.log.insert(out.log.end(), log.begin(), log.end());
    }
    out.windows = runner.stats().windows;
    out.boundary = runner.stats().boundary_messages;
    return out;
  };

  const Outcome base = run(1, 1);
  ASSERT_FALSE(base.log.empty());
  for (const std::size_t workers : {std::size_t(1), std::size_t(2), std::size_t(4)}) {
    for (const std::size_t batch : {std::size_t(1), std::size_t(3),
                                    std::size_t(64), std::size_t(0)}) {
      const Outcome got = run(workers, batch);
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
    struct Bouncer {
      ShardedRunner* runner;
      int* bounces;
      void bounce(std::size_t at) const {
        ++*bounces;
        if (*bounces >= 400) return;
        const std::size_t to = 1 - at;
        Bouncer self = *this;
        runner->post(at, to, Duration::millis(1), [self, to] { self.bounce(to); });
      }
    };
    Bouncer bouncer{&runner, &bounces};
    runner.post(0, 1, Duration::millis(1), [bouncer] { bouncer.bounce(1); });
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
  runner.domain(0).at(SimTime::millis(95), [&] {
    runner.post(0, 1, Duration::millis(10), [&] { delivered = true; });
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

TEST(ShardedRunner, PostRejectsLatencyBelowTheWindowInEveryBuild) {
  ShardedRunner::Config config{2, 1, Duration::millis(5)};
  ShardedRunner runner(config);
  EXPECT_THROW(runner.post(0, 1, Duration::millis(4), [] {}), std::invalid_argument);
  int delivered = 0;
  runner.post(0, 1, Duration::millis(5), [&] { ++delivered; });  // == window: fine
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
  for (std::size_t src = 0; src < kOrderDomains; ++src) {
    for (std::uint32_t serial = 0; serial < plan[src].size(); ++serial) {
      const Post& p = plan[src][serial];
      runner.domain(src).at(SimTime::seconds(p.at), [&runner, &logs, p, src, serial] {
        runner.post(src, p.to, p.latency, [&runner, &logs, src, serial, to = p.to] {
          logs[to].push_back(Delivery{runner.domain(to).now().to_seconds(), src, serial});
        });
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

// Row-path oracle: the same seeded workload, once with every message sent as
// a callback (one queue event each) and once as a row (one drain per
// destination and instant), must give every domain the same log for every
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

std::uint32_t oracle_hash(std::uint32_t id, std::uint32_t hop) {
  std::uint32_t h = id * 2654435761u ^ (hop + 0x9e3779b9u);
  h ^= h >> 15;
  h *= 2246822519u;
  return h ^ (h >> 13);
}

std::vector<std::vector<std::string>> oracle_logs(bool rows, std::size_t workers,
                                                  std::size_t batch) {
  ShardedRunner runner(
      ShardedRunner::Config{kOracleDomains, workers, Duration::millis(1), batch});
  std::vector<std::vector<std::string>> logs(kOracleDomains);
  const auto send = [&runner, rows](auto& self, std::size_t from,
                                            const OracleRow& m) -> void {
    const std::uint32_t h = oracle_hash(m.id, m.hop);
    const std::size_t to = h % 3 != 0 ? 0 : (h >> 4) % kOracleDomains;
    const Duration latency = Duration::millis(double(1 + (h >> 8) % 3));
    if (rows) {
      runner.post_row(from, to, latency, m);
    } else {
      runner.post(from, to, latency, [&self, to, m] { self(to, m); });
    }
  };
  struct Deliver {
    ShardedRunner* runner;
    std::vector<std::vector<std::string>>* logs;
    const decltype(send)* send_fn;
    void operator()(std::size_t at, const OracleRow& m) const {
      (*logs)[at].push_back(std::to_string(runner->domain(at).now().to_millis()) + " " +
                            std::to_string(m.origin) + ":" + std::to_string(m.id) + "#" +
                            std::to_string(m.hop));
      if (m.hop >= kOracleHops) return;
      OracleRow next = m;
      ++next.hop;
      (*send_fn)(*this, at, next);
    }
  };
  const Deliver deliver{&runner, &logs, &send};
  if (rows) {
    runner.set_row_handler<OracleRow>(
        [&deliver](std::size_t at, const OracleRow& m) { deliver(at, m); });
  }
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
      runner.domain(d).at(at, [&runner, &logs, &deliver, &send, d, batch_rows, chain] {
        logs[d].push_back(std::to_string(runner.domain(d).now().to_millis()) + " local");
        for (const OracleRow& m : batch_rows) send(deliver, d, m);
        if (chain) {
          runner.domain(d).after(Duration::zero(), [&runner, &logs, d] {
            logs[d].push_back(std::to_string(runner.domain(d).now().to_millis()) +
                              " chained");
          });
        }
      });
    }
  }
  runner.run_until(SimTime::seconds(1.0));
  if (rows) {
    EXPECT_GT(runner.stats().row_drains, 0u);
    EXPECT_LT(runner.stats().row_drains, runner.stats().boundary_messages)
        << "no two rows ever shared a drain; the workload misses its point";
  }
  return logs;
}

TEST(ShardedRunner, RowPathMatchesCallbackPath) {
  const auto reference = oracle_logs(/*rows=*/false, 1, 1);
  std::size_t delivered = 0;
  for (const auto& log : reference) delivered += log.size();
  ASSERT_GT(delivered, 1000u);
  for (const bool rows : {false, true}) {
    for (const std::size_t workers : {std::size_t(1), std::size_t(2), std::size_t(4),
                                        std::size_t(8)}) {
      for (const std::size_t batch : {std::size_t(1), std::size_t(8), std::size_t(0)}) {
        EXPECT_EQ(oracle_logs(rows, workers, batch), reference)
            << "rows=" << rows << " workers=" << workers << " batch=" << batch;
      }
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

// boundary_bytes counts what each path really exchanged, and each profile
// lane names its domains, the rows they received and the busiest of them.
TEST(ShardedRunner, ProfileCountsEnvelopeBytesAndRowsPerLane) {
  obs::Profiler profiler;
  profiler.set_enabled(true);
  ShardedRunner runner(ShardedRunner::Config{5, 2, Duration::millis(1), 0, &profiler});
  runner.set_row_handler<TestRow>([](std::size_t, const TestRow&) {});
  runner.domain(0).at(SimTime::millis(1), [&runner] {
    for (int i = 0; i < 3; ++i) runner.post(0, 4, Duration::millis(1), [] {});
    for (const std::size_t to : {1u, 1u, 1u, 3u, 4u}) {
      runner.post_row(0, to, Duration::millis(2), TestRow{});
    }
  });
  runner.run_until(SimTime::seconds(1.0));
  static_assert(ShardedRunner::kRowEnvelopeBytes < ShardedRunner::kCallbackEnvelopeBytes);
  EXPECT_EQ(runner.stats().boundary_messages, 8u);
  EXPECT_EQ(runner.stats().boundary_bytes,
            3 * ShardedRunner::kCallbackEnvelopeBytes + 5 * ShardedRunner::kRowEnvelopeBytes);
  if (!obs::Profiler::compiled_in()) return;
  obs::ProfileSnapshot p;
  runner.export_profile(p);
  EXPECT_EQ(p.boundary_bytes, runner.stats().boundary_bytes);
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
