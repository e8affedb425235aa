// Tests for the fault-injection transport: per-channel loss / delay /
// duplication / reordering semantics, the zero-probability fast path, the
// fault schedule driver, and the unreliable admission probe.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/faulty_channel.h"
#include "fault/schedule.h"
#include "fault/signaling.h"
#include "maxmin/protocol.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace imrm::fault {
namespace {

using sim::Duration;
using sim::SimTime;

maxmin::Problem small_problem() {
  maxmin::Problem p;
  p.links = {{10.0}, {20.0}};
  p.connections = {{{0}, maxmin::kInfiniteDemand},
                   {{0, 1}, maxmin::kInfiniteDemand},
                   {{1}, maxmin::kInfiniteDemand}};
  return p;
}

TEST(FaultyChannel, TrivialModelMatchesDirectTransportExactly) {
  // Same protocol run three ways: no transport, DirectTransport, and a
  // FaultyChannel with every probability at zero. All three must produce the
  // same rates after the same number of simulator events — the channel's
  // fast path adds no draws and no extra events.
  auto run = [](int mode) {
    sim::Simulator simulator;
    DirectTransport direct(simulator);
    FaultyChannel faulty(simulator, sim::Rng(99));
    maxmin::DistributedProtocol::Config config;
    if (mode == 1) config.transport = &direct;
    if (mode == 2) config.transport = &faulty;
    maxmin::DistributedProtocol proto(simulator, small_problem(), config);
    proto.start_all();
    proto.run_to_quiescence();
    return std::pair(proto.rates(), simulator.events_fired());
  };
  const auto baseline = run(0);
  EXPECT_EQ(run(1), baseline);
  EXPECT_EQ(run(2), baseline);
}

TEST(FaultyChannel, TrivialSendDrawsNoRandomNumbers) {
  sim::Simulator simulator;
  sim::Rng reference(7);
  FaultyChannel channel(simulator, sim::Rng(7));
  for (int i = 0; i < 50; ++i) {
    channel.send(0, Duration::millis(1), [] {});
  }
  simulator.run();
  // The channel's engine is still in its seeded state: the next draw equals
  // a fresh rng's first draw.
  sim::Rng probe(7);
  EXPECT_EQ(reference.uniform(0.0, 1.0), probe.uniform(0.0, 1.0));
  EXPECT_EQ(channel.sent(), 50u);
  EXPECT_EQ(channel.dropped(), 0u);
}

TEST(FaultyChannel, CertainLossDropsEverything) {
  sim::Simulator simulator;
  FaultyChannel channel(simulator, sim::Rng(1), LinkFaultModel::bernoulli_loss(1.0));
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    channel.send(3, Duration::millis(1), [&delivered] { ++delivered; });
  }
  simulator.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(channel.dropped(), 20u);
}

TEST(FaultyChannel, DownChannelDropsUntilHealed) {
  sim::Simulator simulator;
  FaultyChannel channel(simulator, sim::Rng(1));
  channel.set_channel_up(2, false);
  int delivered = 0;
  channel.send(2, Duration::millis(1), [&delivered] { ++delivered; });
  channel.send(1, Duration::millis(1), [&delivered] { ++delivered; });  // other channel up
  simulator.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channel.dropped_down(), 1u);
  channel.set_channel_up(2, true);
  channel.send(2, Duration::millis(1), [&delivered] { ++delivered; });
  simulator.run();
  EXPECT_EQ(delivered, 2);
}

TEST(FaultyChannel, DuplicateDeliversTwice) {
  sim::Simulator simulator;
  LinkFaultModel model;
  model.duplicate = 1.0;
  FaultyChannel channel(simulator, sim::Rng(4), model);
  int delivered = 0;
  channel.send(0, Duration::millis(1), [&delivered] { ++delivered; });
  simulator.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(channel.duplicated(), 1u);
}

TEST(FaultyChannel, ReorderedMessageFallsBehindLaterSend) {
  sim::Simulator simulator;
  LinkFaultModel reordering;
  reordering.reorder = 1.0;
  FaultyChannel channel(simulator, sim::Rng(5));
  channel.set_model(0, reordering);
  std::vector<int> order;
  channel.send(0, Duration::millis(1), [&order] { order.push_back(0); });
  channel.send(1, Duration::millis(1), [&order] { order.push_back(1); });
  simulator.run();
  ASSERT_EQ(order.size(), 2u);
  // The reordered message on channel 0 was overtaken by the later send.
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(channel.reordered(), 1u);
}

TEST(FaultyChannel, JitterStaysWithinConfiguredBound) {
  sim::Simulator simulator;
  LinkFaultModel jittery;
  jittery.jitter = 0.5;
  FaultyChannel channel(simulator, sim::Rng(6), jittery);
  for (int i = 0; i < 30; ++i) {
    const SimTime sent_at = simulator.now();
    double arrival = -1.0;
    channel.send(0, Duration::millis(10),
                 [&simulator, &arrival] { arrival = simulator.now().to_seconds(); });
    simulator.run();
    const double base = sent_at.to_seconds() + 0.010;
    ASSERT_GE(arrival, base - 1e-12);
    ASSERT_LE(arrival, base + 0.5 * 0.010 + 1e-12);
  }
  EXPECT_GT(channel.delayed(), 0u);
}

TEST(FaultyChannel, GilbertElliottLosesInBursts) {
  sim::Simulator simulator;
  FaultyChannel channel(simulator, sim::Rng(8),
                        LinkFaultModel::gilbert_elliott(0.1, 1.0, 5.0));
  int delivered = 0;
  for (int i = 0; i < 500; ++i) {
    channel.send(0, Duration::millis(1), [&delivered] { ++delivered; });
  }
  simulator.run();
  // Burst loss: a meaningful share dropped, but the good state delivers.
  EXPECT_GT(channel.dropped(), 50u);
  EXPECT_GT(delivered, 100);
  EXPECT_EQ(channel.dropped() + std::uint64_t(delivered), 500u);
}

TEST(FaultyChannel, HealRestoresCleanDelivery) {
  sim::Simulator simulator;
  FaultyChannel channel(simulator, sim::Rng(9), LinkFaultModel::bernoulli_loss(1.0));
  LinkFaultModel worse = LinkFaultModel::bernoulli_loss(1.0);
  channel.set_model(4, worse);
  channel.set_default_model(LinkFaultModel{});  // heal: clears overrides too
  int delivered = 0;
  channel.send(4, Duration::millis(1), [&delivered] { ++delivered; });
  simulator.run();
  EXPECT_EQ(delivered, 1);
}

TEST(FaultyChannel, BindsFaultChannelCounters) {
  sim::Simulator simulator;
  obs::Registry registry;
  FaultyChannel channel(simulator, sim::Rng(10), LinkFaultModel::bernoulli_loss(1.0));
  channel.bind_metrics(&registry);
  for (int i = 0; i < 7; ++i) channel.send(0, Duration::millis(1), [] {});
  simulator.run();
  EXPECT_EQ(registry.counter("fault.channel.sent").value(), 7u);
  EXPECT_EQ(registry.counter("fault.channel.dropped").value(), 7u);
}

TEST(FaultSchedule, FiresHooksInTimeOrderAndExpandsPartitions) {
  FaultSchedule schedule;
  schedule.flap(1, SimTime::seconds(0.1), SimTime::seconds(0.3));
  schedule.crash(0, SimTime::seconds(0.2));
  const std::uint32_t group = schedule.add_group({2, 3});
  schedule.partition(group, SimTime::seconds(0.15), SimTime::seconds(0.25));
  EXPECT_EQ(schedule.end_time(), SimTime::seconds(0.3));

  sim::Simulator simulator;
  std::vector<std::string> log;
  FaultSchedule::Hooks hooks;
  hooks.link_down = [&log](std::uint32_t l) { log.push_back("down:" + std::to_string(l)); };
  hooks.link_up = [&log](std::uint32_t l) { log.push_back("up:" + std::to_string(l)); };
  hooks.cell_crash = [&log](std::uint32_t l) { log.push_back("crash:" + std::to_string(l)); };
  schedule.arm(simulator, hooks);
  simulator.run();
  const std::vector<std::string> expected{"down:1",  "down:2", "down:3", "crash:0",
                                          "up:2",    "up:3",   "up:1"};
  EXPECT_EQ(log, expected);
}

TEST(FaultSchedule, RandomTimelineIsDeterministicInSeed) {
  FaultSchedule::RandomConfig config;
  config.stop = SimTime::seconds(1.0);
  config.links = 4;
  config.flaps = 5;
  config.crashes = 2;
  sim::Rng a(42), b(42);
  const FaultSchedule first = FaultSchedule::random(config, a);
  const FaultSchedule second = FaultSchedule::random(config, b);
  ASSERT_EQ(first.events().size(), second.events().size());
  EXPECT_EQ(first.events().size(), 2 * 5 + 2u);
  for (std::size_t i = 0; i < first.events().size(); ++i) {
    EXPECT_EQ(first.events()[i].at, second.events()[i].at);
    EXPECT_EQ(first.events()[i].kind, second.events()[i].kind);
    EXPECT_EQ(first.events()[i].target, second.events()[i].target);
  }
}

TEST(FaultSchedule, EmptyScheduleArmsNothing) {
  FaultSchedule schedule;
  EXPECT_TRUE(schedule.empty());
  EXPECT_EQ(schedule.end_time(), SimTime::zero());
  sim::Simulator simulator;
  obs::Registry metrics;
  schedule.arm(simulator, {}, &metrics);
  EXPECT_EQ(simulator.run(), 0u);
  EXPECT_EQ(metrics.counter("fault.injected.link_down").value(), 0u);
}

// Every hook runs at its event's exact sim time, so a 1 ms ticker sees the
// link down from the first tick after 3.7 ms through the last before 9.3 ms.
TEST(FaultSchedule, HooksFireAtTheirExactScheduledTimes) {
  FaultSchedule schedule;
  schedule.flap(7, SimTime::millis(3.7), SimTime::millis(9.3));
  schedule.crash(2, SimTime::millis(5.1));

  sim::Simulator simulator;
  bool down = false;
  std::vector<std::string> log;
  FaultSchedule::Hooks hooks;
  hooks.link_down = [&](std::uint32_t link) {
    down = true;
    log.push_back("down:" + std::to_string(link) + "@" +
                  std::to_string(simulator.now().to_millis()));
  };
  hooks.link_up = [&](std::uint32_t link) {
    down = false;
    log.push_back("up:" + std::to_string(link) + "@" +
                  std::to_string(simulator.now().to_millis()));
  };
  hooks.cell_crash = [&](std::uint32_t cell) {
    log.push_back("crash:" + std::to_string(cell) + "@" +
                  std::to_string(simulator.now().to_millis()));
  };
  schedule.arm(simulator, std::move(hooks));
  std::vector<bool> down_at_tick;
  simulator.every(Duration::millis(1), SimTime::millis(12),
                  [&] { down_at_tick.push_back(down); });
  simulator.run_until(SimTime::millis(12));

  EXPECT_EQ(log, (std::vector<std::string>{"down:7@3.700000", "crash:2@5.100000",
                                           "up:7@9.300000"}));
  ASSERT_EQ(down_at_tick.size(), 11u);  // ticks at 1..11 ms; the horizon is exclusive
  for (std::size_t i = 0; i < down_at_tick.size(); ++i) {
    const bool expected = i + 1 >= 4 && i + 1 <= 9;
    EXPECT_EQ(down_at_tick[i], expected) << "tick at " << i + 1 << " ms";
  }
}

TEST(FaultSchedule, PartitionCountsOnceAndEveryMemberLinkEach) {
  FaultSchedule schedule;
  const std::uint32_t group = schedule.add_group({3, 5});
  schedule.partition(group, SimTime::millis(2.5), SimTime::millis(6.5));
  sim::Simulator simulator;
  std::vector<std::uint32_t> downs, ups;
  FaultSchedule::Hooks hooks;
  hooks.link_down = [&](std::uint32_t link) { downs.push_back(link); };
  hooks.link_up = [&](std::uint32_t link) { ups.push_back(link); };
  obs::Registry metrics;
  schedule.arm(simulator, std::move(hooks), &metrics);
  simulator.run();
  EXPECT_EQ(downs, (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(ups, (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(metrics.counter("fault.injected.partition").value(), 1u);
  EXPECT_EQ(metrics.counter("fault.injected.link_down").value(), 2u);
  EXPECT_EQ(metrics.counter("fault.injected.link_up").value(), 2u);
}

TEST(FaultSchedule, EmptyHooksStillCountInjectedFaults) {
  FaultSchedule schedule;
  schedule.flap(1, SimTime::millis(1), SimTime::millis(2));
  schedule.crash(0, SimTime::millis(3));
  sim::Simulator simulator;
  obs::Registry metrics;
  schedule.arm(simulator, {}, &metrics);
  EXPECT_EQ(simulator.run(), 3u);
  EXPECT_EQ(metrics.counter("fault.injected.link_down").value(), 1u);
  EXPECT_EQ(metrics.counter("fault.injected.link_up").value(), 1u);
  EXPECT_EQ(metrics.counter("fault.injected.cell_crash").value(), 1u);
  EXPECT_EQ(metrics.counter("fault.injected.partition").value(), 0u);
}

TEST(FaultSchedule, SameTimeEventsFireInInsertionOrder) {
  FaultSchedule schedule;
  schedule.crash(4, SimTime::millis(1));
  schedule.add({SimTime::millis(1), FaultKind::kLinkDown, 2});
  schedule.add({SimTime::millis(1), FaultKind::kLinkUp, 2});
  schedule.crash(1, SimTime::millis(1));
  sim::Simulator simulator;
  std::vector<std::string> log;
  FaultSchedule::Hooks hooks;
  hooks.link_down = [&log](std::uint32_t l) { log.push_back("down:" + std::to_string(l)); };
  hooks.link_up = [&log](std::uint32_t l) { log.push_back("up:" + std::to_string(l)); };
  hooks.cell_crash = [&log](std::uint32_t l) { log.push_back("crash:" + std::to_string(l)); };
  schedule.arm(simulator, std::move(hooks));
  simulator.run();
  EXPECT_EQ(log, (std::vector<std::string>{"crash:4", "down:2", "up:2", "crash:1"}));
}

TEST(UnreliableCall, LossFreeProbeAlwaysSucceedsWithoutRetries) {
  SignalingFaults faults;  // trivial
  EXPECT_FALSE(faults.enabled());
  UnreliableCall call(faults, sim::Rng(1));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(call.attempt());
  EXPECT_EQ(call.retries(), 0u);
  EXPECT_EQ(call.timeouts(), 0u);
}

TEST(UnreliableCall, CertainLossTimesOutAfterRetryBudget) {
  SignalingFaults faults;
  faults.model = LinkFaultModel::bernoulli_loss(1.0);
  faults.max_attempts = 3;
  UnreliableCall call(faults, sim::Rng(2));
  EXPECT_FALSE(call.attempt());
  EXPECT_EQ(call.timeouts(), 1u);
  EXPECT_EQ(call.retries(), 2u);  // attempts beyond the first
}

TEST(UnreliableCall, RetriesRecoverModerateLoss) {
  SignalingFaults faults;
  faults.model = LinkFaultModel::bernoulli_loss(0.3);
  faults.max_attempts = 5;
  UnreliableCall call(faults, sim::Rng(3));
  int granted = 0;
  for (int i = 0; i < 1000; ++i) granted += call.attempt() ? 1 : 0;
  // Per attempt both directions must survive: p = 0.49; five tries make a
  // timeout vanishingly rare, and retries must show up in the telemetry.
  EXPECT_GT(granted, 950);
  EXPECT_GT(call.retries(), 0u);
}

}  // namespace
}  // namespace imrm::fault
