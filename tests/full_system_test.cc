// Full-system integration: the backbone environment under a walking
// population AND a fading wireless channel for a simulated half-day. This
// is the "everything at once" test: Table 2 admission, multicast warm-up,
// profile learning, advance reservation, handoff re-routing, max-min
// adaptation reacting to Gilbert-Elliott capacity changes, and drop
// accounting — with end-of-day sanity assertions.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "connection_table.h"
#include "core/network_environment.h"
#include "mobility/floorplan.h"
#include "mobility/movement.h"
#include "workload/channel.h"

namespace imrm::core {
namespace {

using qos::kbps;
using sim::Duration;
using sim::SimTime;

// The sum of the portables' advance reservations in `cell`: what its
// wireless pool must hold.
double reserved_in(const NetworkEnvironment& env, const std::vector<net::PortableId>& portables,
                   mobility::CellId cell) {
  double reserved = 0.0;
  for (const net::PortableId p : portables) {
    const auto [where, bps] = env.reservation(p);
    if (where == cell) reserved += bps;
  }
  return reserved;
}

TEST(FullSystem, HalfDayCampusUnderFading) {
  sim::Simulator simulator;
  BackboneConfig config;
  config.static_threshold = Duration::minutes(3);
  NetworkEnvironment env(mobility::fig4_environment(), simulator, config);
  const auto cells = mobility::fig4_cells(env.map());

  // Population: 10 walkers with adaptive connections; half are office
  // regulars (occupants of A or B).
  qos::QosRequest request;
  request.bandwidth = {kbps(32), kbps(256)};
  request.delay_bound = 10.0;
  request.jitter_bound = 10.0;
  request.loss_bound = 0.05;
  request.traffic = {8000.0, 8000.0};

  sim::Rng rng(2026);
  std::vector<net::PortableId> population;
  for (int i = 0; i < 10; ++i) {
    std::optional<mobility::CellId> home;
    if (i % 2 == 0) home = (i % 4 == 0) ? cells.a : cells.b;
    const auto p = env.add_portable(cells.c, home);
    ASSERT_TRUE(env.open_connection(p, request)) << i;
    population.push_back(p);
  }

  const SimTime horizon = SimTime::hours(4);

  // Walkers follow the calibrated student pattern.
  const mobility::TransitionTable table =
      mobility::fig4_transition_table(env.map(), mobility::fig4_student_weights());
  struct Walker {
    NetworkEnvironment* env;
    const mobility::TransitionTable* table;
    sim::Rng rng;
    SimTime horizon;
    void step(net::PortableId p) {
      auto& simulator = env->mobility().simulator();
      const auto at = simulator.now() + Duration::minutes(rng.exponential_mean(4.0));
      if (at > horizon) return;
      simulator.at(at, [this, p] {
        const auto& me = env->mobility().portable(p);
        const auto next =
            table->sample(env->map(), me.previous_cell, me.current_cell, rng);
        env->handoff(p, next);
        step(p);
      });
    }
  };
  auto walker = std::make_shared<Walker>(Walker{&env, &table, rng.fork(), horizon});
  for (auto p : population) walker->step(p);

  // Corridor D's wireless link fades between 1.6 Mbps and 0.6 Mbps.
  workload::GilbertElliottChannel::Config ch;
  ch.good_capacity = qos::mbps(1.6);
  ch.bad_capacity = qos::mbps(0.6);
  ch.mean_good = Duration::minutes(4);
  ch.mean_bad = Duration::seconds(45);
  workload::GilbertElliottChannel channel(
      simulator, ch, rng.fork(), [&](qos::BitsPerSecond capacity) {
        env.network_mut().link(env.wireless_link(cells.d)).set_capacity(capacity);
        env.adapt();
      });
  channel.start(horizon);

  // Periodic re-classification + adaptation (the Figure 1 loop).
  simulator.every(Duration::minutes(1), horizon, [&] { env.adapt(); });

  simulator.run();

  const auto& s = env.stats();
  // The day actually happened.
  EXPECT_GT(s.handoffs, 200u);
  EXPECT_GT(channel.transitions(), 20u);
  // Most handoffs warmed by multicast branches.
  EXPECT_GT(double(s.warm_handoffs), 0.9 * double(s.handoffs - s.handoff_drops));
  // Advance reservations were placed and a solid share were consumed.
  EXPECT_GT(s.reservations_placed, 100u);
  EXPECT_GT(double(s.reservations_consumed), 0.5 * double(s.reservations_placed) * 0.5);
  // Drops are possible under fading but must stay a small fraction.
  EXPECT_LT(double(s.handoff_drops), 0.1 * double(s.handoffs));

  // Final-state invariants across every wireless link.
  for (const auto& cell : env.map().cells()) {
    const net::LinkId air = env.wireless_link(cell.id);
    const auto& link = env.network().link(air);
    double allocated = 0.0;
    test_support::for_each_connection_on(
        env.network(), air, [&allocated](const net::Connection& conn, std::size_t) {
          EXPECT_GE(conn.allocated, conn.request.bandwidth.b_min - 1e-6);
          EXPECT_LE(conn.allocated, conn.request.bandwidth.b_max + 1e-6);
          allocated += conn.allocated;
        });
    EXPECT_LE(allocated, link.capacity() + 1e-6) << cell.name;
    EXPECT_NEAR(link.advance_reserved(), reserved_in(env, population, cell.id), 1e-6)
        << cell.name;
  }

  // Teardown leaves a clean network.
  for (auto p : population) {
    if (env.has_connection(p)) env.close_connection(p);
  }
  EXPECT_EQ(env.network().connection_count(), 0u);
}

TEST(FullSystem, ThreeFloorBuildingAtScale) {
  // 3 floors x 16 cells with one profile-server zone per floor; 36 walkers
  // carrying connections for two simulated hours. Checks that the whole
  // pipeline scales and the multi-zone profile plumbing stays consistent.
  sim::Simulator simulator;
  BackboneConfig config;
  config.zones = 3;
  mobility::BuildingConfig building;
  building.floors = 3;
  NetworkEnvironment env(mobility::building_environment(building), simulator, config);

  EXPECT_GE(env.map().size(), 45u);
  EXPECT_EQ(env.universe().zone_count(), 3u);

  qos::QosRequest request;
  request.bandwidth = {kbps(16), kbps(64)};
  request.delay_bound = 30.0;
  request.jitter_bound = 30.0;
  request.loss_bound = 0.1;
  request.traffic = {8000.0, 8000.0};

  sim::Rng rng(5);
  std::vector<net::PortableId> population;
  for (int i = 0; i < 36; ++i) {
    const mobility::CellId start{
        static_cast<net::CellId::underlying>(std::size_t(i) % env.map().size())};
    const auto p = env.add_portable(start);
    if (env.open_connection(p, request)) population.push_back(p);
  }
  EXPECT_GT(population.size(), 30u);

  struct Walker {
    NetworkEnvironment* env;
    sim::Rng rng;
    void step(net::PortableId p) {
      auto& simulator = env->mobility().simulator();
      const auto at = simulator.now() + Duration::minutes(rng.exponential_mean(3.0));
      if (at > SimTime::hours(2)) return;
      simulator.at(at, [this, p] {
        const auto& me = env->mobility().portable(p);
        const auto& neighbors = env->map().cell(me.current_cell).neighbors;
        env->handoff(p, neighbors[std::size_t(rng.uniform_int(0, int(neighbors.size()) - 1))]);
        step(p);
      });
    }
  };
  auto walker = std::make_shared<Walker>(Walker{&env, rng.fork()});
  for (auto p : population) walker->step(p);
  simulator.every(Duration::minutes(2), SimTime::hours(2), [&] { env.adapt(); });
  simulator.run();

  const auto& s = env.stats();
  EXPECT_GT(s.handoffs, 500u);
  EXPECT_GT(env.universe().migrations(), 50u);  // floors crossed regularly
  EXPECT_LT(double(s.handoff_drops), 0.05 * double(s.handoffs));
  // Wireless invariants on every cell of every floor.
  for (const auto& cell : env.map().cells()) {
    const auto& link = env.network().link(env.wireless_link(cell.id));
    EXPECT_LE(link.sum_b_min(), link.capacity() + 1e-6) << cell.name;
    EXPECT_NEAR(link.advance_reserved(), reserved_in(env, population, cell.id), 1e-6)
        << cell.name;
  }
}

TEST(FullSystem, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulator simulator;
    BackboneConfig config;
    NetworkEnvironment env(mobility::fig4_environment(), simulator, config);
    const auto cells = mobility::fig4_cells(env.map());
    qos::QosRequest request;
    request.bandwidth = {kbps(32), kbps(128)};
    request.delay_bound = 10.0;
    request.jitter_bound = 10.0;
    request.loss_bound = 0.05;
    request.traffic = {8000.0, 8000.0};

    sim::Rng rng(77);
    const mobility::TransitionTable table =
        mobility::fig4_transition_table(env.map(), mobility::fig4_faculty_weights());
    std::vector<net::PortableId> population;
    for (int i = 0; i < 4; ++i) {
      const auto p = env.add_portable(cells.c, cells.a);
      env.open_connection(p, request);
      population.push_back(p);
    }
    struct Walker {
      NetworkEnvironment* env;
      const mobility::TransitionTable* table;
      sim::Rng rng;
      void step(net::PortableId p) {
        auto& simulator = env->mobility().simulator();
        const auto at = simulator.now() + Duration::minutes(rng.exponential_mean(3.0));
        if (at > SimTime::hours(1)) return;
        simulator.at(at, [this, p] {
          const auto& me = env->mobility().portable(p);
          env->handoff(p, table->sample(env->map(), me.previous_cell, me.current_cell,
                                        rng));
          step(p);
        });
      }
    };
    auto walker = std::make_shared<Walker>(Walker{&env, &table, rng.fork()});
    for (auto p : population) walker->step(p);
    simulator.run();
    return std::tuple{env.stats().handoffs, env.stats().handoff_drops,
                      env.stats().reservations_consumed,
                      env.stats().total_handoff_latency_s};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace imrm::core
