// Randomized stress campaigns over the full backbone environment: random
// opens, closes, handoffs and renegotiations, with per-step invariant
// checks. Failure injection included: wireless capacity collapses mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "connection_table.h"
#include "core/network_environment.h"
#include "mobility/floorplan.h"

namespace imrm::core {
namespace {

using qos::kbps;

qos::QosRequest random_request(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> lo(16.0, 128.0);
  std::uniform_real_distribution<double> factor(1.0, 6.0);
  qos::QosRequest r;
  const double b_min = lo(rng);
  r.bandwidth = {kbps(b_min), kbps(b_min * factor(rng))};
  r.delay_bound = 30.0;
  r.jitter_bound = 30.0;
  r.loss_bound = 0.1;
  r.traffic = {8000.0, 8000.0};
  return r;
}

class StressCampaign : public ::testing::TestWithParam<int> {
 protected:
  // `portables` lists every portable that may hold a session.
  void check_invariants(const NetworkEnvironment& env, const std::vector<PortableId>& portables) {
    const net::NetworkState& net = env.network();
    for (const auto& cell : env.map().cells()) {
      const net::LinkId air = env.wireless_link(cell.id);
      const auto& link = net.link(air);
      // The pool holds exactly the live sessions' reservations in the cell,
      // and guaranteed minima never exceed what admission could have allowed.
      double reserved = 0.0;
      for (const PortableId p : portables) {
        const auto [where, bps] = env.reservation(p);
        if (where == cell.id) reserved += bps;
      }
      EXPECT_NEAR(link.advance_reserved(), reserved, 1e-6) << cell.name;
      EXPECT_LE(link.sum_b_min(), link.capacity() + 1e-6) << cell.name;
      // Every allocation sits within its connection's bounds and the link's
      // allocations are feasible.
      double allocated = 0.0;
      test_support::for_each_connection_on(
          net, air, [&allocated](const net::Connection& conn, std::size_t) {
            EXPECT_GE(conn.allocated, conn.request.bandwidth.b_min - 1e-6);
            EXPECT_LE(conn.allocated, conn.request.bandwidth.b_max + 1e-6);
            allocated += conn.allocated;
          });
      EXPECT_LE(allocated, link.capacity() + 1e-6) << cell.name;
    }
  }
};

TEST_P(StressCampaign, RandomOperationsPreserveInvariants) {
  std::mt19937_64 rng{std::uint64_t(GetParam())};
  sim::Simulator simulator;
  BackboneConfig config;
  NetworkEnvironment env(mobility::fig4_environment(), simulator, config);

  std::vector<PortableId> portables;
  std::vector<mobility::CellId> all_cells;
  for (const auto& cell : env.map().cells()) all_cells.push_back(cell.id);
  for (int i = 0; i < 12; ++i) {
    portables.push_back(
        env.add_portable(all_cells[std::size_t(rng() % all_cells.size())]));
  }

  std::size_t ops = 0;
  for (int step = 0; step < 300; ++step) {
    simulator.run_until(simulator.now() + sim::Duration::seconds(30));
    const PortableId p = portables[std::size_t(rng() % portables.size())];
    switch (rng() % 5) {
      case 0:
        if (!env.has_connection(p)) {
          env.open_connection(p, random_request(rng),
                              rng() % 2 ? Direction::kDownlink : Direction::kUplink);
          ++ops;
        }
        break;
      case 1:
        if (env.has_connection(p)) {
          env.close_connection(p);
          ++ops;
        }
        break;
      case 2: {  // handoff to a random neighbor
        const auto& cell = env.map().cell(env.mobility().portable(p).current_cell);
        const auto next = cell.neighbors[std::size_t(rng() % cell.neighbors.size())];
        env.handoff(p, next);
        ++ops;
        break;
      }
      case 3:
        if (env.has_connection(p)) {
          env.renegotiate(p, random_request(rng));
          ++ops;
        }
        break;
      case 4:
        env.adapt();
        break;
    }
    check_invariants(env, portables);
    if (HasFailure()) {
      ADD_FAILURE() << "invariant broke at step " << step << " (seed " << GetParam()
                    << ")";
      return;
    }
  }
  EXPECT_GT(ops, 50u);  // the campaign actually did things
}

TEST_P(StressCampaign, OccupantChurnKeepsThePoolExact) {
  // Office occupants shuttle between their offices and the corridor with
  // heavy minima, so most handoffs are predicted and many targets are full:
  // reservations are consumed, dropped with their owner, cancelled and
  // re-placed, and the pool must match the live sessions after every step.
  std::mt19937_64 rng{std::uint64_t(GetParam()) + 7};
  sim::Simulator simulator;
  mobility::CampusConfig floor;
  floor.offices = 4;
  floor.corridor_segments = 2;
  NetworkEnvironment env(mobility::campus_environment(floor), simulator, BackboneConfig{});

  const std::vector<mobility::CellId> offices =
      env.map().cells_of_class(mobility::CellClass::kOffice);
  std::vector<PortableId> portables;
  for (int i = 0; i < 24; ++i) {
    const mobility::CellId home = offices[std::size_t(rng() % offices.size())];
    const mobility::CellId start = env.map().cell(home).neighbors.front();  // its corridor
    portables.push_back(env.add_portable(start, home));
  }
  auto heavy_request = [&rng] {
    std::uniform_real_distribution<double> b_min(250.0, 550.0);
    qos::QosRequest r = random_request(rng);
    const double lo = b_min(rng);
    r.bandwidth = {kbps(lo), kbps(2.0 * lo)};
    return r;
  };

  for (int step = 0; step < 400; ++step) {
    simulator.run_until(simulator.now() + sim::Duration::seconds(20));
    const PortableId p = portables[std::size_t(rng() % portables.size())];
    const auto& portable = env.mobility().portable(p);
    switch (rng() % 8) {
      case 0:
      case 1:
        if (!env.has_connection(p)) {
          env.open_connection(p, heavy_request(),
                              rng() % 2 ? Direction::kDownlink : Direction::kUplink);
        }
        break;
      case 2:
        if (env.has_connection(p)) env.close_connection(p);
        break;
      case 3:
        if (env.has_connection(p)) env.renegotiate(p, heavy_request());
        break;
      case 4:
        env.adapt();
        break;
      default: {  // mostly home and back, sometimes a random neighbor
        const auto& cell = env.map().cell(portable.current_cell);
        const auto& nbrs = cell.neighbors;
        const bool home_is_next =
            std::find(nbrs.begin(), nbrs.end(), *portable.home_office) != nbrs.end();
        env.handoff(p, home_is_next && rng() % 4 != 0
                           ? *portable.home_office
                           : nbrs[std::size_t(rng() % nbrs.size())]);
        break;
      }
    }
    check_invariants(env, portables);
    if (HasFailure()) {
      ADD_FAILURE() << "invariant broke at step " << step << " (seed " << GetParam()
                    << ")";
      return;
    }
  }
  // Both ends of a reservation's life were exercised.
  EXPECT_GT(env.stats().reservations_consumed, 0u);
  EXPECT_GT(env.stats().handoff_drops, 0u);

  for (const PortableId p : portables) {
    if (env.has_connection(p)) env.close_connection(p);
  }
  EXPECT_EQ(env.network().connection_count(), 0u);
  for (std::uint32_t l = 0; l < env.network().link_count(); ++l) {
    EXPECT_NEAR(env.network().link(net::LinkId{l}).advance_reserved(), 0.0, 1e-6) << "link " << l;
    EXPECT_NEAR(env.network().link(net::LinkId{l}).sum_b_min(), 0.0, 1e-6) << "link " << l;
  }
}

TEST_P(StressCampaign, WirelessCapacityCollapseIsSurvivable) {
  std::mt19937_64 rng{std::uint64_t(GetParam()) + 99};
  sim::Simulator simulator;
  BackboneConfig config;
  NetworkEnvironment env(mobility::fig4_environment(), simulator, config);
  const auto cells = mobility::fig4_cells(env.map());

  std::vector<PortableId> users;
  for (int i = 0; i < 8; ++i) {
    const auto p = env.add_portable(cells.d);
    if (env.open_connection(p, random_request(rng))) users.push_back(p);
  }
  ASSERT_GE(users.size(), 4u);

  // Failure injection: the wireless link collapses to a quarter capacity,
  // then recovers. Adaptation must keep allocations feasible throughout.
  auto& link = env.network_mut().link(env.wireless_link(cells.d));
  link.set_capacity(qos::mbps(0.4));
  env.adapt();
  const double allocated =
      test_support::allocated_on(env.network(), env.wireless_link(cells.d));
  // The guaranteed minima may exceed a collapsed link (that is what
  // renegotiation is for), but adaptation must not allocate *excess* beyond
  // the collapsed capacity.
  const double sum_min = link.sum_b_min();
  EXPECT_LE(allocated, std::max(qos::mbps(0.4), sum_min) + 1e-6);

  link.set_capacity(qos::mbps(1.6));
  env.adapt();
  check_invariants(env, users);

  // Life goes on: handoffs and closes still work.
  EXPECT_TRUE(env.handoff(users[0], cells.c) || !env.has_connection(users[0]));
  for (const PortableId p : users) {
    if (env.has_connection(p)) env.close_connection(p);
  }
  EXPECT_EQ(env.network().connection_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressCampaign, ::testing::Range(1, 7));

}  // namespace
}  // namespace imrm::core
