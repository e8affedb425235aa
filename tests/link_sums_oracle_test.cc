// Oracle for the per-link sums NetworkState keeps for Table 2 admission.
//
// Random admit / teardown / set_allocated / set_capacity / advance
// reservation churn runs on the Fig. 4 backbone. The test keeps its own
// model of every live connection (route, b_min and the per-hop buffers the
// admission result reported) and of every link's advance pool. After each
// step it recounts every link from that model and from the connection
// table, and requires the link's running sums, its connection count and
// the ascending live-id list to agree with the recount.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "connection_table.h"
#include "core/network_environment.h"
#include "maxmin/bridge.h"
#include "mobility/floorplan.h"
#include "net/network_state.h"
#include "net/routing.h"
#include "sim/simulator.h"

namespace imrm::core {
namespace {

using qos::kbps;

struct Admitted {
  net::Route route;
  double b_min = 0.0;
  double b_max = 0.0;
  std::vector<double> buffers;  // per hop, from the admission result
};

// Sums recounted per link id.
struct Recount {
  double b_min = 0.0;
  double buffer = 0.0;
  std::size_t connections = 0;
};

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

void expect_sums_match(const net::NetworkState& network,
                       const std::map<net::ConnectionId, Admitted>& live,
                       const std::vector<double>& advance, int step) {
  SCOPED_TRACE("step " + std::to_string(step));
  // The live-id list is exactly the model's keys, ascending.
  std::vector<net::ConnectionId> expected_ids;
  for (const auto& [id, conn] : live) expected_ids.push_back(id);
  ASSERT_EQ(network.connection_ids(), expected_ids);
  ASSERT_EQ(network.connection_count(), live.size());

  std::vector<Recount> model(network.link_count());
  for (const auto& [id, admitted] : live) {
    const net::Connection& conn = network.connection(id);
    ASSERT_EQ(conn.route, admitted.route);
    ASSERT_EQ(conn.hop_buffers, admitted.buffers);
    for (std::size_t hop = 0; hop < admitted.route.size(); ++hop) {
      Recount& r = model[admitted.route[hop].value()];
      r.b_min += admitted.b_min;
      r.buffer += admitted.buffers[hop];
      ++r.connections;
    }
  }
  for (std::size_t l = 0; l < network.link_count(); ++l) {
    const net::LinkId lid{net::LinkId::underlying(l)};
    const net::LinkState& link = network.link(lid);
    // The same sums read through the connection table.
    Recount table;
    test_support::for_each_connection_on(
        network, lid, [&table](const net::Connection& conn, std::size_t hop) {
          table.b_min += conn.request.bandwidth.b_min;
          table.buffer += conn.hop_buffers[hop];
          ++table.connections;
        });
    const Recount& want = model[l];
    // Running sums and recounts round differently; a wrong sum is off by a
    // whole connection's b_min (>= 16 kb/s) or buffer (>= 8000 bits).
    constexpr double tol_b = 1e-6;
    constexpr double tol_buf = 1e-6;
    ASSERT_EQ(link.connection_count(), want.connections) << "link " << l;
    ASSERT_EQ(table.connections, want.connections) << "link " << l;
    ASSERT_NEAR(link.sum_b_min(), want.b_min, tol_b) << "link " << l;
    ASSERT_NEAR(table.b_min, want.b_min, tol_b) << "link " << l;
    ASSERT_NEAR(link.buffer_reserved(), want.buffer, tol_buf) << "link " << l;
    ASSERT_NEAR(table.buffer, want.buffer, tol_buf) << "link " << l;
    ASSERT_NEAR(link.advance_reserved(), advance[l], 1e-6) << "link " << l;
    ASSERT_NEAR(link.snapshot().buffer_capacity, link.buffer_capacity() - want.buffer, tol_buf)
        << "link " << l;
  }
}

class LinkSumsOracle : public ::testing::TestWithParam<int> {};

TEST_P(LinkSumsOracle, RandomChurnKeepsSumsEqualToARecount) {
  std::mt19937_64 rng{std::uint64_t(GetParam())};
  sim::Simulator simulator;
  const NetworkEnvironment env(mobility::fig4_environment(), simulator, BackboneConfig{});
  const net::Topology& topology = env.topology();
  net::NetworkState network(topology);
  const net::Router router(topology);
  const std::size_t nodes = topology.node_count();
  const std::size_t links = topology.link_count();

  std::map<net::ConnectionId, Admitted> live;
  std::vector<double> advance(links, 0.0);
  std::vector<double> capacity(links);
  for (std::size_t l = 0; l < links; ++l) {
    capacity[l] = network.link(net::LinkId{net::LinkId::underlying(l)}).capacity();
  }
  auto random_live = [&]() {
    auto it = live.begin();
    std::advance(it, std::ptrdiff_t(rng() % live.size()));
    return it;
  };
  auto random_link = [&]() { return net::LinkId{net::LinkId::underlying(rng() % links)}; };

  net::Route route;
  std::size_t admitted = 0;
  std::size_t torn_down = 0;
  for (int step = 0; step < 3000; ++step) {
    const unsigned op = unsigned(rng() % 10);
    if (op < 4 || live.empty()) {
      const net::NodeId src{net::NodeId::underlying(rng() % nodes)};
      const net::NodeId dst{net::NodeId::underlying(rng() % nodes)};
      if (!router.shortest_path(src, dst, route) || route.empty()) continue;
      const qos::QosRequest request = random_request(rng);
      const auto mobility = rng() % 2 == 0 ? qos::MobilityClass::kStatic
                                           : qos::MobilityClass::kMobile;
      if (const auto id = network.admit(src, dst, route, request, mobility)) {
        Admitted& a = live[*id];
        a.route = route;
        a.b_min = request.bandwidth.b_min;
        a.b_max = request.bandwidth.b_max;
        for (std::size_t hop = 0; hop < route.size(); ++hop) {
          a.buffers.push_back(network.last_result().hops[hop].buffer);
        }
        ++admitted;
      }
    } else if (op < 7) {
      // Up to three teardowns between two reads of the live-id list.
      for (unsigned n = 1 + unsigned(rng() % 3); n > 0 && !live.empty(); --n) {
        const auto victim = random_live();
        network.teardown(victim->first);
        live.erase(victim);
        ++torn_down;
      }
    } else if (op == 7) {
      const auto it = random_live();
      std::uniform_real_distribution<double> rate(it->second.b_min, it->second.b_max);
      network.set_allocated(it->first, rate(rng));
    } else if (op == 8) {
      // Capacity wobbles on a random link, or the pool of one moves.
      const net::LinkId lid = random_link();
      if (rng() % 2 == 0) {
        std::uniform_real_distribution<double> scale(0.25, 1.0);
        network.link(lid).set_capacity(capacity[lid.value()] * scale(rng));
      } else if (advance[lid.value()] > 0.0 && rng() % 2 == 0) {
        const double amount = advance[lid.value()] * (rng() % 2 == 0 ? 1.0 : 0.5);
        network.link(lid).release_advance(amount);
        advance[lid.value()] -= amount;
      } else {
        const double amount = kbps(double(16 + rng() % 64));
        network.link(lid).reserve_advance(amount);
        advance[lid.value()] += amount;
      }
    } else {
      // Max-min re-division writes allocations through set_allocated.
      maxmin::resolve_conflicts(network, /*static_only=*/rng() % 2 == 0);
    }
    expect_sums_match(network, live, advance, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The churn really churned: many admits and teardowns, some still live.
  EXPECT_GT(admitted, 300u);
  EXPECT_GT(torn_down, 300u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkSumsOracle, ::testing::Range(1, 5));

}  // namespace
}  // namespace imrm::core
