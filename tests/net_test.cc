// Tests for the network substrate: topology construction, Dijkstra routing
// and its per-source memo, link-state bookkeeping, end-to-end admission
// through NetworkState, and multicast branch setup.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "connection_table.h"
#include "net/ids.h"
#include "net/link_state.h"
#include "net/multicast.h"
#include "net/network_state.h"
#include "net/routing.h"
#include "net/topology.h"

namespace imrm::net {
namespace {

using qos::kbps;
using qos::mbps;

qos::QosRequest small_request() {
  qos::QosRequest r;
  r.bandwidth = {kbps(16), kbps(64)};
  // Generous delay/jitter bounds: at b_min = 16 kbps the per-hop jitter term
  // (sigma + l L_max)/b_min is already 1.5 s at hop 2.
  r.delay_bound = 10.0;
  r.jitter_bound = 10.0;
  r.loss_bound = 0.1;
  r.traffic = {8000.0, 8000.0};
  return r;
}

std::size_t out_degree(const Topology& topo, NodeId node) {
  return std::size_t(std::count_if(topo.links().begin(), topo.links().end(),
                                   [node](const Link& l) { return l.from == node; }));
}

TEST(Ids, DistinctTypesAndValidity) {
  const NodeId n{3};
  EXPECT_TRUE(n.is_valid());
  EXPECT_FALSE(NodeId::invalid().is_valid());
  EXPECT_EQ(n.value(), 3u);
  EXPECT_LT(NodeId{1}, NodeId{2});
}

TEST(Topology, NodesAndLinks) {
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kSwitch, "a");
  const NodeId b = topo.add_node(NodeKind::kBaseStation);
  const LinkId l = topo.add_link(a, b, mbps(10), 1e6, 0.01, true);
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_EQ(topo.link(l).from, a);
  EXPECT_EQ(topo.link(l).to, b);
  EXPECT_TRUE(topo.link(l).wireless);
  EXPECT_EQ(topo.node(b).kind, NodeKind::kBaseStation);
  EXPECT_EQ(out_degree(topo, a), 1u);
  EXPECT_EQ(out_degree(topo, b), 0u);
}

TEST(Topology, DuplexAddsBothDirections) {
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kSwitch);
  const NodeId b = topo.add_node(NodeKind::kSwitch);
  const LinkId f = topo.add_duplex(a, b, mbps(10), 1e6);
  EXPECT_EQ(topo.link_count(), 2u);
  EXPECT_EQ(topo.link(f).from, a);
  EXPECT_EQ(out_degree(topo, b), 1u);
}

TEST(Routing, FindsShortestHopPath) {
  // a - b - c  and a - c direct: direct wins on hops.
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kSwitch);
  const NodeId b = topo.add_node(NodeKind::kSwitch);
  const NodeId c = topo.add_node(NodeKind::kSwitch);
  topo.add_duplex(a, b, mbps(10), 1e6);
  topo.add_duplex(b, c, mbps(10), 1e6);
  const LinkId direct = topo.add_duplex(a, c, mbps(1), 1e6);

  const Router router(topo);
  const auto route = router.shortest_path(a, c);
  ASSERT_TRUE(route.has_value());
  ASSERT_EQ(route->size(), 1u);
  EXPECT_EQ(route->front(), direct);
}

TEST(Routing, InverseCapacityAvoidsSlowLink) {
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kSwitch);
  const NodeId b = topo.add_node(NodeKind::kSwitch);
  const NodeId c = topo.add_node(NodeKind::kSwitch);
  topo.add_duplex(a, b, mbps(100), 1e6);
  topo.add_duplex(b, c, mbps(100), 1e6);
  topo.add_duplex(a, c, mbps(1), 1e6);  // direct but very slow

  const Router router(topo, Router::inverse_capacity_weight());
  const auto route = router.shortest_path(a, c);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->size(), 2u);  // goes around via b
}

TEST(Routing, UnreachableReturnsNullopt) {
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kSwitch);
  const NodeId b = topo.add_node(NodeKind::kSwitch);
  const Router router(topo);
  EXPECT_FALSE(router.shortest_path(a, b).has_value());
}

TEST(Routing, PathToSelfIsEmpty) {
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kSwitch);
  const Router router(topo);
  const auto route = router.shortest_path(a, a);
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->empty());
}

TEST(Routing, RouteNodesChainsEndpoints) {
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kSwitch);
  const NodeId b = topo.add_node(NodeKind::kSwitch);
  const NodeId c = topo.add_node(NodeKind::kSwitch);
  topo.add_duplex(a, b, mbps(10), 1e6);
  topo.add_duplex(b, c, mbps(10), 1e6);
  const Router router(topo);
  const auto route = router.shortest_path(a, c);
  ASSERT_TRUE(route);
  const auto nodes = route_nodes(topo, *route);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes.front(), a);
  EXPECT_EQ(nodes.back(), c);
}

TEST(Routing, OutOfRangeNodesThrow) {
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kSwitch);
  const Router router(topo);
  EXPECT_THROW((void)router.shortest_path(NodeId{1}, a), std::out_of_range);
  EXPECT_THROW((void)router.shortest_path(a, NodeId{1}), std::out_of_range);
  EXPECT_THROW((void)router.shortest_path(NodeId::invalid(), a), std::out_of_range);
  EXPECT_THROW((void)router.shortest_path(a, NodeId::invalid()), std::out_of_range);
  EXPECT_TRUE(router.shortest_path(a, a).has_value());  // still usable after a throw
}

TEST(Routing, MemoDroppedWhenTopologyGrows) {
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kSwitch);
  const NodeId b = topo.add_node(NodeKind::kSwitch);
  const NodeId c = topo.add_node(NodeKind::kSwitch);
  topo.add_duplex(a, b, mbps(10), 1e6);
  topo.add_duplex(b, c, mbps(10), 1e6);
  const Router router(topo);
  EXPECT_EQ(router.shortest_path(a, c)->size(), 2u);

  // A new link must be seen by the next query from an already-routed source.
  const LinkId direct = topo.add_link(a, c, mbps(10), 1e6);
  ASSERT_EQ(router.shortest_path(a, c)->size(), 1u);
  EXPECT_EQ(router.shortest_path(a, c)->front(), direct);

  // So must a new node, reachable or not.
  const NodeId d = topo.add_node(NodeKind::kSwitch);
  EXPECT_FALSE(router.shortest_path(a, d).has_value());
  topo.add_link(c, d, mbps(10), 1e6);
  EXPECT_EQ(router.shortest_path(a, d)->size(), 2u);
}

// Random directed topology: `nodes` nodes, `links` links between random
// distinct endpoints with random capacities (so some pairs are unreachable
// and inverse-capacity routes differ from hop routes).
void grow_random(Topology& topo, std::size_t nodes, std::size_t links, std::mt19937& rng) {
  for (std::size_t i = 0; i < nodes; ++i) topo.add_node(NodeKind::kSwitch);
  std::uniform_int_distribution<std::size_t> pick(0, topo.node_count() - 1);
  std::uniform_real_distribution<double> capacity(1.0, 100.0);
  for (std::size_t i = 0; i < links; ++i) {
    const std::size_t from = pick(rng);
    const std::size_t to = pick(rng);
    if (from == to) continue;
    topo.add_link(NodeId{static_cast<NodeId::underlying>(from)},
                  NodeId{static_cast<NodeId::underlying>(to)}, mbps(capacity(rng)), 1e6);
  }
}

// Bellman-Ford distances from `src`: an independent reference for Dijkstra.
std::vector<double> reference_distances(const Topology& topo, NodeId src,
                                        const Router::WeightFn& weight) {
  std::vector<double> dist(topo.node_count(), std::numeric_limits<double>::infinity());
  dist[src.value()] = 0.0;
  for (std::size_t round = 0; round < topo.node_count(); ++round) {
    for (const Link& l : topo.links()) {
      dist[l.to.value()] = std::min(dist[l.to.value()], dist[l.from.value()] + weight(l));
    }
  }
  return dist;
}

// Queries every (src, dst) pair of `topo` through `memo`, in a shuffled
// order, and checks each answer against a freshly constructed Router and
// against the Bellman-Ford distance.
void expect_memo_matches_fresh(const Topology& topo, const Router& memo,
                               const Router::WeightFn& weight, std::mt19937& rng) {
  const auto n = static_cast<NodeId::underlying>(topo.node_count());
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId::underlying s = 0; s < n; ++s) {
    for (NodeId::underlying d = 0; d < n; ++d) pairs.emplace_back(NodeId{s}, NodeId{d});
  }
  std::shuffle(pairs.begin(), pairs.end(), rng);
  for (const auto& [src, dst] : pairs) {
    const auto memoized = memo.shortest_path(src, dst);
    const auto fresh = Router(topo, weight).shortest_path(src, dst);
    ASSERT_EQ(memoized, fresh) << "src=" << src.value() << " dst=" << dst.value();
    const double expected = reference_distances(topo, src, weight)[dst.value()];
    if (!memoized) {
      EXPECT_TRUE(std::isinf(expected));
      continue;
    }
    if (src == dst) {
      EXPECT_TRUE(memoized->empty());
    }
    double cost = 0.0;
    NodeId at = src;
    for (LinkId lid : *memoized) {
      ASSERT_EQ(topo.link(lid).from, at);
      at = topo.link(lid).to;
      cost += weight(topo.link(lid));
    }
    EXPECT_EQ(at, dst);
    EXPECT_NEAR(cost, expected, 1e-9 * std::max(1.0, expected));
  }
}

TEST(RoutingProperty, MemoizedRoutesMatchFreshRouter) {
  std::mt19937 rng(20260417);
  const std::vector<std::pair<const char*, Router::WeightFn>> weights = {
      {"hop", Router::hop_weight()}, {"inverse_capacity", Router::inverse_capacity_weight()}};
  for (const auto& [name, weight] : weights) {
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(std::string(name) + " trial " + std::to_string(trial));
      Topology topo;
      grow_random(topo, 1 + rng() % 10, rng() % 30, rng);
      const Router memo(topo, weight);
      expect_memo_matches_fresh(topo, memo, weight, rng);
      expect_memo_matches_fresh(topo, memo, weight, rng);  // all answers memoized now
      grow_random(topo, rng() % 3, rng() % 10, rng);       // invalidates the memo
      expect_memo_matches_fresh(topo, memo, weight, rng);
    }
  }
}

TEST(LinkState, TracksSumBMinAndExcess) {
  LinkState ls(mbps(10), 1e6, 0.0);
  ls.attach(mbps(1), 0.0);
  ls.attach(mbps(2), 0.0);
  EXPECT_DOUBLE_EQ(ls.sum_b_min(), mbps(3));
  EXPECT_EQ(ls.connection_count(), 2u);
  EXPECT_DOUBLE_EQ(ls.excess_available(), mbps(7));
  ls.reserve_advance(mbps(1));
  EXPECT_DOUBLE_EQ(ls.excess_available(), mbps(6));
  ls.detach(mbps(1), 0.0);
  EXPECT_DOUBLE_EQ(ls.sum_b_min(), mbps(2));
  EXPECT_EQ(ls.connection_count(), 1u);
}

TEST(LinkState, ReleaseBeyondTheAdvancePoolThrows) {
  LinkState ls(mbps(10), 1e6, 0.0);
  ls.reserve_advance(kbps(100));
  EXPECT_THROW(ls.release_advance(kbps(200)), std::logic_error);
  EXPECT_DOUBLE_EQ(ls.advance_reserved(), kbps(100));
  // A rounding-sized overshoot is tolerated and leaves the pool empty.
  ls.release_advance(kbps(100) + 1e-7);
  EXPECT_EQ(ls.advance_reserved(), 0.0);
}

TEST(LinkState, SnapshotMirrorsState) {
  LinkState ls(mbps(10), 5e5, 0.02);
  ls.attach(mbps(1), 1e5);
  ls.reserve_advance(mbps(2));
  const auto snap = ls.snapshot();
  EXPECT_DOUBLE_EQ(snap.capacity, mbps(10));
  EXPECT_DOUBLE_EQ(snap.advance_reserved, mbps(2));
  EXPECT_DOUBLE_EQ(snap.sum_b_min, mbps(1));
  EXPECT_DOUBLE_EQ(snap.buffer_capacity, 4e5);  // what the reservation left
  EXPECT_DOUBLE_EQ(snap.error_prob, 0.02);
  EXPECT_DOUBLE_EQ(snap.admissible_bandwidth(), mbps(7));
}

class NetworkStateTest : public ::testing::Test {
 protected:
  NetworkStateTest() {
    src_ = topo_.add_node(NodeKind::kHost, "src");
    sw_ = topo_.add_node(NodeKind::kSwitch, "sw");
    bs_ = topo_.add_node(NodeKind::kBaseStation, "bs");
    topo_.add_duplex(src_, sw_, mbps(10), 1e7);
    topo_.add_duplex(sw_, bs_, mbps(1.6), 1e7, 0.0, true);
  }

  Route route_to_bs() {
    const Router router(topo_);
    return *router.shortest_path(src_, bs_);
  }

  Topology topo_;
  NodeId src_, sw_, bs_;
};

TEST_F(NetworkStateTest, AdmitInstallsOnAllLinks) {
  NetworkState net(topo_);
  const auto id = net.admit(src_, bs_, route_to_bs(), small_request(),
                            qos::MobilityClass::kMobile);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(net.connection_count(), 1u);
  for (LinkId lid : net.connection(*id).route) {
    EXPECT_EQ(net.link(lid).connection_count(), 1u);
    EXPECT_DOUBLE_EQ(net.link(lid).sum_b_min(), kbps(16));
  }
}

TEST_F(NetworkStateTest, AdmitRejectsWhenFull) {
  NetworkState net(topo_);
  // Wireless link is 1.6 Mbps; 100 connections at 16 kbps fill it exactly.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(net.admit(src_, bs_, route_to_bs(), small_request(),
                          qos::MobilityClass::kMobile))
        << "i=" << i;
  }
  const auto rejected = net.admit(src_, bs_, route_to_bs(), small_request(),
                                  qos::MobilityClass::kMobile);
  EXPECT_FALSE(rejected.has_value());
  EXPECT_EQ(net.last_result().reason, qos::RejectReason::kBandwidth);
  EXPECT_EQ(net.connection_count(), 100u);
}

TEST_F(NetworkStateTest, TeardownFreesCapacity) {
  NetworkState net(topo_);
  std::vector<ConnectionId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(*net.admit(src_, bs_, route_to_bs(), small_request(),
                             qos::MobilityClass::kMobile));
  }
  net.teardown(ids.front());
  EXPECT_TRUE(net.admit(src_, bs_, route_to_bs(), small_request(),
                        qos::MobilityClass::kMobile));
}

TEST_F(NetworkStateTest, AdmissionLeavesTheAdvancePoolToItsOwner) {
  NetworkState net(topo_);
  // Fill the wireless link to 99 connections and advance-reserve the rest.
  for (int i = 0; i < 99; ++i) {
    ASSERT_TRUE(net.admit(src_, bs_, route_to_bs(), small_request(),
                          qos::MobilityClass::kMobile));
  }
  const Route route = route_to_bs();
  const LinkId wireless = route.back();
  net.link(wireless).reserve_advance(kbps(16));

  // The reservation blocks admission and admission never spends it ...
  EXPECT_FALSE(net.admit(src_, bs_, route, small_request(), qos::MobilityClass::kMobile));
  EXPECT_DOUBLE_EQ(net.link(wireless).advance_reserved(), kbps(16));
  // ... only its owner's release frees the bandwidth.
  net.link(wireless).release_advance(kbps(16));
  EXPECT_TRUE(net.admit(src_, bs_, route, small_request(), qos::MobilityClass::kMobile));
  EXPECT_DOUBLE_EQ(net.link(wireless).advance_reserved(), 0.0);
}

TEST_F(NetworkStateTest, BufferSpaceIsDepletedByAdmissions) {
  // Shrink the wireless link's buffer so that a handful of connections
  // exhaust it long before bandwidth runs out.
  Topology topo;
  const NodeId src = topo.add_node(NodeKind::kHost);
  const NodeId bs = topo.add_node(NodeKind::kBaseStation);
  // Each WFQ connection reserves sigma + L = 16000 bits of buffer.
  topo.add_duplex(src, bs, mbps(10), /*buffer=*/40000.0);
  NetworkState net(topo);
  const Router router(topo);
  const Route route = *router.shortest_path(src, bs);

  int admitted = 0;
  while (net.admit(src, bs, route, small_request(), qos::MobilityClass::kMobile)) {
    ++admitted;
  }
  EXPECT_EQ(admitted, 2);  // 2 * 16000 = 32000 <= 40000, the third needs 48000
  EXPECT_EQ(net.last_result().reason, qos::RejectReason::kBuffer);

  // Releasing one connection frees its buffer share again.
  net.teardown(net.connection_ids().front());
  EXPECT_TRUE(net.admit(src, bs, route, small_request(), qos::MobilityClass::kMobile));
}

TEST_F(NetworkStateTest, BufferAccountingTracksShares) {
  NetworkState net(topo_);
  const auto id = net.admit(src_, bs_, route_to_bs(), small_request(),
                            qos::MobilityClass::kMobile);
  ASSERT_TRUE(id);
  const Connection& conn = net.connection(*id);
  ASSERT_EQ(conn.hop_buffers.size(), conn.route.size());
  for (std::size_t l = 0; l < conn.route.size(); ++l) {
    const auto& link = net.link(conn.route[l]);
    EXPECT_GT(link.buffer_reserved(), 0.0);
    EXPECT_DOUBLE_EQ(link.buffer_reserved(), conn.hop_buffers[l]);
  }
  net.teardown(*id);
  for (const auto& l : topo_.links()) {
    EXPECT_DOUBLE_EQ(net.link(l.id).buffer_reserved(), 0.0);
  }
}

TEST_F(NetworkStateTest, SetAllocatedAppliesEverywhere) {
  NetworkState net(topo_);
  const auto id = net.admit(src_, bs_, route_to_bs(), small_request(),
                            qos::MobilityClass::kStatic);
  ASSERT_TRUE(id);
  net.set_allocated(*id, kbps(48));
  EXPECT_DOUBLE_EQ(net.connection(*id).allocated, kbps(48));
  for (LinkId lid : net.connection(*id).route) {
    EXPECT_DOUBLE_EQ(test_support::allocated_on(net, lid), kbps(48));
    EXPECT_DOUBLE_EQ(net.link(lid).sum_b_min(), kbps(16));  // the guarantee stays put
  }
}

TEST_F(NetworkStateTest, ConnectionIdsStayAscendingUnderChurn) {
  NetworkState net(topo_);
  const Route route = route_to_bs();
  std::set<ConnectionId> live;
  std::mt19937 rng(7);
  for (int step = 0; step < 10000; ++step) {
    if (live.empty() || rng() % 2 == 0) {
      // Rejected once the wireless link is full (100 connections).
      if (auto id = net.admit(src_, bs_, route, small_request(),
                              qos::MobilityClass::kMobile)) {
        live.insert(*id);
      }
    } else {
      auto victim = live.begin();
      std::advance(victim, rng() % live.size());
      net.teardown(*victim);
      live.erase(victim);
    }
    const std::vector<ConnectionId>& ids = net.connection_ids();
    ASSERT_TRUE(std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) ==
                ids.end())
        << "step " << step;
    ASSERT_TRUE(std::equal(ids.begin(), ids.end(), live.begin(), live.end()))
        << "step " << step;
  }
}

TEST_F(NetworkStateTest, MulticastBranchesAdmitIndependently) {
  // Two neighbor base stations, one reachable with capacity, one starved.
  const NodeId bs2 = topo_.add_node(NodeKind::kBaseStation, "bs2");
  const NodeId bs3 = topo_.add_node(NodeKind::kBaseStation, "bs3");
  topo_.add_duplex(sw_, bs2, mbps(10), 1e7);
  topo_.add_duplex(sw_, bs3, kbps(8), 1e7);  // too small for b_min = 16 kbps

  NetworkState net(topo_);
  const Router router(topo_);
  MulticastTree tree;
  setup_neighbor_multicast(net, router, src_, {bs2, bs3}, small_request(), tree);
  ASSERT_EQ(tree.branches.size(), 2u);
  EXPECT_TRUE(tree.branches[0].admitted);
  EXPECT_FALSE(tree.branches[1].admitted);
  EXPECT_EQ(tree.admitted_count(), 1u);

  teardown_multicast(net, tree);
  EXPECT_EQ(tree.admitted_count(), 0u);
  EXPECT_EQ(net.connection_count(), 0u);
}

TEST_F(NetworkStateTest, MulticastSharedLinksDetected) {
  const NodeId bs2 = topo_.add_node(NodeKind::kBaseStation);
  const NodeId bs3 = topo_.add_node(NodeKind::kBaseStation);
  topo_.add_duplex(sw_, bs2, mbps(10), 1e7);
  topo_.add_duplex(sw_, bs3, mbps(10), 1e7);

  NetworkState net(topo_);
  const Router router(topo_);
  MulticastTree tree;
  setup_neighbor_multicast(net, router, src_, {bs2, bs3}, small_request(), tree);
  // Both branches share the src->sw link.
  ASSERT_EQ(tree.shared_links.size(), 1u);
  EXPECT_EQ(topo_.link(tree.shared_links[0]).from, src_);
}

TEST_F(NetworkStateTest, MulticastSharedLinksListedOnce) {
  // Three branches, each crossing src->sw: the link is reported once.
  const NodeId bs2 = topo_.add_node(NodeKind::kBaseStation);
  const NodeId bs3 = topo_.add_node(NodeKind::kBaseStation);
  topo_.add_duplex(sw_, bs2, mbps(10), 1e7);
  topo_.add_duplex(sw_, bs3, mbps(10), 1e7);

  NetworkState net(topo_);
  const Router router(topo_);
  MulticastTree tree;
  setup_neighbor_multicast(net, router, src_, {bs_, bs2, bs3}, small_request(), tree);
  ASSERT_EQ(tree.admitted_count(), 3u);
  ASSERT_EQ(tree.shared_links.size(), 1u);
  EXPECT_EQ(topo_.link(tree.shared_links[0]).from, src_);
}

TEST_F(NetworkStateTest, MulticastRebuildInPlaceMatchesAFreshTree) {
  const NodeId bs2 = topo_.add_node(NodeKind::kBaseStation);
  const NodeId bs3 = topo_.add_node(NodeKind::kBaseStation);
  topo_.add_duplex(sw_, bs2, mbps(10), 1e7);
  topo_.add_duplex(sw_, bs3, mbps(10), 1e7);

  NetworkState net(topo_);
  const Router router(topo_);
  MulticastTree tree;
  setup_neighbor_multicast(net, router, src_, {bs_, bs2, bs3}, small_request(), tree);
  // An admitted tree must be torn down before it is rebuilt.
  EXPECT_THROW(
      setup_neighbor_multicast(net, router, src_, {bs2}, small_request(), tree),
      std::invalid_argument);
  teardown_multicast(net, tree);
  const LinkId* route_storage = tree.branches[0].route.data();

  // Fewer targets: the tree shrinks and keeps the first branch's storage.
  setup_neighbor_multicast(net, router, src_, {bs2, bs3}, small_request(), tree);
  MulticastTree fresh_net_tree;
  NetworkState fresh_net(topo_);
  setup_neighbor_multicast(fresh_net, router, src_, {bs2, bs3}, small_request(),
                           fresh_net_tree);
  ASSERT_EQ(tree.branches.size(), 2u);
  EXPECT_EQ(tree.branches[0].route.data(), route_storage);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(tree.branches[i].target_base_station,
              fresh_net_tree.branches[i].target_base_station);
    EXPECT_EQ(tree.branches[i].route, fresh_net_tree.branches[i].route);
    EXPECT_TRUE(tree.branches[i].admitted);
  }
  EXPECT_EQ(tree.shared_links, fresh_net_tree.shared_links);
  EXPECT_EQ(net.connection_count(), 2u);
}

TEST_F(NetworkStateTest, RecycledConnectionSlotsHoldTheNewConnection) {
  const NodeId bs2 = topo_.add_node(NodeKind::kBaseStation);
  topo_.add_duplex(sw_, bs2, mbps(10), 1e7);
  NetworkState net(topo_);
  const Router router(topo_);
  const Route long_route = *router.shortest_path(src_, bs2);
  const Route short_route = *router.shortest_path(src_, sw_);
  ASSERT_NE(long_route.size(), short_route.size());

  std::vector<ConnectionId> live;
  for (int round = 0; round < 20; ++round) {
    const bool to_bs = round % 3 != 0;
    const Route& route = to_bs ? long_route : short_route;
    const auto id = net.admit(src_, to_bs ? bs2 : sw_, route, small_request(),
                              qos::MobilityClass::kMobile);
    ASSERT_TRUE(id.has_value());
    live.push_back(*id);
    EXPECT_EQ(net.connection(*id).id, *id);
    EXPECT_EQ(net.connection(*id).route, route);
    EXPECT_EQ(net.connection(*id).destination, to_bs ? bs2 : sw_);
    if (round % 2 == 1) {  // free a slot for the next admit to reuse
      net.teardown(live.front());
      EXPECT_FALSE(net.has_connection(live.front()));
      EXPECT_THROW((void)net.connection(live.front()), std::out_of_range);
      EXPECT_THROW(net.teardown(live.front()), std::out_of_range);
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(net.connection_count(), live.size());
  EXPECT_EQ(net.connection_ids(), live);  // ascending: issued in order
  // Every link counts exactly the live routes that cross it.
  std::vector<std::size_t> crossing(net.link_count(), 0);
  for (ConnectionId id : live) {
    EXPECT_EQ(net.connection(id).hop_buffers.size(), net.connection(id).route.size());
    for (LinkId lid : net.connection(id).route) ++crossing[lid.value()];
  }
  for (std::size_t l = 0; l < net.link_count(); ++l) {
    EXPECT_EQ(net.link(LinkId{LinkId::underlying(l)}).connection_count(), crossing[l]) << l;
  }
}

}  // namespace
}  // namespace imrm::net
