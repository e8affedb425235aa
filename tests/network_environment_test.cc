// Integration tests for the full wired/wireless environment of Section 4:
// end-to-end Table 2 admission over the backbone, multicast warm-up,
// advance reservation on wireless links, handoff re-routing, max-min
// adaptation across the network, and renegotiation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>

#include "connection_table.h"
#include "core/network_environment.h"
#include "maxmin/bridge.h"
#include "mobility/floorplan.h"

namespace imrm::core {
namespace {

using mobility::Fig4Cells;
using qos::kbps;
using sim::Duration;
using sim::SimTime;

qos::QosRequest stream_request(qos::BitsPerSecond b_min, qos::BitsPerSecond b_max) {
  qos::QosRequest r;
  r.bandwidth = {b_min, b_max};
  r.delay_bound = 10.0;
  r.jitter_bound = 10.0;
  r.loss_bound = 0.05;
  r.traffic = {8000.0, 8000.0};
  return r;
}

class NetworkEnvironmentTest : public ::testing::Test {
 protected:
  NetworkEnvironmentTest() { rebuild({}); }

  void rebuild(BackboneConfig config) {
    config_ = config;
    env_ = std::make_unique<NetworkEnvironment>(mobility::fig4_environment(), simulator_,
                                                config);
    cells_ = mobility::fig4_cells(env_->map());
  }

  [[nodiscard]] std::vector<qos::BitsPerSecond> sum_b_min_per_link() const {
    std::vector<qos::BitsPerSecond> sums;
    for (std::uint32_t l = 0; l < env_->network().link_count(); ++l) {
      sums.push_back(env_->network().link(net::LinkId{l}).sum_b_min());
    }
    return sums;
  }

  sim::Simulator simulator_;
  BackboneConfig config_;
  std::unique_ptr<NetworkEnvironment> env_;
  Fig4Cells cells_;
};

TEST_F(NetworkEnvironmentTest, TopologyWiresEveryCell) {
  // server + core + areas + (bs + air) per cell.
  EXPECT_GE(env_->topology().node_count(), 2 + 2 * env_->map().size());
  for (const auto& cell : env_->map().cells()) {
    const auto link = env_->wireless_link(cell.id);
    EXPECT_TRUE(env_->topology().link(link).wireless);
    EXPECT_DOUBLE_EQ(env_->topology().link(link).capacity, qos::mbps(1.6));
  }
}

TEST_F(NetworkEnvironmentTest, OpenConnectionRunsEndToEndAdmission) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  EXPECT_EQ(env_->stats().connections_opened, 1u);
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(64));  // mobile: pinned at b_min
  // The route crosses the wireless link of D.
  const auto& link = env_->network().link(env_->wireless_link(cells_.d));
  EXPECT_DOUBLE_EQ(link.sum_b_min(), kbps(64));
}

TEST_F(NetworkEnvironmentTest, OpenConnectionReservesTheMinimumOnEveryHop) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  const net::ConnectionId id = env_->connection_of(p);
  ASSERT_TRUE(id.is_valid());
  const net::Route& route = env_->network().connection(id).route;
  // server - core - area switch - base station - air.
  ASSERT_EQ(route.size(), 4u);
  EXPECT_EQ(route.back(), env_->wireless_link(cells_.d));
  const net::Connection& conn = env_->network().connection(id);
  EXPECT_DOUBLE_EQ(conn.request.bandwidth.b_min, kbps(64));
  EXPECT_DOUBLE_EQ(conn.allocated, kbps(64));
  for (const net::LinkId link : route) {
    // The hop's minimum sum counts this connection with every other one
    // crossing the link (multicast branches included).
    double b_min = 0.0;
    bool crossed = false;
    test_support::for_each_connection_on(
        env_->network(), link, [&](const net::Connection& other, std::size_t) {
          b_min += other.request.bandwidth.b_min;
          crossed = crossed || other.id == id;
        });
    EXPECT_TRUE(crossed) << "link " << link.value();
    EXPECT_DOUBLE_EQ(env_->network().link(link).sum_b_min(), b_min) << "link " << link.value();
  }
}

TEST_F(NetworkEnvironmentTest, BlocksWhenCellSaturated) {
  // 25 minima of 64 kbps fill D's 1.6 Mbps air; the 26th is blocked.
  for (int i = 0; i < 25; ++i) {
    const auto q = env_->add_portable(cells_.d);
    ASSERT_TRUE(env_->open_connection(q, stream_request(kbps(64), kbps(64)))) << i;
  }
  const std::vector<qos::BitsPerSecond> before = sum_b_min_per_link();
  const std::size_t connections = env_->network().connection_count();
  const auto extra = env_->add_portable(cells_.d);
  EXPECT_FALSE(env_->open_connection(extra, stream_request(kbps(64), kbps(64))));
  EXPECT_EQ(env_->stats().connections_blocked, 1u);
  EXPECT_FALSE(env_->has_connection(extra));
  // The rejected attempt left nothing behind on any hop.
  EXPECT_EQ(env_->network().connection_count(), connections);
  EXPECT_EQ(sum_b_min_per_link(), before);
}

TEST_F(NetworkEnvironmentTest, MulticastBranchesWarmNeighbors) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  // D has 5 neighbors (C, A, E, F, G); all branches fit on the wired side.
  EXPECT_EQ(env_->stats().multicast_branches_admitted, 5u);
  EXPECT_EQ(env_->stats().multicast_branches_rejected, 0u);
}

TEST_F(NetworkEnvironmentTest, MulticastCanBeDisabled) {
  BackboneConfig config;
  config.enable_multicast = false;
  rebuild(config);
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  EXPECT_EQ(env_->stats().multicast_branches_admitted, 0u);
}

TEST_F(NetworkEnvironmentTest, HandoffIntoWarmCellCounts) {
  const auto p = env_->add_portable(cells_.c);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_EQ(env_->stats().warm_handoffs, 1u);  // D's branch was set up from C
  EXPECT_EQ(env_->stats().handoff_drops, 0u);
  EXPECT_TRUE(env_->has_connection(p));
}

TEST_F(NetworkEnvironmentTest, HandoffKeepsConnectionAlive) {
  const auto p = env_->add_portable(cells_.c);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_TRUE(env_->has_connection(p));
  EXPECT_EQ(env_->stats().handoffs, 1u);
  EXPECT_EQ(env_->stats().handoff_drops, 0u);
  // The session now ends on D's air and has left C's.
  const net::ConnectionId id = env_->connection_of(p);
  ASSERT_TRUE(id.is_valid());
  EXPECT_EQ(env_->network().connection(id).route.back(), env_->wireless_link(cells_.d));
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.c)).sum_b_min(), 0.0);
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.d)).sum_b_min(),
                   kbps(64));
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(64));
}

TEST_F(NetworkEnvironmentTest, DroppedHandoffFreesTheOldPath) {
  for (int i = 0; i < 25; ++i) {
    const auto q = env_->add_portable(cells_.d);
    ASSERT_TRUE(env_->open_connection(q, stream_request(kbps(64), kbps(64))));
  }
  const std::vector<qos::BitsPerSecond> before = sum_b_min_per_link();
  const std::size_t connections = env_->network().connection_count();
  const auto p = env_->add_portable(cells_.c);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(64))));
  ASSERT_FALSE(env_->handoff(p, cells_.d));
  // The dropped session took its connection and its multicast branches
  // with it: every hop is back to what the squatters hold.
  EXPECT_EQ(env_->connection_of(p), net::ConnectionId::invalid());
  EXPECT_DOUBLE_EQ(env_->allocated(p), 0.0);
  EXPECT_EQ(env_->network().connection_count(), connections);
  EXPECT_EQ(sum_b_min_per_link(), before);
}

TEST_F(NetworkEnvironmentTest, HandoffUsesAdvanceReservationFromProfiles) {
  // Teach the profiles that this portable goes C -> D -> A: after the C -> D
  // handoff its reservation lands in A although A is not its home office.
  const auto p = env_->add_portable(cells_.c);
  for (int i = 0; i < 3; ++i) env_->profiles().record_handoff(p, cells_.c, cells_.d, cells_.a);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_EQ(env_->reservation(p), std::make_pair(cells_.a, kbps(64)));
  EXPECT_GE(env_->stats().reservations_placed, 1u);
  const net::LinkId air_a = env_->wireless_link(cells_.a);
  EXPECT_DOUBLE_EQ(env_->network().link(air_a).advance_reserved(), kbps(64));

  // Completing the predicted move consumes the reservation with local
  // signaling only.
  ASSERT_TRUE(env_->handoff(p, cells_.a));
  EXPECT_EQ(env_->stats().reservations_consumed, 1u);
  EXPECT_EQ(env_->stats().local_handoffs, 1u);
  EXPECT_NE(env_->reservation(p).first, cells_.a);
  EXPECT_DOUBLE_EQ(env_->network().link(air_a).advance_reserved(), 0.0);
}

TEST_F(NetworkEnvironmentTest, PredictedHandoffConsumesOnlyItsOwnReservation) {
  // Two occupants of A wait in D, each with a reservation in A.
  const auto first = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  const auto second = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  ASSERT_TRUE(env_->open_connection(first, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->open_connection(second, stream_request(kbps(32), kbps(256))));
  ASSERT_TRUE(env_->handoff(first, cells_.d));
  ASSERT_TRUE(env_->handoff(second, cells_.d));
  const net::LinkId air_a = env_->wireless_link(cells_.a);
  ASSERT_DOUBLE_EQ(env_->network().link(air_a).advance_reserved(), kbps(96));

  ASSERT_TRUE(env_->handoff(first, cells_.a));
  EXPECT_EQ(env_->stats().reservations_consumed, 1u);
  EXPECT_EQ(env_->reservation(second), std::make_pair(cells_.a, kbps(32)));
  EXPECT_DOUBLE_EQ(env_->network().link(air_a).advance_reserved(), kbps(32));

  ASSERT_TRUE(env_->handoff(second, cells_.a));
  EXPECT_EQ(env_->stats().reservations_consumed, 2u);
  EXPECT_DOUBLE_EQ(env_->network().link(air_a).advance_reserved(), 0.0);
}

TEST_F(NetworkEnvironmentTest, NoReservationWithoutAnOpenSession) {
  const auto p = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  const auto none = std::make_pair(CellId::invalid(), 0.0);
  EXPECT_EQ(env_->reservation(p), none);
  // A connectionless occupant walking past its office reserves nothing.
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_EQ(env_->reservation(p), none);
  EXPECT_EQ(env_->reservation(PortableId{99}), none);  // never added
  const net::LinkId air_a = env_->wireless_link(cells_.a);
  EXPECT_DOUBLE_EQ(env_->network().link(air_a).advance_reserved(), 0.0);

  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_EQ(env_->reservation(p), std::make_pair(cells_.a, kbps(64)));
  env_->close_connection(p);
  EXPECT_EQ(env_->reservation(p), none);
  EXPECT_DOUBLE_EQ(env_->network().link(air_a).advance_reserved(), 0.0);
}

TEST_F(NetworkEnvironmentTest, AdvanceReservationFollowsPrediction) {
  const auto p = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  // Occupancy prediction: reservation sits on A's wireless link.
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.a)).advance_reserved(),
                   kbps(64));
  ASSERT_TRUE(env_->handoff(p, cells_.a));
  EXPECT_EQ(env_->stats().reservations_consumed, 1u);
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.a)).advance_reserved(),
                   0.0);
}

TEST_F(NetworkEnvironmentTest, StaticPortableUpgradedByAdaptation) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(1024))));
  simulator_.run_until(SimTime::minutes(2));  // short of T_th: still mobile
  env_->adapt();
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(64));
  simulator_.run_until(SimTime::minutes(10));  // past T_th
  env_->adapt();
  // Alone on a 1.6 Mbps cell: upgraded to b_max (wired links are ample).
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(1024));
}

TEST_F(NetworkEnvironmentTest, MobilePortableStaysAtMinimum) {
  // Ten minutes in the building but never T_th in one cell: every handoff
  // restarts the dwell, so adaptation leaves the portable at b_min.
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(1024))));
  for (int i = 1; i <= 5; ++i) {
    simulator_.run_until(SimTime::minutes(2.0 * i));
    ASSERT_TRUE(env_->handoff(p, i % 2 ? cells_.c : cells_.d));
    env_->adapt();
    EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(64)) << "after handoff " << i;
  }
  simulator_.run_until(SimTime::minutes(20));  // now it settles in C
  env_->adapt();
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(1024));
}

TEST_F(NetworkEnvironmentTest, AdaptationSplitsExcessMaxMin) {
  const auto p1 = env_->add_portable(cells_.d);
  const auto p2 = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p1, stream_request(kbps(100), kbps(10000))));
  ASSERT_TRUE(env_->open_connection(p2, stream_request(kbps(100), kbps(400))));
  simulator_.run_until(SimTime::minutes(10));
  env_->adapt();
  // Wireless excess = 1600 - 200 = 1400 kbps. p2 demand-limited at +300;
  // p1 takes the remaining 1100: 100 + 1100 = 1200.
  EXPECT_NEAR(env_->allocated(p2), kbps(400), 1.0);
  EXPECT_NEAR(env_->allocated(p1), kbps(1200), 1.0);
}

TEST_F(NetworkEnvironmentTest, NewcomerAdmittedPastAStaticHog) {
  // A static portable expanded to b_max hogs D's air; a newcomer's minimum
  // is still admitted and adaptation squeezes the hog (Section 5.2 case b).
  const auto hog = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(hog, stream_request(kbps(100), kbps(1600))));
  simulator_.run_until(SimTime::minutes(10));
  env_->adapt();
  ASSERT_NEAR(env_->allocated(hog), kbps(1600), 1.0);

  const auto newcomer = env_->add_portable(cells_.d);
  EXPECT_TRUE(env_->open_connection(newcomer, stream_request(kbps(200), kbps(400))));
  EXPECT_NEAR(env_->allocated(newcomer), kbps(200), 1.0);  // mobile: b_min
  EXPECT_NEAR(env_->allocated(hog), kbps(1400), 1.0);
}

// Close, renegotiation and handoff each re-divide the cell themselves: a
// static portable sharing D's air with a demand-limited one gets the freed
// excess as soon as the call returns, with no adapt() in between.
class RedivisionTest : public NetworkEnvironmentTest {
 protected:
  RedivisionTest() {
    settled_ = env_->add_portable(cells_.d);
    other_ = env_->add_portable(cells_.d);
    EXPECT_TRUE(env_->open_connection(settled_, stream_request(kbps(100), kbps(2000))));
    EXPECT_TRUE(env_->open_connection(other_, stream_request(kbps(100), kbps(300))));
    simulator_.run_until(SimTime::minutes(10));
    env_->adapt();
    // Excess 1400 kbps: 200 to the demand-limited portable, 1200 to settled.
    EXPECT_NEAR(env_->allocated(other_), kbps(300), 1.0);
    EXPECT_NEAR(env_->allocated(settled_), kbps(1300), 1.0);
  }

  PortableId settled_;
  PortableId other_;
};

TEST_F(RedivisionTest, CloseHandsTheFreedExcessToTheStatics) {
  env_->close_connection(other_);
  // Alone in D: the whole 1600 kbps air, short of its 2000 kbps b_max.
  EXPECT_NEAR(env_->allocated(settled_), kbps(1600), 1.0);
  EXPECT_NEAR(test_support::allocated_on(env_->network(), env_->wireless_link(cells_.d)),
              kbps(1600), 1.0);
}

TEST_F(RedivisionTest, RenegotiationRedividesWithoutAnAdapt) {
  ASSERT_TRUE(env_->renegotiate(other_, stream_request(kbps(100), kbps(200))));
  EXPECT_NEAR(env_->allocated(other_), kbps(200), 1.0);
  EXPECT_NEAR(env_->allocated(settled_), kbps(1400), 1.0);
}

TEST_F(RedivisionTest, HandoffRedividesTheCellItLeaves) {
  ASSERT_TRUE(env_->handoff(other_, cells_.c));
  EXPECT_NEAR(env_->allocated(settled_), kbps(1600), 1.0);
  // The leaver is mobile again in C, so it holds only its minimum there.
  EXPECT_DOUBLE_EQ(env_->allocated(other_), kbps(100));
}

TEST_F(NetworkEnvironmentTest, HandoffDropsWhenTargetSaturated) {
  // Saturate D's wireless link with static occupants at fixed bounds.
  std::vector<PortableId> squatters;
  for (int i = 0; i < 25; ++i) {
    const auto q = env_->add_portable(cells_.d);
    ASSERT_TRUE(env_->open_connection(q, stream_request(kbps(64), kbps(64))));
    squatters.push_back(q);
  }
  const auto p = env_->add_portable(cells_.c);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(64))));
  EXPECT_FALSE(env_->handoff(p, cells_.d));
  EXPECT_EQ(env_->stats().handoff_drops, 1u);
  EXPECT_FALSE(env_->has_connection(p));
}

TEST_F(NetworkEnvironmentTest, ReservationBlocksNewButAdmitsPredictedHandoff) {
  // Fill D to one slot short; a foreign reservation then blocks newcomers
  // but the predicted portable still gets in.
  for (int i = 0; i < 24; ++i) {
    const auto q = env_->add_portable(cells_.d);
    ASSERT_TRUE(env_->open_connection(q, stream_request(kbps(64), kbps(64))));
  }
  // Predicted mover: home office is... D is a corridor, so use profile
  // learning instead: teach C->D movement history.
  const auto p = env_->add_portable(cells_.c);
  for (int i = 0; i < 3; ++i) env_->profiles().record_handoff(p, cells_.c, cells_.c, cells_.d);
  // (prev=C, cur=C) is this portable's live state after add; the recorded
  // triplets make the predictor nominate D.
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(64))));
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.d)).advance_reserved(),
                   kbps(64));

  // A newcomer cannot squeeze in past the reservation...
  const auto late = env_->add_portable(cells_.d);
  EXPECT_FALSE(env_->open_connection(late, stream_request(kbps(64), kbps(64))));
  // ...but the predicted handoff succeeds by consuming it.
  EXPECT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_EQ(env_->stats().reservations_consumed, 1u);
}

TEST_F(NetworkEnvironmentTest, UnpredictedHandoffLeavesAnotherSessionsReservation) {
  // q, an occupant of A, waits in D with a reservation in A.
  const auto q = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  ASSERT_TRUE(env_->open_connection(q, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(q, cells_.d));
  ASSERT_EQ(env_->reservation(q), std::make_pair(cells_.a, kbps(64)));
  // p walks into A with no reservation of its own.
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(32), kbps(32))));
  ASSERT_FALSE(env_->reservation(p).first.is_valid());
  ASSERT_TRUE(env_->handoff(p, cells_.a));
  EXPECT_EQ(env_->stats().reservations_consumed, 0u);
  // q's reservation is still whole in A's pool.
  EXPECT_EQ(env_->reservation(q), std::make_pair(cells_.a, kbps(64)));
  EXPECT_NE(env_->reservation(p).first, cells_.a);
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.a)).advance_reserved(),
                   kbps(64));
}

TEST_F(NetworkEnvironmentTest, FailedPredictedHandoffReturnsItsReservation) {
  for (int i = 0; i < 24; ++i) {
    const auto q = env_->add_portable(cells_.d);
    ASSERT_TRUE(env_->open_connection(q, stream_request(kbps(64), kbps(64))));
  }
  const auto p = env_->add_portable(cells_.c);
  for (int i = 0; i < 3; ++i) env_->profiles().record_handoff(p, cells_.c, cells_.c, cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(64))));
  ASSERT_EQ(env_->reservation(p), std::make_pair(cells_.d, kbps(64)));
  // D's air fades to what its occupants hold: even with its own
  // reservation back, p no longer fits and is dropped.
  const net::LinkId air = env_->wireless_link(cells_.d);
  env_->network_mut().link(air).set_capacity(kbps(24 * 64));
  EXPECT_FALSE(env_->handoff(p, cells_.d));
  EXPECT_FALSE(env_->reservation(p).first.is_valid());
  EXPECT_DOUBLE_EQ(env_->network().link(air).advance_reserved(), 0.0);
}

TEST_F(NetworkEnvironmentTest, StaticPortableGivesUpItsReservation) {
  const auto p = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  ASSERT_EQ(env_->reservation(p), std::make_pair(cells_.a, kbps(64)));
  simulator_.run_until(SimTime::minutes(10));  // p settles in D (Section 3.4.2)
  env_->adapt();
  EXPECT_FALSE(env_->reservation(p).first.is_valid());
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.a)).advance_reserved(),
                   0.0);
}

TEST_F(NetworkEnvironmentTest, StaticTransitionRefreshesTheCachedProfile) {
  // Sec. 3.4.2: when a portable turns static, its base station refreshes the
  // cached profile from the server, once per transition.
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  const profiles::ProfileServer& server = env_->profiles();
  EXPECT_EQ(server.traffic().refreshes, 0u);
  simulator_.run_until(SimTime::minutes(10));  // past T_th
  env_->adapt();
  EXPECT_EQ(server.traffic().refreshes, 1u);
  env_->adapt();  // still static: no new transition
  EXPECT_EQ(server.traffic().refreshes, 1u);
  ASSERT_TRUE(env_->handoff(p, cells_.c));  // mobile again
  simulator_.run_until(SimTime::minutes(20));
  env_->adapt();
  EXPECT_EQ(server.traffic().refreshes, 2u);
}

TEST_F(NetworkEnvironmentTest, RenegotiationUpAndDown) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(128))));
  // Application asks for a bigger envelope: fits, so granted.
  EXPECT_TRUE(env_->renegotiate(p, stream_request(kbps(128), kbps(512))));
  simulator_.run_until(SimTime::minutes(10));
  env_->adapt();
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(512));

  // An impossible request is refused and the old connection survives.
  EXPECT_FALSE(env_->renegotiate(p, stream_request(qos::mbps(50), qos::mbps(60))));
  EXPECT_TRUE(env_->has_connection(p));
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(512));
}

TEST_F(NetworkEnvironmentTest, RefusedRenegotiationKeepsTheGrant) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(512))));
  simulator_.run_until(SimTime::minutes(10));
  env_->adapt();
  ASSERT_DOUBLE_EQ(env_->allocated(p), kbps(512));  // static, alone in D
  // More than D's whole air: refused. The restored connection holds what
  // it held before the call, not its 64 kb/s minimum.
  EXPECT_FALSE(env_->renegotiate(p, stream_request(kbps(2000), kbps(4000))));
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(512));
}

TEST_F(NetworkEnvironmentTest, RenegotiationReservesTheNewMinimumAhead) {
  const auto p = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  ASSERT_EQ(env_->reservation(p), std::make_pair(cells_.a, kbps(64)));
  // A handoff into A now needs 256 kb/s, so that is what A's pool holds.
  ASSERT_TRUE(env_->renegotiate(p, stream_request(kbps(256), kbps(512))));
  EXPECT_EQ(env_->reservation(p), std::make_pair(cells_.a, kbps(256)));
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.a)).advance_reserved(),
                   kbps(256));
}

TEST_F(NetworkEnvironmentTest, FailedRenegotiationKeepsOldConnection) {
  const auto p = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  ASSERT_EQ(env_->reservation(p), std::make_pair(cells_.a, kbps(64)));
  // More than D's whole air: refused, and the old session is untouched.
  EXPECT_FALSE(env_->renegotiate(p, stream_request(kbps(2000), kbps(4000))));
  EXPECT_TRUE(env_->has_connection(p));
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(64));
  EXPECT_DOUBLE_EQ(env_->network().connection(env_->connection_of(p)).request.bandwidth.b_max,
                   kbps(256));
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.d)).sum_b_min(),
                   kbps(64));
  EXPECT_EQ(env_->reservation(p), std::make_pair(cells_.a, kbps(64)));
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.a)).advance_reserved(),
                   kbps(64));
}

TEST_F(NetworkEnvironmentTest, CloseReleasesEverything) {
  const auto p = env_->add_portable(cells_.c, cells_.a);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  env_->close_connection(p);
  EXPECT_FALSE(env_->has_connection(p));
  EXPECT_EQ(env_->network().connection_count(), 0u);
  for (const auto& cell : env_->map().cells()) {
    EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cell.id)).advance_reserved(),
                     0.0);
  }
}

TEST_F(NetworkEnvironmentTest, RenegotiatedSessionReleasesTheReservationItPlaced) {
  const auto p = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(128), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  ASSERT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.a)).advance_reserved(),
                   kbps(128));
  // A smaller b_min after the reservation was placed: closing must release
  // the 128 kb/s reserved, not the 64 kb/s now requested.
  ASSERT_TRUE(env_->renegotiate(p, stream_request(kbps(64), kbps(256))));
  env_->close_connection(p);
  for (std::uint32_t l = 0; l < env_->network().link_count(); ++l) {
    EXPECT_EQ(env_->network().link(net::LinkId{l}).advance_reserved(), 0.0) << "link " << l;
  }
}

TEST_F(NetworkEnvironmentTest, ConnectionlessPortablesJustMove) {
  const auto p = env_->add_portable(cells_.c);
  EXPECT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_EQ(env_->stats().handoffs, 1u);
  EXPECT_EQ(env_->network().connection_count(), 0u);
}

TEST_F(NetworkEnvironmentTest, PredictedHandoffsAreFasterThanColdOnes) {
  // Occupant of A: the D -> A handoff is predicted (local signaling only);
  // the C -> D handoff is not (end-to-end round trip).
  const auto p = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));  // cold
  EXPECT_EQ(env_->stats().e2e_handoffs, 1u);
  const double after_cold = env_->stats().total_handoff_latency_s;
  ASSERT_TRUE(env_->handoff(p, cells_.a));  // warm: reservation in A
  EXPECT_EQ(env_->stats().local_handoffs, 1u);
  const double warm_latency = env_->stats().total_handoff_latency_s - after_cold;
  EXPECT_LT(warm_latency, after_cold);  // local exchange beats the round trip
  // Cold = 2 * hop * path_len (4 hops); warm = 2 * hop.
  EXPECT_NEAR(after_cold, 2.0 * 0.002 * 4.0, 1e-12);
  EXPECT_NEAR(warm_latency, 2.0 * 0.002, 1e-12);
}

TEST_F(NetworkEnvironmentTest, UplinkRoutesReverseDirection) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256)),
                                    Direction::kUplink));
  // The uplink consumes the air -> BS direction: the downlink's wireless
  // link (BS -> air) stays empty while its reverse twin carries b_min.
  const auto down = env_->wireless_link(cells_.d);
  const net::LinkId up{down.value() + 1};  // add_duplex allocates the pair
  EXPECT_DOUBLE_EQ(env_->network().link(down).sum_b_min(), 0.0);
  EXPECT_DOUBLE_EQ(env_->network().link(up).sum_b_min(), kbps(64));

  // Handoffs keep the direction.
  ASSERT_TRUE(env_->handoff(p, cells_.e));
  const auto down_e = env_->wireless_link(cells_.e);
  EXPECT_DOUBLE_EQ(env_->network().link(net::LinkId{down_e.value() + 1}).sum_b_min(),
                   kbps(64));
  EXPECT_DOUBLE_EQ(env_->network().link(down_e).sum_b_min(), 0.0);
}

TEST_F(NetworkEnvironmentTest, UplinkAndDownlinkShareNothing) {
  const auto a = env_->add_portable(cells_.d);
  const auto b = env_->add_portable(cells_.d);
  // Both directions can carry a full-capacity minimum simultaneously.
  ASSERT_TRUE(env_->open_connection(a, stream_request(kbps(1500), kbps(1500)),
                                    Direction::kDownlink));
  EXPECT_TRUE(env_->open_connection(b, stream_request(kbps(1500), kbps(1500)),
                                    Direction::kUplink));
}

TEST_F(NetworkEnvironmentTest, MultiZoneProfilesMigrateWithPortables) {
  BackboneConfig config;
  config.zones = 3;
  rebuild(config);
  EXPECT_EQ(env_->universe().zone_count(), 3u);

  // Walk a portable across the whole map: zone crossings migrate its
  // profile, and prediction still works afterwards.
  const auto p = env_->add_portable(cells_.c, cells_.a);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  ASSERT_TRUE(env_->handoff(p, cells_.e));
  ASSERT_TRUE(env_->handoff(p, cells_.b));
  ASSERT_TRUE(env_->handoff(p, cells_.e));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_GT(env_->universe().migrations(), 0u);
  EXPECT_EQ(env_->stats().profile_migrations, env_->universe().migrations());
  // Wherever the profile resides, it is reachable and remembers the walk.
  ASSERT_NE(env_->universe().portable_profile(p), nullptr);
  EXPECT_EQ(env_->universe().portable_profile(p)->predict(cells_.d, cells_.e), cells_.b);
}

TEST_F(NetworkEnvironmentTest, WiredBottleneckAlsoChecked) {
  // Shrink the wired capacity below the request: admission must reject on
  // the backbone, not only on the air.
  BackboneConfig config;
  config.wired_capacity = kbps(32);
  rebuild(config);
  const auto p = env_->add_portable(cells_.d);
  EXPECT_FALSE(env_->open_connection(p, stream_request(kbps(64), kbps(128))));
  EXPECT_EQ(env_->stats().connections_blocked, 1u);
}

// ---- preconditions hold in every build type ---------------------------------

TEST_F(NetworkEnvironmentTest, OpenOnPortableWithConnectionThrows) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(256))));
  const std::size_t connections = env_->network().connection_count();
  EXPECT_THROW(env_->open_connection(p, stream_request(kbps(128), kbps(256))),
               std::invalid_argument);
  // Nothing was admitted, so no bandwidth leaked onto D's wireless link.
  EXPECT_EQ(env_->network().connection_count(), connections);
  EXPECT_DOUBLE_EQ(env_->network().link(env_->wireless_link(cells_.d)).sum_b_min(),
                   kbps(64));
  env_->close_connection(p);
  EXPECT_EQ(env_->network().connection_count(), 0u);
}

TEST_F(NetworkEnvironmentTest, CloseWithoutConnectionThrows) {
  const auto p = env_->add_portable(cells_.d);
  EXPECT_THROW(env_->close_connection(p), std::invalid_argument);
}

TEST_F(NetworkEnvironmentTest, RenegotiateWithoutConnectionThrows) {
  const auto p = env_->add_portable(cells_.d);
  EXPECT_THROW(env_->renegotiate(p, stream_request(kbps(64), kbps(128))),
               std::invalid_argument);
  EXPECT_EQ(env_->network().connection_count(), 0u);
}

TEST_F(NetworkEnvironmentTest, RenegotiateWhoseRollbackNoLongerFitsTearsDown) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(512), kbps(512))));
  // D's air collapses below the admitted minimum: neither the new bounds
  // nor the old ones fit any more.
  env_->network_mut().link(env_->wireless_link(cells_.d)).set_capacity(kbps(100));
  EXPECT_FALSE(env_->renegotiate(p, stream_request(kbps(1024), kbps(1024))));
  EXPECT_FALSE(env_->has_connection(p));
  EXPECT_EQ(env_->connection_of(p), net::ConnectionId::invalid());
  // The session is gone with its multicast branches and reservations.
  EXPECT_EQ(env_->network().connection_count(), 0u);
  for (const auto& cell : env_->map().cells()) {
    const auto& link = env_->network().link(env_->wireless_link(cell.id));
    EXPECT_DOUBLE_EQ(link.advance_reserved(), 0.0) << cell.name;
    EXPECT_DOUBLE_EQ(link.sum_b_min(), 0.0) << cell.name;
  }
  // The portable can open again once the air recovers.
  env_->network_mut().link(env_->wireless_link(cells_.d)).set_capacity(qos::mbps(1.6));
  EXPECT_TRUE(env_->open_connection(p, stream_request(kbps(512), kbps(512))));
}

// ---- gated reclassification oracle ------------------------------------------

// Live connections of class kStatic, ascending.
std::vector<net::ConnectionId> static_ids(const net::NetworkState& network) {
  std::vector<net::ConnectionId> ids;
  for (const net::ConnectionId c : network.connection_ids()) {
    if (network.connection(c).mobility == qos::MobilityClass::kStatic) ids.push_back(c);
  }
  return ids;
}

// The first instant at which classify() calls a portable that entered its
// cell at `entered` static, found by stepping ulps from entered + T_th.
double first_static_instant(double entered, double threshold) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double t = entered + threshold;
  while (t - entered < threshold) t = std::nextafter(t, kInf);
  while (std::nextafter(t, -kInf) - entered >= threshold) t = std::nextafter(t, -kInf);
  return t;
}

TEST_F(NetworkEnvironmentTest, PromotedAtTheFirstInstantClassifySaysStatic) {
  // An entry time for which rounding makes the portable static strictly
  // before entered + T_th: adapt()'s dwell gate must open for it then.
  const double threshold = config_.static_threshold.to_seconds();
  double entered = 1.0;
  while (first_static_instant(entered, threshold) >= entered + threshold) entered += 0.013;
  ASSERT_LT(entered, threshold / 2);
  const double first = first_static_instant(entered, threshold);

  const auto p = env_->add_portable(cells_.c);
  ASSERT_TRUE(env_->open_connection(p, stream_request(kbps(64), kbps(1024))));
  simulator_.run_until(SimTime::seconds(entered));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  simulator_.run_until(SimTime::seconds(std::nextafter(first, 0.0)));
  env_->adapt();
  EXPECT_EQ(env_->mobility().classify(p), qos::MobilityClass::kMobile);
  EXPECT_TRUE(static_ids(env_->network()).empty());
  EXPECT_EQ(env_->network().static_connection_count(), 0u);
  simulator_.run_until(SimTime::seconds(first));
  env_->adapt();
  ASSERT_EQ(env_->mobility().classify(p), qos::MobilityClass::kStatic);
  EXPECT_EQ(static_ids(env_->network()),
            std::vector<net::ConnectionId>{env_->connection_of(p)});
  EXPECT_EQ(env_->network().static_connection_count(), 1u);
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(1024));
}

// {session connection of p : classify(p) is static}, ascending.
std::vector<net::ConnectionId> brute_force_static(NetworkEnvironment& env,
                                                  const std::vector<PortableId>& portables) {
  std::vector<net::ConnectionId> ids;
  for (const PortableId p : portables) {
    const net::ConnectionId c = env.connection_of(p);
    if (c.is_valid() && env.mobility().classify(p) == qos::MobilityClass::kStatic) {
      ids.push_back(c);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// adapt() as a full scan: reclassify every session, then max-min.
void full_scan_adapt(NetworkEnvironment& env, const std::vector<PortableId>& portables) {
  for (const PortableId p : portables) {
    const net::ConnectionId c = env.connection_of(p);
    if (c.is_valid()) env.network_mut().set_mobility(c, env.mobility().classify(p));
  }
  maxmin::resolve_conflicts(env.network_mut(), /*static_only=*/true);
}

qos::QosRequest oracle_request(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> lo(16.0, 160.0);
  std::uniform_real_distribution<double> factor(1.0, 8.0);
  const double b_min = lo(rng);
  return stream_request(kbps(b_min), kbps(b_min * factor(rng)));
}

// Drives `tested` and an identical twin with the same random workload for
// `thresholds` dwell thresholds of simulated time. The twin's state after
// every adapting step is replaced by a full-scan reclassification plus
// resolve_conflicts, which is what adapt() computed before its dwell gate;
// `tested` must agree with it exactly.
void run_reclassification_oracle(std::uint64_t seed, Duration threshold, double thresholds,
                                 double steps_per_threshold) {
  BackboneConfig config;
  config.static_threshold = threshold;
  sim::Simulator sim_tested;
  sim::Simulator sim_twin;
  NetworkEnvironment tested(mobility::fig4_environment(), sim_tested, config);
  NetworkEnvironment twin(mobility::fig4_environment(), sim_twin, config);
  std::mt19937_64 rng(seed);

  std::vector<mobility::CellId> cells;
  for (const auto& cell : tested.map().cells()) cells.push_back(cell.id);
  std::vector<PortableId> portables;
  for (int i = 0; i < 18; ++i) {
    const mobility::CellId start = cells[rng() % cells.size()];
    portables.push_back(tested.add_portable(start));
    ASSERT_EQ(twin.add_portable(start), portables.back());
  }

  std::size_t checks = 0;
  std::size_t static_seen = 0;
  std::size_t static_moves = 0;
  std::size_t boundary_adapts = 0;
  std::size_t rollbacks = 0;
  const SimTime end = SimTime::seconds(threshold.to_seconds() * thresholds);
  std::exponential_distribution<double> gap(steps_per_threshold / threshold.to_seconds());
  for (int step = 0; sim_tested.now() < end; ++step) {
    // Advance time: usually a random gap, sometimes none, sometimes to a
    // connected portable's exact static_at(), one ulp either side, or the
    // first instant classify() calls it static.
    SimTime t = sim_tested.now();
    const PortableId pick = portables[rng() % portables.size()];
    const bool to_boundary = rng() % 4 == 0 && tested.has_connection(pick);
    if (to_boundary) {
      const mobility::Portable& portable = tested.mobility().portable(pick);
      double at = tested.mobility().classifier().static_at(portable).to_seconds();
      const int side = int(rng() % 4);
      if (side == 1) at = std::nextafter(at, -std::numeric_limits<double>::infinity());
      if (side == 2) at = std::nextafter(at, std::numeric_limits<double>::infinity());
      if (side == 3) {
        at = first_static_instant(portable.entered_cell.to_seconds(),
                                  threshold.to_seconds());
      }
      t = std::max(t, SimTime::seconds(at));
    } else if (rng() % 5 != 0) {
      t = t + Duration::seconds(gap(rng));
    }
    sim_tested.run_until(t);
    sim_twin.run_until(t);

    const std::uint64_t before = tested.stats().conflict_resolutions;
    const PortableId p = to_boundary ? pick : portables[rng() % portables.size()];
    const auto& neighbors = tested.map().cell(tested.mobility().portable(p).current_cell).neighbors;
    const mobility::CellId next = neighbors[rng() % neighbors.size()];
    const int op = to_boundary ? 5 : int(rng() % 7);
    switch (op) {
      case 0:
        if (!tested.has_connection(p)) {
          const qos::QosRequest r = oracle_request(rng);
          const Direction d = rng() % 2 ? Direction::kDownlink : Direction::kUplink;
          ASSERT_EQ(tested.open_connection(p, r, d), twin.open_connection(p, r, d));
        }
        break;
      case 1:
        if (tested.has_connection(p)) {
          tested.close_connection(p);
          twin.close_connection(p);
        }
        break;
      case 2:
        ASSERT_EQ(tested.handoff(p, next), twin.handoff(p, next));
        break;
      case 3:
        if (tested.has_connection(p)) {
          // Every other renegotiation asks for more than the air may have.
          const qos::QosRequest r =
              rng() % 2 ? oracle_request(rng) : stream_request(kbps(800), kbps(1600));
          const bool moved_bounds = tested.renegotiate(p, r);
          ASSERT_EQ(twin.renegotiate(p, r), moved_bounds);
          if (!moved_bounds && tested.has_connection(p)) ++rollbacks;
        }
        break;
      case 4: {  // a move behind the environment's back, connection live
        const net::ConnectionId c = tested.connection_of(p);
        if (c.is_valid() && tested.network().connection(c).mobility ==
                                qos::MobilityClass::kStatic) {
          ++static_moves;
        }
        tested.mobility().move(p, next);
        twin.mobility().move(p, next);
        break;
      }
      case 5:
        boundary_adapts += to_boundary ? 1 : 0;
        tested.adapt();
        twin.adapt();
        break;
      default: {  // the air fades or recovers somewhere
        const mobility::CellId cell = cells[rng() % cells.size()];
        const qos::BitsPerSecond capacity =
            qos::mbps(std::uniform_real_distribution<double>(0.3, 1.6)(rng));
        tested.network_mut().link(tested.wireless_link(cell)).set_capacity(capacity);
        twin.network_mut().link(twin.wireless_link(cell)).set_capacity(capacity);
        tested.adapt();
        twin.adapt();
        break;
      }
    }
    ASSERT_EQ(tested.network().connection_ids(), twin.network().connection_ids())
        << "seed " << seed << " step " << step;
    if (tested.stats().conflict_resolutions == before) continue;

    full_scan_adapt(twin, portables);
    ++checks;
    const std::vector<net::ConnectionId> expected = brute_force_static(tested, portables);
    ASSERT_EQ(static_ids(tested.network()), expected)
        << "seed " << seed << " step " << step << " t=" << t.to_seconds();
    ASSERT_EQ(tested.network().static_connection_count(), expected.size());
    static_seen += expected.size();
    for (const net::ConnectionId c : tested.network().connection_ids()) {
      ASSERT_EQ(tested.network().connection(c).mobility,
                twin.network().connection(c).mobility);
      ASSERT_EQ(tested.network().connection(c).allocated,
                twin.network().connection(c).allocated)
          << "seed " << seed << " step " << step << " connection " << c.value();
    }
  }
  // The workload reached every path it is meant to check.
  EXPECT_GT(checks, 200u) << "seed " << seed;
  EXPECT_GT(static_seen, 0u) << "seed " << seed;
  EXPECT_GT(static_moves, 0u) << "seed " << seed;
  EXPECT_GT(boundary_adapts, 10u) << "seed " << seed;
  EXPECT_GT(rollbacks, 0u) << "seed " << seed;
}

TEST(ReclassificationOracle, DwellGateMatchesFullScan) {
  // T_th = 2 s over six simulated minutes.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_reclassification_oracle(seed, Duration::seconds(2.0), 180.0, 5.0);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ReclassificationOracle, DwellGateMatchesFullScanAtDefaultThreshold) {
  // The default 3 min T_th over 72 minutes. For entry times below about
  // T_th / 2, `now - entered >= T_th` can turn true an ulp before
  // `now >= entered + T_th` does (for T_th = 2 s it never does); the gate
  // uses the same subtraction as classify(), so it opens on that ulp too.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_reclassification_oracle(seed, Duration::minutes(3), 24.0, 40.0);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace imrm::core
