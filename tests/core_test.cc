// Integration tests for the core Environment: the full Figure 1 control
// flow — admission, static/mobile classification, QoS adaptation, advance
// reservation, handoff processing, and the B_dyn pool.
#include <gtest/gtest.h>

#include "core/environment.h"
#include "mobility/floorplan.h"

namespace imrm::core {
namespace {

using mobility::Fig4Cells;
using qos::kbps;
using sim::Duration;
using sim::SimTime;

class EnvironmentTest : public ::testing::Test {
 protected:
  EnvironmentTest() { rebuild({}); }

  void rebuild(EnvironmentConfig config) {
    config.cell_capacity = kbps(1600);
    config_ = config;
    env_ = std::make_unique<Environment>(mobility::fig4_environment(), simulator_, config);
    cells_ = mobility::fig4_cells(env_->map());
  }

  sim::Simulator simulator_;
  EnvironmentConfig config_;
  std::unique_ptr<Environment> env_;
  Fig4Cells cells_;
};

TEST_F(EnvironmentTest, OpenConnectionAllocatesMinimum) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(64)}));
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(16));
  EXPECT_EQ(env_->stats().connections_opened, 1u);
}

TEST_F(EnvironmentTest, BlocksWhenCellSaturated) {
  // Capacity 1600 kbps with a 10% B_dyn pool leaves 1440 for new
  // connections: 90 connections at 16 kbps fit, the 91st is blocked.
  const int fits = 90;
  for (int i = 0; i < fits; ++i) {
    const auto p = env_->add_portable(cells_.d);
    ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(16)})) << i;
  }
  const auto extra = env_->add_portable(cells_.d);
  EXPECT_FALSE(env_->open_connection(extra, {kbps(16), kbps(16)}));
  EXPECT_EQ(env_->stats().connections_blocked, 1u);
}

TEST_F(EnvironmentTest, StaticPortableUpgradedWithinBounds) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(64)}));
  simulator_.run_until(SimTime::minutes(10));  // becomes static
  env_->refresh();
  // Alone in the cell: upgraded all the way to b_max.
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(64));
}

TEST_F(EnvironmentTest, MobilePortableStaysAtMinimum) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(64)}));
  env_->refresh();  // still mobile (no dwell time elapsed)
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(16));
}

TEST_F(EnvironmentTest, ExcessSplitMaxMinAmongStatics) {
  EnvironmentConfig config;
  config.b_dyn_fraction = 0.0;  // keep arithmetic simple
  rebuild(config);
  const auto p1 = env_->add_portable(cells_.d);
  const auto p2 = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p1, {kbps(100), kbps(2000)}));
  ASSERT_TRUE(env_->open_connection(p2, {kbps(100), kbps(300)}));
  simulator_.run_until(SimTime::minutes(10));
  env_->refresh();
  // Excess = 1600 - 200 = 1400. p2's headroom is 200 (demand-limited);
  // p1 takes the rest: 100 + 1200 = 1300.
  EXPECT_DOUBLE_EQ(env_->allocated(p2), kbps(300));
  EXPECT_DOUBLE_EQ(env_->allocated(p1), kbps(1300));
}

TEST_F(EnvironmentTest, HandoffKeepsConnectionAlive) {
  const auto p = env_->add_portable(cells_.c);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(64)}));
  EXPECT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_TRUE(env_->has_connection(p));
  EXPECT_EQ(env_->stats().handoffs, 1u);
  EXPECT_EQ(env_->stats().handoff_drops, 0u);
  EXPECT_DOUBLE_EQ(env_->cell(cells_.c).allocated(), 0.0);
  EXPECT_DOUBLE_EQ(env_->cell(cells_.d).allocated(), kbps(16));
}

TEST_F(EnvironmentTest, HandoffUsesAdvanceReservationFromProfiles) {
  // Teach the profiles that this portable goes C -> D -> A, then check that
  // after a C->D handoff an advance reservation lands in A.
  const auto p = env_->add_portable(cells_.c);
  for (int i = 0; i < 3; ++i) {
    env_->profiles().record_handoff(p, cells_.c, cells_.d, cells_.a);
  }
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(64)}));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_DOUBLE_EQ(env_->cell(cells_.a).reservation_for(p), kbps(16));
  EXPECT_GE(env_->stats().reservations_placed, 1u);

  // Completing the predicted move consumes the reservation and counts a hit.
  ASSERT_TRUE(env_->handoff(p, cells_.a));
  EXPECT_EQ(env_->stats().predictions_correct, 1u);
  EXPECT_DOUBLE_EQ(env_->cell(cells_.a).reservation_for(p), 0.0);
}

TEST_F(EnvironmentTest, OccupantPredictionReservesHomeOffice) {
  const auto p = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(64)}));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  // Level-2 occupancy prediction: reservation in the home office A.
  EXPECT_DOUBLE_EQ(env_->cell(cells_.a).reservation_for(p), kbps(16));
}

TEST_F(EnvironmentTest, DropWhenTargetFull) {
  EnvironmentConfig config;
  config.b_dyn_fraction = 0.0;
  rebuild(config);
  // Fill D completely with static occupants at fixed bounds.
  for (int i = 0; i < 100; ++i) {
    const auto q = env_->add_portable(cells_.d);
    ASSERT_TRUE(env_->open_connection(q, {kbps(16), kbps(16)}));
  }
  const auto p = env_->add_portable(cells_.c);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(16)}));
  EXPECT_FALSE(env_->handoff(p, cells_.d));
  EXPECT_EQ(env_->stats().handoff_drops, 1u);
  EXPECT_FALSE(env_->has_connection(p));  // dropped
}

TEST_F(EnvironmentTest, BDynPoolAbsorbsUnpredictedHandoff) {
  // Default 10% pool: fill D to its new-connection limit, then hand a
  // portable off into D — the pool absorbs it even with no reservation.
  for (int i = 0; i < 90; ++i) {
    const auto q = env_->add_portable(cells_.d);
    ASSERT_TRUE(env_->open_connection(q, {kbps(16), kbps(16)}));
  }
  const auto p = env_->add_portable(cells_.c);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(16)}));
  EXPECT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_EQ(env_->stats().handoff_drops, 0u);
}

TEST_F(EnvironmentTest, ConflictResolutionSqueezesStaticsForNewcomer) {
  EnvironmentConfig config;
  config.b_dyn_fraction = 0.0;
  rebuild(config);
  // A static portable expanded to b_max hogs the cell; a newcomer must
  // trigger the squeeze back toward b_min (Section 5.2 case b).
  const auto hog = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(hog, {kbps(100), kbps(1600)}));
  simulator_.run_until(SimTime::minutes(10));
  env_->refresh();
  ASSERT_DOUBLE_EQ(env_->allocated(hog), kbps(1600));

  const auto newcomer = env_->add_portable(cells_.d);
  EXPECT_TRUE(env_->open_connection(newcomer, {kbps(200), kbps(400)}));
  // The hog was squeezed; both minima fit: 100 + 200 <= 1600.
  EXPECT_LE(env_->allocated(hog), kbps(1400));
}

TEST_F(EnvironmentTest, StaticTransitionCancelsReservations) {
  const auto p = env_->add_portable(cells_.c, cells_.a);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(64)}));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  ASSERT_GT(env_->cell(cells_.a).reservation_for(p), 0.0);

  simulator_.run_until(SimTime::minutes(10));  // p settles in D
  env_->refresh();
  EXPECT_DOUBLE_EQ(env_->cell(cells_.a).reservation_for(p), 0.0);
  EXPECT_GE(env_->profiles().traffic().refreshes, 1u);  // profile refreshed
}

TEST_F(EnvironmentTest, ConnectionlessPortablesMoveFreely) {
  const auto p = env_->add_portable(cells_.c);
  EXPECT_TRUE(env_->handoff(p, cells_.d));
  EXPECT_TRUE(env_->handoff(p, cells_.a));
  EXPECT_EQ(env_->stats().handoff_drops, 0u);
}

TEST_F(EnvironmentTest, CloseConnectionFreesEverything) {
  const auto p = env_->add_portable(cells_.c, cells_.a);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(64)}));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  env_->close_connection(p);
  EXPECT_FALSE(env_->has_connection(p));
  EXPECT_DOUBLE_EQ(env_->cell(cells_.d).allocated(), 0.0);
  EXPECT_DOUBLE_EQ(env_->cell(cells_.a).reservation_for(p), 0.0);
}

TEST_F(EnvironmentTest, RenegotiationUpgradesBounds) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(32)}));
  ASSERT_TRUE(env_->renegotiate(p, {kbps(64), kbps(256)}));
  simulator_.run_until(SimTime::minutes(10));
  env_->refresh();
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(256));
}

TEST_F(EnvironmentTest, FailedRenegotiationKeepsOldConnection) {
  EnvironmentConfig config;
  config.b_dyn_fraction = 0.0;
  rebuild(config);
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(32)}));
  // Impossible demand: more than the whole cell.
  EXPECT_FALSE(env_->renegotiate(p, {kbps(2000), kbps(4000)}));
  EXPECT_TRUE(env_->has_connection(p));
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(16));
}

TEST_F(EnvironmentTest, RenegotiationUpdatesAdvanceReservation) {
  const auto p = env_->add_portable(cells_.c, /*home_office=*/cells_.a);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(32)}));
  ASSERT_TRUE(env_->handoff(p, cells_.d));
  ASSERT_DOUBLE_EQ(env_->cell(cells_.a).reservation_for(p), kbps(16));
  ASSERT_TRUE(env_->renegotiate(p, {kbps(64), kbps(128)}));
  // The reservation in the predicted cell tracks the new minimum.
  EXPECT_DOUBLE_EQ(env_->cell(cells_.a).reservation_for(p), kbps(64));
}

TEST_F(EnvironmentTest, RenegotiationRedividesWithoutARefresh) {
  const auto p = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p, {kbps(16), kbps(64)}));
  simulator_.run_until(SimTime::minutes(10));
  env_->refresh();
  ASSERT_DOUBLE_EQ(env_->allocated(p), kbps(64));
  // The renegotiation itself re-divides the cell: a static portable alone in
  // it holds the new b_max as soon as the call returns.
  ASSERT_TRUE(env_->renegotiate(p, {kbps(16), kbps(32)}));
  EXPECT_DOUBLE_EQ(env_->allocated(p), kbps(32));
}

TEST_F(EnvironmentTest, CloseConnectionHandsTheFreedExcessToTheStatics) {
  EnvironmentConfig config;
  config.b_dyn_fraction = 0.0;
  rebuild(config);
  const auto p1 = env_->add_portable(cells_.d);
  const auto p2 = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(p1, {kbps(100), kbps(2000)}));
  ASSERT_TRUE(env_->open_connection(p2, {kbps(100), kbps(300)}));
  simulator_.run_until(SimTime::minutes(10));
  env_->refresh();
  ASSERT_DOUBLE_EQ(env_->allocated(p1), kbps(1300));
  env_->close_connection(p2);
  // p1 is alone: the whole 1600 kbps cell, short of its 2000 kbps b_max.
  EXPECT_DOUBLE_EQ(env_->allocated(p1), kbps(1600));
  EXPECT_DOUBLE_EQ(env_->cell(cells_.d).allocated(), kbps(1600));
}

TEST_F(EnvironmentTest, HandoffRedividesTheCellItLeaves) {
  EnvironmentConfig config;
  config.b_dyn_fraction = 0.0;
  rebuild(config);
  const auto settled = env_->add_portable(cells_.d);
  const auto leaver = env_->add_portable(cells_.d);
  ASSERT_TRUE(env_->open_connection(settled, {kbps(100), kbps(2000)}));
  ASSERT_TRUE(env_->open_connection(leaver, {kbps(100), kbps(300)}));
  simulator_.run_until(SimTime::minutes(10));
  env_->refresh();
  ASSERT_DOUBLE_EQ(env_->allocated(settled), kbps(1300));
  ASSERT_TRUE(env_->handoff(leaver, cells_.c));
  EXPECT_DOUBLE_EQ(env_->allocated(settled), kbps(1600));
  // The newcomer is mobile again in C, so it holds only its minimum there.
  EXPECT_DOUBLE_EQ(env_->allocated(leaver), kbps(100));
}

TEST_F(EnvironmentTest, BDynGrowsForStaticNeighbors) {
  EnvironmentConfig config;
  config.b_dyn_fraction = 0.05;
  rebuild(config);
  // A static portable with a big allocation in C; after a handoff into D,
  // D's pool must cover at least that allocation (sudden-move insurance).
  const auto heavy = env_->add_portable(cells_.c);
  ASSERT_TRUE(env_->open_connection(heavy, {kbps(100), kbps(400)}));
  simulator_.run_until(SimTime::minutes(10));
  env_->refresh();
  ASSERT_DOUBLE_EQ(env_->allocated(heavy), kbps(400));

  const auto mover = env_->add_portable(cells_.c);
  ASSERT_TRUE(env_->open_connection(mover, {kbps(16), kbps(16)}));
  ASSERT_TRUE(env_->handoff(mover, cells_.d));
  EXPECT_GE(env_->cell(cells_.d).anonymous_reservation(), kbps(400));
}

}  // namespace
}  // namespace imrm::core
