// Tests for the advance reservation policies (brute-force, aggregate,
// static, meeting-room, cafeteria, default lounge).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mobility/floorplan.h"
#include "mobility/manager.h"
#include "profiles/profile_server.h"
#include "reservation/lounge_policy.h"
#include "reservation/policy.h"
#include "sim/checkpoint.h"

namespace imrm::reservation {
namespace {

using mobility::CellClass;
using mobility::CellMap;
using qos::kbps;
using sim::Duration;
using sim::SimTime;

/// `full` with one of the fields a roster-walking policy needs left null.
std::vector<PolicyEnv> incomplete_envs(const PolicyEnv& full) {
  std::vector<PolicyEnv> out(3, full);
  out[0].map = nullptr;
  out[1].directory = nullptr;
  out[2].mobility = nullptr;
  return out;
}

/// Harness wiring a policy environment over the Figure 4 map.
class PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture()
      : map_(mobility::fig4_environment()), cells_(mobility::fig4_cells(map_)),
        manager_(map_, simulator_, Duration::minutes(3)), server_(net::ZoneId{0}) {
    for (const auto& cell : map_.cells()) directory_.add_cell(cell.id, kbps(1600));
  }

  PolicyEnv env() {
    PolicyEnv e;
    e.map = &map_;
    e.directory = &directory_;
    e.profiles = &server_;
    e.mobility = &manager_;
    e.demand = &demand_;
    return e;
  }

  PortableId spawn(CellId cell, qos::BitsPerSecond demand) {
    const PortableId p = manager_.add_portable(cell);
    demand_.resize(p.value() + 1, 0.0);
    demand_[p.value()] = demand;
    return p;
  }

  sim::Simulator simulator_;
  CellMap map_;
  mobility::Fig4Cells cells_;
  mobility::MobilityManager manager_;
  profiles::ProfileServer server_;
  ReservationDirectory directory_;
  std::vector<qos::BitsPerSecond> demand_;  // by PortableId::value()
};

TEST_F(PolicyFixture, BruteForceReservesInAllNeighbors) {
  const PortableId p = spawn(cells_.d, kbps(16));
  BruteForcePolicy policy(env());
  policy.refresh(simulator_.now());
  // D's neighbors: C, A, E, F, G — all hold a reservation for p.
  for (CellId n : map_.cell(cells_.d).neighbors) {
    EXPECT_DOUBLE_EQ(directory_.at(n).reservation_for(p), kbps(16))
        << map_.cell(n).name;
  }
  EXPECT_DOUBLE_EQ(directory_.at(cells_.d).reservation_for(p), 0.0);
}

TEST_F(PolicyFixture, BruteForceSkipsStaticPortables) {
  const PortableId p = spawn(cells_.d, kbps(16));
  simulator_.run_until(SimTime::minutes(10));  // p turns static
  BruteForcePolicy policy(env());
  policy.refresh(simulator_.now());
  for (CellId n : map_.cell(cells_.d).neighbors) {
    EXPECT_DOUBLE_EQ(directory_.at(n).reservation_for(p), 0.0);
  }
}

TEST_F(PolicyFixture, BruteForceSkipsConnectionlessPortables) {
  const PortableId p = spawn(cells_.d, 0.0);
  BruteForcePolicy policy(env());
  policy.refresh(simulator_.now());
  for (CellId n : map_.cell(cells_.d).neighbors) {
    EXPECT_DOUBLE_EQ(directory_.at(n).reservation_for(p), 0.0);
  }
}

TEST_F(PolicyFixture, AggregateReservesProbabilityScaledBandwidth) {
  // Cell profile of D: 75% of departures go to A, 25% to E.
  for (int i = 0; i < 3; ++i) server_.record_handoff(PortableId{900}, cells_.c, cells_.d, cells_.a);
  server_.record_handoff(PortableId{900}, cells_.c, cells_.d, cells_.e);

  const PortableId p1 = spawn(cells_.d, kbps(16));
  const PortableId p2 = spawn(cells_.d, kbps(64));
  AggregatePolicy policy(env());
  policy.refresh(simulator_.now());

  // Each portable's bandwidth lands in A and E scaled by the probabilities.
  EXPECT_NEAR(directory_.at(cells_.a).reservation_for(p1), kbps(16) * 0.75, 1.0);
  EXPECT_NEAR(directory_.at(cells_.a).reservation_for(p2), kbps(64) * 0.75, 1.0);
  EXPECT_NEAR(directory_.at(cells_.e).reservation_for(p1), kbps(16) * 0.25, 1.0);
  EXPECT_NEAR(directory_.at(cells_.e).reserved_total(), kbps(80) * 0.25, 1.0);
  EXPECT_DOUBLE_EQ(directory_.at(cells_.f).reserved_total(), 0.0);
}

TEST_F(PolicyFixture, AggregateWithoutProfilesReservesNothing) {
  spawn(cells_.d, kbps(16));
  AggregatePolicy policy(env());
  policy.refresh(simulator_.now());
  for (const auto& cell : map_.cells()) {
    EXPECT_DOUBLE_EQ(directory_.at(cell.id).anonymous_reservation(), 0.0);
  }
}

TEST_F(PolicyFixture, StaticPolicyReservesGuardFraction) {
  StaticPolicy policy(env(), 0.15);
  policy.refresh(simulator_.now());
  for (const auto& cell : map_.cells()) {
    EXPECT_DOUBLE_EQ(directory_.at(cell.id).anonymous_reservation(), 0.15 * kbps(1600));
  }
}

TEST_F(PolicyFixture, NoReservationPolicyClearsEverything) {
  directory_.at(cells_.a).reserve_for(PortableId{5}, kbps(50));
  NoReservationPolicy policy(env());
  policy.refresh(simulator_.now());
  EXPECT_DOUBLE_EQ(directory_.at(cells_.a).reserved_total(), 0.0);
}

TEST_F(PolicyFixture, BruteForceAndAggregateRefuseIncompleteEnv) {
  for (const PolicyEnv& e : incomplete_envs(env())) {
    EXPECT_THROW(BruteForcePolicy{e}, std::invalid_argument);
    EXPECT_THROW(AggregatePolicy{e}, std::invalid_argument);
  }
}

TEST_F(PolicyFixture, BruteForceAndAggregateRefuseMissingInputs) {
  PolicyEnv no_demand = env();
  no_demand.demand = nullptr;
  EXPECT_THROW(BruteForcePolicy{no_demand}, std::invalid_argument);
  EXPECT_THROW(AggregatePolicy{no_demand}, std::invalid_argument);
  // Only the aggregate policy reads profiles.
  PolicyEnv no_profiles = env();
  no_profiles.profiles = nullptr;
  EXPECT_THROW(AggregatePolicy{no_profiles}, std::invalid_argument);
  EXPECT_NO_THROW(BruteForcePolicy{no_profiles});
}

TEST_F(PolicyFixture, StaticPolicyRefusesGuardFractionOutsideUnitInterval) {
  for (const double bad : {-0.01, 1.01, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(StaticPolicy(env(), bad), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW(StaticPolicy(env(), 0.0));
  EXPECT_NO_THROW(StaticPolicy(env(), 1.0));
}

TEST_F(PolicyFixture, MeetingRoomRefusesNonPositivePerUserBandwidth) {
  for (const double bad : {0.0, -kbps(28), std::numeric_limits<double>::quiet_NaN()}) {
    MeetingRoomPolicy::Params params;
    params.per_user_bandwidth = bad;
    EXPECT_THROW(MeetingRoomPolicy(env(), cells_.a, profiles::BookingCalendar{}, params),
                 std::invalid_argument)
        << bad;
  }
}

class MeetingRoomFixture : public PolicyFixture {
 protected:
  // Use office A as the "classroom" cell for simplicity: D is its corridor.
  MeetingRoomPolicy make_policy(std::size_t attendees) {
    profiles::BookingCalendar calendar;
    calendar.book({SimTime::minutes(60), SimTime::minutes(110), attendees});
    MeetingRoomPolicy::Params params;
    params.per_user_bandwidth = kbps(28);
    return MeetingRoomPolicy(env(), cells_.a, std::move(calendar), params);
  }
};

TEST_F(MeetingRoomFixture, ReservesForExpectedAttendeesBeforeStart) {
  auto policy = make_policy(10);
  policy.refresh(SimTime::minutes(40));  // before the window
  EXPECT_DOUBLE_EQ(directory_.at(cells_.a).anonymous_reservation(), 0.0);

  policy.refresh(SimTime::minutes(51));  // inside T_s - 10 min
  EXPECT_DOUBLE_EQ(directory_.at(cells_.a).anonymous_reservation(), 10 * kbps(28));
}

TEST_F(MeetingRoomFixture, ArrivalsShrinkTheReservation) {
  auto policy = make_policy(10);
  policy.refresh(SimTime::minutes(51));
  // 4 attendees arrive.
  for (int i = 0; i < 4; ++i) {
    mobility::HandoffEvent e;
    e.portable = PortableId{net::PortableId::underlying(10 + i)};
    e.from = cells_.d;
    e.to = cells_.a;
    policy.on_handoff(e);
  }
  policy.refresh(SimTime::minutes(55));
  EXPECT_DOUBLE_EQ(directory_.at(cells_.a).anonymous_reservation(), 6 * kbps(28));
  EXPECT_EQ(policy.arrived(), 4u);
}

TEST_F(MeetingRoomFixture, StartTimerReleasesUnusedReservation) {
  auto policy = make_policy(10);
  policy.refresh(SimTime::minutes(64));  // within the 5-min post-start timer
  EXPECT_GT(directory_.at(cells_.a).anonymous_reservation(), 0.0);
  policy.refresh(SimTime::minutes(66));  // timer expired
  EXPECT_DOUBLE_EQ(directory_.at(cells_.a).anonymous_reservation(), 0.0);
}

TEST_F(MeetingRoomFixture, ConclusionReservesInNeighbors) {
  auto policy = make_policy(10);
  // All 10 arrived during the inbound window.
  for (int i = 0; i < 10; ++i) {
    mobility::HandoffEvent e;
    e.portable = PortableId{net::PortableId::underlying(10 + i)};
    e.from = cells_.d;
    e.to = cells_.a;
    policy.on_handoff(e);
  }
  policy.refresh(SimTime::minutes(106));  // T_a - 5 min window open
  // A's only neighbor is D: the full outbound reservation lands there.
  EXPECT_DOUBLE_EQ(directory_.at(cells_.d).anonymous_reservation(), 10 * kbps(28));

  // 7 leave; the outbound reservation tracks N_m - N_left.
  for (int i = 0; i < 7; ++i) {
    mobility::HandoffEvent e;
    e.portable = PortableId{net::PortableId::underlying(10 + i)};
    e.from = cells_.a;
    e.to = cells_.d;
    policy.on_handoff(e);
  }
  policy.refresh(SimTime::minutes(112));
  EXPECT_DOUBLE_EQ(directory_.at(cells_.d).anonymous_reservation(), 3 * kbps(28));

  policy.refresh(SimTime::minutes(126));  // 15-min release timer expired
  EXPECT_DOUBLE_EQ(directory_.at(cells_.d).anonymous_reservation(), 0.0);
}

TEST_F(MeetingRoomFixture, CountersResetBetweenMeetings) {
  profiles::BookingCalendar calendar;
  calendar.book({SimTime::minutes(60), SimTime::minutes(70), 5});
  calendar.book({SimTime::minutes(180), SimTime::minutes(190), 8});
  MeetingRoomPolicy::Params params;
  params.per_user_bandwidth = kbps(28);
  MeetingRoomPolicy policy(env(), cells_.a, std::move(calendar), params);

  policy.refresh(SimTime::minutes(55));
  mobility::HandoffEvent e;
  e.portable = PortableId{11};
  e.from = cells_.d;
  e.to = cells_.a;
  policy.on_handoff(e);
  policy.refresh(SimTime::minutes(56));
  EXPECT_EQ(policy.arrived(), 1u);

  policy.refresh(SimTime::minutes(175));  // second meeting's window
  EXPECT_EQ(policy.arrived(), 0u);        // counters reset
  EXPECT_DOUBLE_EQ(directory_.at(cells_.a).anonymous_reservation(), 8 * kbps(28));
}

// ---- lounge policies ----------------------------------------------------

class LoungeFixture : public ::testing::Test {
 protected:
  LoungeFixture()
      : map_(mobility::campus_environment()), manager_(map_, simulator_, Duration::minutes(3)),
        server_(net::ZoneId{0}) {
    for (const auto& cell : map_.cells()) directory_.add_cell(cell.id, kbps(1600));
    cafeteria_ = *map_.find("cafeteria");
    lounge_ = *map_.find("lounge");
  }

  PolicyEnv env() {
    PolicyEnv e;
    e.map = &map_;
    e.directory = &directory_;
    e.profiles = &server_;
    e.mobility = &manager_;
    e.demand = &demand_;
    return e;
  }

  void feed_outgoing(LoungePolicyBase& policy, CellId from, double count) {
    for (int i = 0; i < int(count); ++i) {
      mobility::HandoffEvent e;
      e.portable = PortableId{net::PortableId::underlying(500 + i)};
      e.from = from;
      e.to = map_.cell(from).neighbors.front();
      policy.on_handoff(e);
    }
  }

  sim::Simulator simulator_;
  CellMap map_;
  mobility::MobilityManager manager_;
  profiles::ProfileServer server_;
  ReservationDirectory directory_;
  std::vector<qos::BitsPerSecond> demand_;  // the lounges read no demand
  CellId cafeteria_, lounge_;
};

TEST_F(LoungeFixture, CafeteriaPredictsLinearTrend) {
  CafeteriaPolicy policy(env(), cafeteria_, Duration::minutes(1), kbps(28));
  // Slots with 2, 4, 6 outgoing handoffs -> prediction 8 for the next slot.
  feed_outgoing(policy, cafeteria_, 2);
  policy.refresh(SimTime::minutes(1));
  feed_outgoing(policy, cafeteria_, 4);
  policy.refresh(SimTime::minutes(2));
  feed_outgoing(policy, cafeteria_, 6);
  policy.refresh(SimTime::minutes(3));

  double reserved = 0.0;
  for (CellId n : map_.cell(cafeteria_).neighbors) {
    reserved += directory_.at(n).anonymous_reservation();
  }
  EXPECT_NEAR(reserved, 8 * kbps(28), 1.0);
}

TEST_F(LoungeFixture, CafeteriaSelfReservesWithDefaultNeighbor) {
  // The campus cafeteria neighbors the default lounge, so it must also
  // reserve locally for its own predicted arrivals.
  ASSERT_TRUE([&] {
    for (CellId n : map_.cell(cafeteria_).neighbors) {
      if (map_.cell(n).cell_class == CellClass::kLounge) return true;
    }
    return false;
  }());
  CafeteriaPolicy policy(env(), cafeteria_, Duration::minutes(1), kbps(28));
  // 3 incoming per slot, constant.
  for (int slot = 1; slot <= 3; ++slot) {
    for (int i = 0; i < 3; ++i) {
      mobility::HandoffEvent e;
      e.portable = PortableId{net::PortableId::underlying(600 + i)};
      e.from = map_.cell(cafeteria_).neighbors.front();
      e.to = cafeteria_;
      policy.on_handoff(e);
    }
    policy.refresh(SimTime::minutes(double(slot)));
  }
  EXPECT_NEAR(directory_.at(cafeteria_).anonymous_reservation(), 3 * kbps(28), 1.0);
}

TEST_F(LoungeFixture, CafeteriaCheckpointRejectsAnOversizedPredictorWindow) {
  CafeteriaPolicy policy(env(), cafeteria_, Duration::minutes(1), kbps(28));
  for (int slot = 1; slot <= 5; ++slot) {
    feed_outgoing(policy, cafeteria_, slot);
    policy.refresh(SimTime::minutes(double(slot)));
  }
  sim::CheckpointWriter w;
  policy.save_state(w);
  const std::vector<std::uint8_t> bytes = w.take();

  // An intact checkpoint restores and re-saves to the same bytes.
  CafeteriaPolicy restored(env(), cafeteria_, Duration::minutes(1), kbps(28));
  sim::CheckpointReader intact(bytes);
  restored.restore_state(intact);
  EXPECT_TRUE(intact.done());
  sim::CheckpointWriter again;
  restored.save_state(again);
  EXPECT_EQ(again.take(), bytes);

  // The outgoing window's sample count follows the two slot counters and
  // the slot cursor.
  constexpr std::size_t kCountOffset = 3 * 8;
  sim::CheckpointReader header(bytes);
  (void)header.f64();
  (void)header.f64();
  (void)header.u64();
  ASSERT_EQ(header.u64(), CafeteriaPredictor::kWindow);
  for (const std::uint64_t samples : {std::uint64_t(4), std::uint64_t(1) << 40}) {
    std::vector<std::uint8_t> corrupt = bytes;
    for (std::size_t i = 0; i < 8; ++i) {
      corrupt[kCountOffset + i] = std::uint8_t(samples >> (8 * i));
    }
    CafeteriaPolicy victim(env(), cafeteria_, Duration::minutes(1), kbps(28));
    sim::CheckpointReader r(corrupt);
    EXPECT_THROW(victim.restore_state(r), sim::CheckpointError) << samples;
  }
  // The predictor's own restore refuses a window its 3 slots cannot hold.
  CafeteriaPredictor predictor;
  const double four[4] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(predictor.restore(four, 4), std::invalid_argument);
}

TEST_F(LoungeFixture, DefaultLoungeUsesOneStepMemory) {
  DefaultLoungePolicy policy(env(), lounge_, Duration::minutes(1), kbps(28));
  feed_outgoing(policy, lounge_, 5);
  policy.refresh(SimTime::minutes(1));
  double reserved = 0.0;
  for (CellId n : map_.cell(lounge_).neighbors) {
    reserved += directory_.at(n).anonymous_reservation();
  }
  EXPECT_NEAR(reserved, 5 * kbps(28), 1.0);

  // Next slot sees no handoffs: prediction falls to 0.
  policy.refresh(SimTime::minutes(2));
  reserved = 0.0;
  for (CellId n : map_.cell(lounge_).neighbors) {
    reserved += directory_.at(n).anonymous_reservation();
  }
  EXPECT_DOUBLE_EQ(reserved, 0.0);
}

TEST_F(LoungeFixture, DefaultLoungeAppliesProbabilisticBound) {
  ProbabilisticReservation::Config config;
  config.capacity_units = 40;
  // Short window: most connections stay put, so eq. 6 binds below the
  // physical capacity and eq. 7 yields a positive reservation.
  config.window = 0.01;
  config.p_qos = 0.01;
  config.handoff_prob = 0.7;
  ProbabilisticReservation prob(config, {{1, 0.2}});

  // The campus lounge neighbors the cafeteria (not a default cell) and a
  // corridor — also not default. Build a tiny map where the lounge has a
  // default neighbor to trigger the probabilistic path.
  CellMap map;
  const CellId l1 = map.add_cell(CellClass::kLounge, "l1");
  const CellId l2 = map.add_cell(CellClass::kLounge, "l2");
  map.connect(l1, l2);
  ReservationDirectory directory;
  directory.add_cell(l1, kbps(1600));
  directory.add_cell(l2, kbps(1600));
  mobility::MobilityManager manager(map, simulator_, Duration::minutes(3));
  for (int i = 0; i < 10; ++i) manager.add_portable(l2);  // neighbor load

  PolicyEnv e;
  e.map = &map;
  e.directory = &directory;
  e.profiles = &server_;
  e.mobility = &manager;

  DefaultLoungePolicy policy(std::move(e), l1, Duration::minutes(1), kbps(28),
                             std::move(prob));
  policy.refresh(SimTime::minutes(1));
  // The probabilistic bound reserves for potential arrivals from the loaded
  // default neighbor.
  EXPECT_GT(directory.at(l1).anonymous_reservation(), 0.0);
}

TEST_F(LoungeFixture, LoungesRefuseNonPositiveSlotOrBandwidth) {
  for (const Duration slot : {Duration::zero(), Duration::seconds(-60)}) {
    EXPECT_THROW(CafeteriaPolicy(env(), cafeteria_, slot, kbps(28)), std::invalid_argument);
    EXPECT_THROW(DefaultLoungePolicy(env(), lounge_, slot, kbps(28)), std::invalid_argument);
  }
  for (const double bad : {0.0, -kbps(28), std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(CafeteriaPolicy(env(), cafeteria_, Duration::minutes(1), bad),
                 std::invalid_argument);
    EXPECT_THROW(DefaultLoungePolicy(env(), lounge_, Duration::minutes(1), bad),
                 std::invalid_argument);
  }
}

TEST_F(LoungeFixture, DefaultLoungeBoundRefusesIncompleteEnv) {
  ProbabilisticReservation::Config config;
  config.capacity_units = 40;
  const ProbabilisticReservation prob(config, {{1, 0.2}});
  for (const PolicyEnv& e : incomplete_envs(env())) {
    EXPECT_THROW(DefaultLoungePolicy(e, lounge_, Duration::minutes(1), kbps(28), prob),
                 std::invalid_argument);
  }
  // Without the probabilistic bound the lounge never reads the roster.
  PolicyEnv no_roster = env();
  no_roster.mobility = nullptr;
  EXPECT_NO_THROW(DefaultLoungePolicy(no_roster, lounge_, Duration::minutes(1), kbps(28)));
}

}  // namespace
}  // namespace imrm::reservation
