// Tests for the Section 6.4 policy dispatcher: per-cell-class reservation
// dispatch with hosted collective lounge policies.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mobility/floorplan.h"
#include "mobility/manager.h"
#include "prediction/predictor.h"
#include "profiles/profile_server.h"
#include "reservation/dispatcher.h"

namespace imrm::reservation {
namespace {

using mobility::CellClass;
using qos::kbps;
using sim::Duration;
using sim::SimTime;

class DispatcherFixture : public ::testing::Test {
 protected:
  DispatcherFixture()
      : map_(mobility::campus_environment()),
        manager_(map_, simulator_, Duration::minutes(3)), server_(net::ZoneId{0}),
        predictor_(map_, server_) {
    for (const auto& cell : map_.cells()) directory_.add_cell(cell.id, kbps(1600));
    office_ = *map_.find("office-0");
    corridor_ = *map_.find("corridor-0");
    meeting_ = *map_.find("meeting-room");
    cafeteria_ = *map_.find("cafeteria");
    manager_.on_handoff([this](const mobility::HandoffEvent& e) {
      server_.record_handoff(e);
      if (dispatcher_) dispatcher_->on_handoff(e);
    });
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

  void make_dispatcher() {
    dispatcher_ = std::make_unique<PolicyDispatcher>(env(), predictor_, server_,
                                                     PolicyDispatcher::Params{});
  }

  net::PortableId spawn(CellId cell, qos::BitsPerSecond b) {
    const auto p = manager_.add_portable(cell);
    demand_.resize(p.value() + 1, 0.0);
    demand_[p.value()] = b;
    return p;
  }

  sim::Simulator simulator_;
  mobility::CellMap map_;
  mobility::MobilityManager manager_;
  profiles::ProfileServer server_;
  prediction::ThreeLevelPredictor predictor_;
  ReservationDirectory directory_;
  std::vector<qos::BitsPerSecond> demand_;  // by PortableId::value()
  std::unique_ptr<PolicyDispatcher> dispatcher_;
  CellId office_, corridor_, meeting_, cafeteria_;
};

TEST_F(DispatcherFixture, OccupantAtHomeGetsNoReservation) {
  const auto p = spawn(office_, kbps(28));
  map_.add_occupant(office_, p);
  make_dispatcher();
  dispatcher_->refresh(simulator_.now());
  EXPECT_FALSE(dispatcher_->reserved_cell(p).has_value());
  for (const auto& cell : map_.cells()) {
    EXPECT_DOUBLE_EQ(directory_.at(cell.id).reservation_for(p), 0.0);
  }
}

TEST_F(DispatcherFixture, CorridorWalkerReservedInNeighborOffice) {
  const auto p = spawn(corridor_, kbps(28));
  map_.add_occupant(office_, p);  // regular occupant of the adjacent office
  make_dispatcher();
  dispatcher_->refresh(simulator_.now());
  ASSERT_TRUE(dispatcher_->reserved_cell(p).has_value());
  EXPECT_EQ(*dispatcher_->reserved_cell(p), office_);
  EXPECT_DOUBLE_EQ(directory_.at(office_).reservation_for(p), kbps(28));
}

TEST_F(DispatcherFixture, PortableProfileBeatsOccupancy) {
  const auto p = spawn(corridor_, kbps(28));
  map_.add_occupant(office_, p);
  // But the profile says this user continues down the corridor.
  const CellId next_corridor = *map_.find("corridor-1");
  for (int i = 0; i < 3; ++i) {
    server_.record_handoff(p, manager_.portable(p).previous_cell, corridor_,
                           next_corridor);
  }
  make_dispatcher();
  dispatcher_->refresh(simulator_.now());
  ASSERT_TRUE(dispatcher_->reserved_cell(p).has_value());
  EXPECT_EQ(*dispatcher_->reserved_cell(p), next_corridor);
}

TEST_F(DispatcherFixture, StaticPortablesSkipped) {
  const auto p = spawn(corridor_, kbps(28));
  map_.add_occupant(office_, p);
  simulator_.run_until(SimTime::minutes(10));
  make_dispatcher();
  dispatcher_->refresh(simulator_.now());
  EXPECT_FALSE(dispatcher_->reserved_cell(p).has_value());
}

TEST_F(DispatcherFixture, MeetingRoomPolicyHosted) {
  server_.calendar(meeting_).book({SimTime::minutes(60), SimTime::minutes(110), 12});
  make_dispatcher();
  dispatcher_->refresh(SimTime::minutes(55));
  // The hosted meeting policy reserves for the expected attendees.
  EXPECT_DOUBLE_EQ(directory_.at(meeting_).anonymous_reservation(), 12 * kbps(28));
}

TEST_F(DispatcherFixture, LoungeContributionsCoexistWithPerPortable) {
  // A walker reserved in the office AND the meeting reservation both live in
  // the directory after one refresh (the dispatcher clears exactly once).
  const auto p = spawn(corridor_, kbps(28));
  map_.add_occupant(office_, p);
  server_.calendar(meeting_).book({SimTime::minutes(60), SimTime::minutes(110), 12});
  make_dispatcher();
  dispatcher_->refresh(SimTime::minutes(55));
  EXPECT_DOUBLE_EQ(directory_.at(office_).reservation_for(p), kbps(28));
  EXPECT_DOUBLE_EQ(directory_.at(meeting_).anonymous_reservation(), 12 * kbps(28));
}

TEST_F(DispatcherFixture, CafeteriaPredictionsFlowThroughDispatcher) {
  make_dispatcher();
  // 3 handoffs out of the cafeteria per slot, constant.
  const auto neighbor = map_.cell(cafeteria_).neighbors.front();
  for (int slot = 1; slot <= 3; ++slot) {
    for (int i = 0; i < 3; ++i) {
      const auto p = manager_.add_portable(cafeteria_);
      manager_.move(p, neighbor);
    }
    dispatcher_->refresh(SimTime::minutes(double(slot)));
  }
  double reserved = 0.0;
  for (CellId n : map_.cell(cafeteria_).neighbors) {
    reserved += directory_.at(n).anonymous_reservation();
  }
  EXPECT_GT(reserved, 0.0);
}

TEST_F(DispatcherFixture, RefusesIncompleteEnv) {
  const PolicyEnv full = env();
  for (int missing = 0; missing < 3; ++missing) {
    PolicyEnv e = full;
    if (missing == 0) e.map = nullptr;
    if (missing == 1) e.directory = nullptr;
    if (missing == 2) e.mobility = nullptr;
    EXPECT_THROW(PolicyDispatcher(e, predictor_, server_, PolicyDispatcher::Params{}),
                 std::invalid_argument);
  }
  PolicyEnv no_demand = full;
  no_demand.demand = nullptr;
  EXPECT_THROW(PolicyDispatcher(no_demand, predictor_, server_, PolicyDispatcher::Params{}),
               std::invalid_argument);
}

TEST_F(DispatcherFixture, RefusesPredictorReadingAnotherProfileStore) {
  // The per-portable cache keys on env.profiles' revisions, so a predictor
  // reading any other store could go stale unseen.
  const profiles::ProfileServer other(net::ZoneId{1});
  const prediction::ThreeLevelPredictor elsewhere(map_, other);
  EXPECT_THROW(PolicyDispatcher(env(), elsewhere, server_, PolicyDispatcher::Params{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace imrm::reservation
