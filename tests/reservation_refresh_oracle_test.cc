// Independent oracle for the incremental reservation refresh.
//
// The roster policies rebuild only the cells whose inputs changed since
// their last refresh. Their oracle is the same policy rebuilding from
// nothing: before every refresh the test saves the policy and the
// directory, refreshes the live (incremental) policy, then builds a fresh
// policy of the same kind, restores it from the saved bytes (a restore
// drops every cache, so its next refresh rebuilds every cell) and lets it
// refresh a copy of the saved directory. Both directories and both
// policies must then serialize to the same bytes: every reservation, every
// floating-point total, every hosted policy's counters.
//
// The roster policies (brute force, aggregate, the dispatcher's
// per-portable part) are also held to a reference written the way they
// computed their reservations before: clear everything, then reserve in
// ascending source cell, then ascending portable order. That pins the
// floating-point totals to the summation order the full refresh used.
//
// The workload between refreshes is random: moves with the campus day's
// handoff admission, admissions and drops that change the demand table,
// new portables, several mutations between two refreshes, and clock jumps
// across T_th, the meeting-room windows and the lounge slot boundaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "mobility/floorplan.h"
#include "mobility/manager.h"
#include "prediction/predictor.h"
#include "profiles/profile_server.h"
#include "reservation/dispatcher.h"
#include "reservation/lounge_policy.h"
#include "reservation/policy.h"
#include "reservation/probabilistic.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"

namespace imrm::reservation {
namespace {

using mobility::CellClass;
using mobility::CellMap;
using qos::kbps;
using sim::Duration;
using sim::SimTime;

enum class Kind {
  kNone,
  kStatic,
  kBruteForce,
  kAggregate,
  kDispatcher,
  kMeetingRoom,
  kCafeteria,
  kDefaultLounge,  // with the probabilistic bound of Section 6.3
};

std::string kind_name(Kind kind) {
  switch (kind) {
    case Kind::kNone: return "none";
    case Kind::kStatic: return "static";
    case Kind::kBruteForce: return "brute-force";
    case Kind::kAggregate: return "aggregate";
    case Kind::kDispatcher: return "dispatcher";
    case Kind::kMeetingRoom: return "meeting-room";
    case Kind::kCafeteria: return "cafeteria";
    case Kind::kDefaultLounge: return "default-lounge";
  }
  return "unknown";
}

constexpr Kind kAllKinds[] = {Kind::kNone,        Kind::kStatic,     Kind::kBruteForce,
                              Kind::kAggregate,   Kind::kDispatcher, Kind::kMeetingRoom,
                              Kind::kCafeteria,   Kind::kDefaultLounge};

constexpr qos::BitsPerSecond kCapacity = qos::mbps(1.6);
constexpr qos::BitsPerSecond kPerUser = kbps(28);
const Duration kStaticThreshold = Duration::minutes(3);
const Duration kSlot = Duration::minutes(1);
// Two meetings: the second one resets the room policy's counters.
const profiles::Meeting kMeetings[] = {{SimTime::minutes(30), SimTime::minutes(60), 10},
                                       {SimTime::minutes(150), SimTime::minutes(175), 6}};

profiles::BookingCalendar& book_meetings(profiles::BookingCalendar& calendar) {
  for (const profiles::Meeting& meeting : kMeetings) calendar.book(meeting);
  return calendar;
}

/// Two adjacent default lounges off a corridor: the default lounge's
/// probabilistic self-reservation only runs next to another default lounge,
/// which neither campus layout has.
CellMap lounge_pair_environment() {
  CellMap map;
  const CellId corridor = map.add_cell(CellClass::kCorridor, "corridor");
  const CellId a = map.add_cell(CellClass::kLounge, "lounge-a");
  const CellId b = map.add_cell(CellClass::kLounge, "lounge-b");
  const CellId office = map.add_cell(CellClass::kOffice, "office");
  map.connect(corridor, a);
  map.connect(corridor, b);
  map.connect(a, b);
  map.connect(corridor, office);
  return map;
}

std::vector<std::uint8_t> bytes_of(const ReservationDirectory& directory) {
  sim::CheckpointWriter w;
  directory.save_state(w);
  return w.take();
}

std::vector<std::uint8_t> bytes_of(const AdvanceReservationPolicy& policy) {
  sim::CheckpointWriter w;
  policy.save_state(w);
  return w.take();
}

/// A cell map, a roster driven at random (or step by step), and the policy
/// under test.
class World {
 public:
  /// `populated`: start with three random portables per cell.
  World(CellMap map, Kind kind, std::uint64_t seed, bool populated = true)
      : map_(std::move(map)), kind_(kind), manager_(map_, simulator_, kStaticThreshold),
        server_(net::ZoneId{0}), predictor_(map_, server_), rng_(seed) {
    for (const auto& cell : map_.cells()) directory_.add_cell(cell.id, kCapacity);
    room_ = first_of(CellClass::kMeetingRoom);
    cafeteria_ = first_of(CellClass::kCafeteria);
    lounge_ = first_of(CellClass::kLounge);
    if (room_.is_valid()) book_meetings(server_.calendar(room_));
    // A lounge policy sees traffic only around its cell: crowd it there.
    const CellId crowded = kind_ == Kind::kCafeteria       ? cafeteria_
                           : kind_ == Kind::kDefaultLounge ? lounge_
                                                           : CellId::invalid();
    if (crowded.is_valid()) {
      hot_cells_ = map_.cell(crowded).neighbors;
      hot_cells_.push_back(crowded);
    }
    for (std::size_t i = 0; populated && i < 3 * map_.size(); ++i) add_portable();
    // The harness wiring: profiles learn every handoff, the policy hears it.
    manager_.on_handoff([this](const mobility::HandoffEvent& e) {
      server_.record_handoff(e);
      if (policy_) policy_->on_handoff(e);
    });
    policy_ = make_policy(directory_);
  }

  [[nodiscard]] bool applicable() const {
    switch (kind_) {
      case Kind::kMeetingRoom: return room_.is_valid();
      case Kind::kCafeteria: return cafeteria_.is_valid();
      case Kind::kDefaultLounge: return lounge_.is_valid();
      default: return true;
    }
  }

  /// One step: a few mutations, a clock jump, then the checked refresh.
  void step() {
    for (std::uint64_t n = rng_() % 4; n-- > 0;) mutate();
    static constexpr double kJumps[] = {0.0, 0.5, 7.0, 20.0, 30.0, 60.0, 179.5};
    const double jump = kJumps[rng_() % std::size(kJumps)];
    simulator_.run_until(simulator_.now() + Duration::seconds(jump));
    refresh_and_compare();
  }

  [[nodiscard]] std::size_t reserved_cells() const {
    std::size_t n = 0;
    directory_.for_each_cell(
        [&n](CellId, const CellBandwidth& cell) { n += cell.reserved_total() > 0.0; });
    return n;
  }

  // ---- scripted steps --------------------------------------------------
  [[nodiscard]] const CellMap& map() const { return map_; }
  [[nodiscard]] const ReservationDirectory& directory() const { return directory_; }
  [[nodiscard]] profiles::ProfileServer& server() { return server_; }
  [[nodiscard]] bool reads_roster() const {
    return kind_ == Kind::kBruteForce || kind_ == Kind::kAggregate ||
           kind_ == Kind::kDispatcher;
  }

  PortableId add(CellId cell) {
    demand_.push_back(0.0);
    return manager_.add_portable(cell);
  }

  /// A handoff, admitted as the campus day admits it.
  void handoff(PortableId p, CellId to) {
    const CellId from = manager_.portable(p).current_cell;
    const qos::BitsPerSecond b = demand_[p.value()];
    if (b > 0.0) directory_.at(from).release(p);
    manager_.move(p, to);
    if (b > 0.0 && !directory_.at(to).admit_handoff(p, b)) demand_[p.value()] = 0.0;
  }

  /// Opens a connection of `b`; returns whether the cell admitted it.
  bool open(PortableId p, qos::BitsPerSecond b) {
    if (!directory_.at(manager_.portable(p).current_cell).admit_new(p, b)) return false;
    demand_[p.value()] = b;
    return true;
  }

  void close(PortableId p) {
    directory_.at(manager_.portable(p).current_cell).release(p);
    demand_[p.value()] = 0.0;
  }

  void advance_to(SimTime t) { simulator_.run_until(t); }

  [[nodiscard]] bool is_static(PortableId p) const {
    return manager_.classify(p) == qos::MobilityClass::kStatic;
  }

  /// How many cells hold a reservation for `p`.
  [[nodiscard]] std::size_t reservations_of(PortableId p) const {
    std::size_t n = 0;
    directory_.for_each_cell(
        [&n, p](CellId, const CellBandwidth& cell) { n += cell.reservation_for(p) > 0.0; });
    return n;
  }

  /// Refreshes the policy under test and holds it to the fresh-policy
  /// oracle and, for the roster policies, to the clear-and-replay
  /// reference.
  void refresh_and_compare() {
    const std::vector<std::uint8_t> policy_before = bytes_of(*policy_);
    const std::vector<std::uint8_t> directory_before = bytes_of(directory_);
    policy_->refresh(simulator_.now());
    const std::string at = "at t=" + std::to_string(simulator_.now().to_seconds());

    ReservationDirectory rebuilt = directory_from(directory_before);
    const std::unique_ptr<AdvanceReservationPolicy> oracle = make_policy(rebuilt);
    sim::CheckpointReader policy_reader(policy_before);
    oracle->restore_state(policy_reader);
    oracle->refresh(simulator_.now());
    ASSERT_EQ(bytes_of(directory_), bytes_of(rebuilt)) << at;
    ASSERT_EQ(bytes_of(*policy_), bytes_of(*oracle)) << at;

    if (reads_roster()) {
      ReservationDirectory reference = directory_from(directory_before);
      reference_refresh(reference);
      ASSERT_EQ(bytes_of(directory_), bytes_of(reference)) << at << " (reference)";
    }
  }

 private:
  CellId first_of(CellClass cell_class) const {
    const std::vector<CellId> cells = map_.cells_of_class(cell_class);
    return cells.empty() ? CellId::invalid() : cells.front();
  }

  PolicyEnv env(ReservationDirectory& directory) {
    PolicyEnv e;
    e.map = &map_;
    e.directory = &directory;
    e.profiles = &server_;
    e.mobility = &manager_;
    e.demand = &demand_;
    return e;
  }

  std::unique_ptr<AdvanceReservationPolicy> make_policy(ReservationDirectory& directory) {
    switch (kind_) {
      case Kind::kNone: return std::make_unique<NoReservationPolicy>(env(directory));
      case Kind::kStatic: return std::make_unique<StaticPolicy>(env(directory), 0.1);
      case Kind::kBruteForce: return std::make_unique<BruteForcePolicy>(env(directory));
      case Kind::kAggregate: return std::make_unique<AggregatePolicy>(env(directory));
      case Kind::kDispatcher:
        return std::make_unique<PolicyDispatcher>(env(directory), predictor_, server_,
                                                  PolicyDispatcher::Params{});
      case Kind::kMeetingRoom: {
        profiles::BookingCalendar calendar;
        book_meetings(calendar);
        MeetingRoomPolicy::Params params;
        params.per_user_bandwidth = kPerUser;
        return std::make_unique<MeetingRoomPolicy>(env(directory), room_, std::move(calendar),
                                                   params);
      }
      case Kind::kCafeteria:
        return std::make_unique<CafeteriaPolicy>(env(directory), cafeteria_, kSlot, kPerUser);
      case Kind::kDefaultLounge: {
        ProbabilisticReservation::Config config;
        config.capacity_units = 40;
        config.window = 0.01;
        config.p_qos = 0.01;
        config.handoff_prob = 0.7;
        return std::make_unique<DefaultLoungePolicy>(
            env(directory), lounge_, kSlot, kPerUser,
            ProbabilisticReservation(config, {{1, 0.2}}));
      }
    }
    return nullptr;
  }

  PortableId add_portable() {
    const CellId cell = !hot_cells_.empty() && rng_() % 2 == 0
                            ? hot_cells_[rng_() % hot_cells_.size()]
                            : CellId{static_cast<CellId::underlying>(rng_() % map_.size())};
    return add(cell);
  }

  /// Any portable; around the crowded cell half of the time.
  PortableId any_portable() {
    if (!hot_cells_.empty() && rng_() % 2 == 0) {
      const auto& residents = manager_.portables_in(hot_cells_[rng_() % hot_cells_.size()]);
      if (!residents.empty()) return residents[rng_() % residents.size()];
    }
    return PortableId{static_cast<PortableId::underlying>(rng_() % manager_.portable_count())};
  }

  void mutate() {
    switch (rng_() % 8) {
      case 0:
      case 1:
      case 2:
      case 3: {  // a handoff
        const PortableId p = any_portable();
        const auto& neighbors = map_.cell(manager_.portable(p).current_cell).neighbors;
        handoff(p, neighbors[rng_() % neighbors.size()]);
        break;
      }
      case 4: {  // a connection opens
        const PortableId p = any_portable();
        if (demand_[p.value()] > 0.0) break;
        // Rates off the integer grid, so a total summed in another order
        // than the full rebuild's differs in its last bits.
        static constexpr double kRates[] = {16.0, 28.0, 64.0, 96.0};
        const qos::BitsPerSecond b =
            kbps(kRates[rng_() % std::size(kRates)]) * (1.0 + double(rng_() % 997) / 7919.0);
        open(p, b);
        break;
      }
      case 5: {  // a connection closes
        const PortableId p = any_portable();
        if (demand_[p.value()] > 0.0) close(p);
        break;
      }
      case 6:
        add_portable();
        break;
      default:
        break;  // nothing happens: only the clock moves
    }
  }

  /// A directory with the cells of the map, restored from `bytes`.
  ReservationDirectory directory_from(const std::vector<std::uint8_t>& bytes) const {
    ReservationDirectory directory;
    for (const auto& cell : map_.cells()) directory.add_cell(cell.id, kCapacity);
    sim::CheckpointReader reader(bytes);
    directory.restore_state(reader);
    return directory;
  }

  /// The portable-specific reservations written out as the policies made
  /// them before their refresh became incremental: every cell cleared, then
  /// each mobile, connected portable's shares reserved in ascending source
  /// cell, then ascending portable order. The anonymous reservations are
  /// copied from the live directory; they are not under test here.
  void reference_refresh(ReservationDirectory& directory) const {
    directory.clear_reservations();
    for (const mobility::Cell& cell : map_.cells()) {
      const profiles::CellProfile* profile = server_.cell_profile(cell.id);
      const auto distribution = profile == nullptr
                                    ? std::vector<profiles::CellProfile::NeighborShare>{}
                                    : profile->aggregate_distribution();
      for (const PortableId p : manager_.portables_in(cell.id)) {
        if (manager_.classify(p) != qos::MobilityClass::kMobile) continue;
        const qos::BitsPerSecond b = demand_[p.value()];
        if (b <= 0.0) continue;
        if (kind_ == Kind::kBruteForce) {
          for (const CellId n : cell.neighbors) directory.at(n).reserve_for(p, b);
        } else if (kind_ == Kind::kAggregate) {
          for (const auto& share : distribution) {
            if (share.probability > 0.0) {
              directory.at(share.neighbor).reserve_for(p, b * share.probability);
            }
          }
        } else if (!mobility::is_lounge(cell.cell_class) &&
                   !(cell.cell_class == CellClass::kOffice && cell.is_occupant(p))) {
          const prediction::Prediction next =
              predictor_.predict(p, manager_.portable(p).previous_cell, cell.id);
          if (next.next_cell.has_value()) directory.at(*next.next_cell).reserve_for(p, b);
        }
      }
    }
    directory.for_each_cell([this](CellId id, CellBandwidth& account) {
      account.set_anonymous_reservation(directory_.at(id).anonymous_reservation());
    });
  }

  CellMap map_;
  Kind kind_;
  sim::Simulator simulator_;
  mobility::MobilityManager manager_;
  profiles::ProfileServer server_;
  prediction::ThreeLevelPredictor predictor_;
  ReservationDirectory directory_;
  std::vector<qos::BitsPerSecond> demand_;  // by PortableId::value()
  std::unique_ptr<AdvanceReservationPolicy> policy_;
  std::mt19937_64 rng_;
  CellId room_ = CellId::invalid();
  CellId cafeteria_ = CellId::invalid();
  CellId lounge_ = CellId::invalid();
  std::vector<CellId> hot_cells_;
};

/// Drives `steps` checked refreshes of every applicable policy kind.
void sweep(CellMap (*environment)(), std::size_t steps) {
  for (const Kind kind : kAllKinds) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(kind_name(kind) + " seed " + std::to_string(seed));
      World world(environment(), kind, seed);
      if (!world.applicable()) continue;
      std::size_t busy_steps = 0;
      for (std::size_t i = 0; i < steps; ++i) {
        world.step();
        if (::testing::Test::HasFatalFailure()) return;
        busy_steps += world.reserved_cells() > 0;
      }
      // The sweep must exercise reservations, not compare empty directories.
      if (kind != Kind::kNone) {
        EXPECT_GT(busy_steps, steps / 10);
      }
    }
  }
}

TEST(ReservationRefreshOracle, CampusEnvironmentEveryPolicy) {
  sweep([] { return mobility::campus_environment(); }, 400);
}

TEST(ReservationRefreshOracle, BuildingEnvironmentEveryPolicy) {
  sweep([] { return mobility::building_environment(); }, 300);
}

TEST(ReservationRefreshOracle, ProbabilisticLoungeNextToADefaultLounge) {
  sweep(lounge_pair_environment, 300);
}

// ---- scripted cases --------------------------------------------------------
//
// Each case below walks one situation the incremental bookkeeping must see,
// on the campus floor, under every roster policy, checking every refresh
// against the fresh-policy oracle and the clear-and-replay reference.

constexpr Kind kRosterKinds[] = {Kind::kBruteForce, Kind::kAggregate, Kind::kDispatcher};

struct Corridor {
  CellId c0, c1, c2, c3;
};

Corridor corridor_of(const CellMap& map) {
  return {*map.find("corridor-0"), *map.find("corridor-1"), *map.find("corridor-2"),
          *map.find("corridor-3")};
}

/// A campus World with an empty roster whose corridor profiles already hold
/// history: an unconnected walker paces the corridor twice at t = 0, so the
/// aggregate and the dispatcher have distributions to reserve by.
std::unique_ptr<World> scripted_world(Kind kind) {
  auto world = std::make_unique<World>(mobility::campus_environment(), kind, 1, false);
  const Corridor c = corridor_of(world->map());
  const PortableId walker = world->add(c.c0);
  for (int lap = 0; lap < 2; ++lap) {
    for (const CellId to : {c.c1, c.c2, c.c3, c.c2, c.c1, c.c0}) {
      world->handoff(walker, to);
      world->refresh_and_compare();
      if (::testing::Test::HasFatalFailure()) return world;
    }
  }
  return world;
}

/// Off the integer grid, so a total summed in another order than the full
/// rebuild's differs in its last bits.
qos::BitsPerSecond off_grid(double kbits, int n) {
  return kbps(kbits) * (1.0 + double(n) / 7919.0);
}

TEST(ReservationRefreshOracle, FirstEntrantMovesAwayThenTheNextOldestTurnsStatic) {
  for (const Kind kind : kRosterKinds) {
    SCOPED_TRACE(kind_name(kind));
    const std::unique_ptr<World> w = scripted_world(kind);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    const Corridor c = corridor_of(w->map());
    const PortableId first = w->add(c.c1);
    ASSERT_TRUE(w->open(first, off_grid(28, 13)));
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    w->advance_to(SimTime::seconds(30));
    const PortableId second = w->add(c.c2);
    ASSERT_TRUE(w->open(second, off_grid(64, 71)));
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    // The first entrant moves away: the second is now the oldest holder.
    w->advance_to(SimTime::seconds(90));
    w->handoff(first, c.c0);
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    // A pure clock advance past the second's T_th, short of the first's.
    w->advance_to(SimTime::seconds(30) + kStaticThreshold + Duration::seconds(5));
    ASSERT_TRUE(w->is_static(second));
    ASSERT_FALSE(w->is_static(first));
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    EXPECT_EQ(w->reservations_of(second), 0u);
  }
}

TEST(ReservationRefreshOracle, TwoHoldersCrossTheThresholdBetweenTwoRefreshes) {
  for (const Kind kind : kRosterKinds) {
    SCOPED_TRACE(kind_name(kind));
    const std::unique_ptr<World> w = scripted_world(kind);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    const Corridor c = corridor_of(w->map());
    const PortableId a = w->add(c.c1);
    ASSERT_TRUE(w->open(a, off_grid(28, 5)));
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    w->advance_to(SimTime::seconds(10));
    const PortableId b = w->add(c.c2);
    ASSERT_TRUE(w->open(b, off_grid(16, 211)));
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    w->advance_to(SimTime::seconds(100));
    const PortableId late = w->add(c.c3);
    ASSERT_TRUE(w->open(late, off_grid(96, 37)));
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    if (kind == Kind::kBruteForce) {
      ASSERT_GT(w->reservations_of(b), 0u);
    }
    // a and b both turn static before the next refresh; late stays mobile.
    w->advance_to(SimTime::seconds(10) + kStaticThreshold + Duration::seconds(1));
    ASSERT_TRUE(w->is_static(a) && w->is_static(b));
    ASSERT_FALSE(w->is_static(late));
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    EXPECT_EQ(w->reservations_of(a), 0u);
    EXPECT_EQ(w->reservations_of(b), 0u);
    w->advance_to(SimTime::seconds(100) + kStaticThreshold);
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    EXPECT_EQ(w->reservations_of(late), 0u);
  }
}

TEST(ReservationRefreshOracle, CellProfileTouchReDiffsTheCellsHolders) {
  for (const Kind kind : kRosterKinds) {
    SCOPED_TRACE(kind_name(kind));
    const std::unique_ptr<World> w = scripted_world(kind);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    const Corridor c = corridor_of(w->map());
    const PortableId p = w->add(c.c1);
    const PortableId q = w->add(c.c1);
    const PortableId mover = w->add(c.c2);
    ASSERT_TRUE(w->open(p, off_grid(28, 3)));
    ASSERT_TRUE(w->open(q, off_grid(64, 17)));
    ASSERT_TRUE(w->open(mover, off_grid(16, 29)));
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    // No roster change: the corridor's profile learns a handoff.
    w->server().cell_profile_mut(c.c1).record(c.c2, c.c0);
    w->server().cell_profile_mut(c.c1).record(c.c0, c.c0);
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    // A bare touch: the revision moves, the profile does not.
    (void)w->server().cell_profile_mut(c.c1);
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    // A touch and a handoff between two refreshes: three profile bumps.
    w->server().cell_profile_mut(c.c1).record(c.c0, c.c2);
    w->server().cell_profile_mut(c.c1).record(c.c2, c.c2);
    w->handoff(mover, c.c3);
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    // And a portable profile touched on its own.
    w->server().portable_profile_mut(p).record(c.c0, c.c1, c.c0);
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
  }
}

TEST(ReservationRefreshOracle, DirtyCellLosingItsLastShareIsRestatedToZero) {
  for (const Kind kind : kRosterKinds) {
    SCOPED_TRACE(kind_name(kind));
    const std::unique_ptr<World> w = scripted_world(kind);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    const Corridor c = corridor_of(w->map());
    const PortableId p = w->add(c.c1);
    const PortableId q = w->add(c.c1);
    ASSERT_TRUE(w->open(p, off_grid(28, 101)));
    ASSERT_TRUE(w->open(q, off_grid(96, 577)));
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    if (kind == Kind::kBruteForce) {
      ASSERT_GT(w->reservations_of(q), 0u);
    }
    // The cells both aimed at keep q's share alone: the reference holds the
    // total to q's bandwidth, bit for bit.
    w->close(p);
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    w->close(q);
    ASSERT_NO_FATAL_FAILURE(w->refresh_and_compare());
    w->directory().for_each_cell([](CellId, const CellBandwidth& cell) {
      EXPECT_EQ(cell.reserved_total(), cell.anonymous_reservation());
    });
  }
}

TEST(ReservationRefreshOracle, ArrivalRebuildsTheCellEvenWhenTheSharesLookAlike) {
  // A portable profile that predicts the portable's own cell: walking into
  // the cell it was reserved in, the portable keeps the same share, but its
  // arrival consumed the reservation (admit_handoff). The move alone must
  // dirty the cell, or the reservation stays lost.
  const CellMap map = mobility::campus_environment();
  sim::Simulator simulator;
  mobility::MobilityManager manager(map, simulator, kStaticThreshold);
  profiles::ProfileServer server(net::ZoneId{0});
  const prediction::ThreeLevelPredictor predictor(map, server);
  ReservationDirectory directory;
  for (const auto& cell : map.cells()) directory.add_cell(cell.id, kCapacity);
  const CellId c0 = *map.find("corridor-0");
  const CellId c1 = *map.find("corridor-1");
  const CellId c2 = *map.find("corridor-2");

  const PortableId p = manager.add_portable(c0);
  manager.move(p, c1);  // previous c0, current c1
  server.record_handoff(p, c0, c1, c2);  // from c1 it heads to c2
  server.record_handoff(p, c1, c2, c2);  // and in c2 it "heads" to c2
  const qos::BitsPerSecond b = kbps(28);
  std::vector<qos::BitsPerSecond> demand(manager.portable_count(), 0.0);
  demand[p.value()] = b;
  ASSERT_TRUE(directory.at(c1).admit_new(p, b));

  PolicyEnv env;
  env.map = &map;
  env.directory = &directory;
  env.profiles = &server;
  env.mobility = &manager;
  env.demand = &demand;
  PolicyDispatcher dispatcher(env, predictor, server, PolicyDispatcher::Params{});
  dispatcher.refresh(simulator.now());
  ASSERT_DOUBLE_EQ(directory.at(c2).reservation_for(p), b);

  directory.at(c1).release(p);
  manager.move(p, c2);
  ASSERT_TRUE(directory.at(c2).admit_handoff(p, b));
  ASSERT_DOUBLE_EQ(directory.at(c2).reservation_for(p), 0.0);
  dispatcher.refresh(simulator.now());
  EXPECT_DOUBLE_EQ(directory.at(c2).reservation_for(p), b);
  ASSERT_TRUE(dispatcher.reserved_cell(p).has_value());
  EXPECT_EQ(*dispatcher.reserved_cell(p), c2);
}

}  // namespace
}  // namespace imrm::reservation
