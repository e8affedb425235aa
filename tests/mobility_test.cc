// Tests for the mobility substrate: cell maps, floor plans, the
// static/mobile classifier, the mobility manager, and the calibrated
// Figure 4 movement model.
#include <gtest/gtest.h>

#include <vector>

#include "mobility/cell.h"
#include "mobility/floorplan.h"
#include "mobility/manager.h"
#include "mobility/movement.h"
#include "mobility/portable.h"
#include "sim/checkpoint.h"
#include "sim/random.h"

namespace imrm::mobility {
namespace {

using sim::Duration;
using sim::SimTime;

TEST(CellClass, Names) {
  EXPECT_EQ(to_string(CellClass::kOffice), "office");
  EXPECT_EQ(to_string(CellClass::kMeetingRoom), "meeting-room");
  EXPECT_EQ(to_string(CellClass::kCafeteria), "cafeteria");
}

TEST(CellClass, LoungeClassification) {
  EXPECT_TRUE(is_lounge(CellClass::kMeetingRoom));
  EXPECT_TRUE(is_lounge(CellClass::kCafeteria));
  EXPECT_TRUE(is_lounge(CellClass::kLounge));
  EXPECT_FALSE(is_lounge(CellClass::kOffice));
  EXPECT_FALSE(is_lounge(CellClass::kCorridor));
}

TEST(CellMap, ConnectIsSymmetric) {
  CellMap map;
  const CellId a = map.add_cell(CellClass::kOffice, "a");
  const CellId b = map.add_cell(CellClass::kCorridor, "b");
  map.connect(a, b);
  EXPECT_TRUE(map.cell(a).is_neighbor(b));
  EXPECT_TRUE(map.cell(b).is_neighbor(a));
  EXPECT_TRUE(map.neighbor_relation_valid());
}

TEST(CellMap, ConnectIsIdempotent) {
  CellMap map;
  const CellId a = map.add_cell(CellClass::kOffice, "a");
  const CellId b = map.add_cell(CellClass::kCorridor, "b");
  map.connect(a, b);
  map.connect(a, b);
  map.connect(b, a);
  EXPECT_EQ(map.cell(a).neighbors.size(), 1u);
  EXPECT_EQ(map.cell(b).neighbors.size(), 1u);
}

TEST(CellMap, FindByName) {
  CellMap map;
  map.add_cell(CellClass::kOffice, "alpha");
  EXPECT_TRUE(map.find("alpha").has_value());
  EXPECT_FALSE(map.find("beta").has_value());
}

TEST(CellMap, OccupantsTrackOffices) {
  CellMap map;
  const CellId office = map.add_cell(CellClass::kOffice, "o");
  map.add_occupant(office, PortableId{7});
  EXPECT_TRUE(map.cell(office).is_occupant(PortableId{7}));
  EXPECT_FALSE(map.cell(office).is_occupant(PortableId{8}));
}

TEST(Fig4, TopologyMatchesPaper) {
  const CellMap map = fig4_environment();
  EXPECT_EQ(map.size(), 7u);
  EXPECT_TRUE(map.neighbor_relation_valid());
  const Fig4Cells c = fig4_cells(map);
  EXPECT_EQ(map.cell(c.a).cell_class, CellClass::kOffice);
  EXPECT_EQ(map.cell(c.b).cell_class, CellClass::kOffice);
  EXPECT_EQ(map.cell(c.d).cell_class, CellClass::kCorridor);
  // The measured handoff targets from D: A, E (toward B), F, G, plus C.
  EXPECT_TRUE(map.cell(c.d).is_neighbor(c.a));
  EXPECT_TRUE(map.cell(c.d).is_neighbor(c.e));
  EXPECT_TRUE(map.cell(c.d).is_neighbor(c.f));
  EXPECT_TRUE(map.cell(c.d).is_neighbor(c.g));
  EXPECT_TRUE(map.cell(c.d).is_neighbor(c.c));
  EXPECT_TRUE(map.cell(c.e).is_neighbor(c.b));
  // Offices hang off the corridor, not off each other.
  EXPECT_FALSE(map.cell(c.a).is_neighbor(c.b));
}

TEST(Campus, ContainsEveryCellClass) {
  const CellMap map = campus_environment();
  EXPECT_TRUE(map.neighbor_relation_valid());
  EXPECT_FALSE(map.cells_of_class(CellClass::kOffice).empty());
  EXPECT_FALSE(map.cells_of_class(CellClass::kCorridor).empty());
  EXPECT_FALSE(map.cells_of_class(CellClass::kMeetingRoom).empty());
  EXPECT_FALSE(map.cells_of_class(CellClass::kCafeteria).empty());
  EXPECT_FALSE(map.cells_of_class(CellClass::kLounge).empty());
}

TEST(Campus, CafeteriaHasDefaultNeighbor) {
  // Section 6.2.2's special case must be constructible.
  const CellMap map = campus_environment();
  const CellId caf = *map.find("cafeteria");
  bool has_default = false;
  for (CellId n : map.cell(caf).neighbors) {
    if (map.cell(n).cell_class == CellClass::kLounge) has_default = true;
  }
  EXPECT_TRUE(has_default);
}

TEST(Building, MultiFloorConnectivity) {
  mobility::BuildingConfig config;
  config.floors = 3;
  const CellMap map = building_environment(config);
  EXPECT_TRUE(map.neighbor_relation_valid());
  // Every floor's cells exist, with per-floor zones.
  for (int f = 0; f < 3; ++f) {
    const std::string prefix = std::string("f").append(std::to_string(f)).append("/");
    const auto office = map.find(prefix + "office-0");
    ASSERT_TRUE(office.has_value()) << prefix;
    EXPECT_EQ(map.cell(*office).zone.value(), unsigned(f));
    EXPECT_TRUE(map.find(prefix + "stairs").has_value());
  }
  // Stairwells chain the floors: f0/stairs - f1/stairs - f2/stairs.
  const CellId s0 = *map.find("f0/stairs");
  const CellId s1 = *map.find("f1/stairs");
  const CellId s2 = *map.find("f2/stairs");
  EXPECT_TRUE(map.cell(s0).is_neighbor(s1));
  EXPECT_TRUE(map.cell(s1).is_neighbor(s2));
  EXPECT_FALSE(map.cell(s0).is_neighbor(s2));
}

TEST(Building, SingleFloorMatchesCampusPlusStairs) {
  mobility::BuildingConfig config;
  config.floors = 1;
  const CellMap building = building_environment(config);
  const CellMap campus = campus_environment(config.floor);
  // The lounge-cafeteria extra edge exists only in the campus builder, so
  // sizes differ by exactly the stairwell cell.
  EXPECT_EQ(building.size(), campus.size() + 1);
}

TEST(Classifier, ThresholdSeparatesStaticFromMobile) {
  const StaticMobileClassifier classifier(Duration::minutes(3));
  Portable p;
  p.entered_cell = SimTime::minutes(10);
  EXPECT_EQ(classifier.classify(p, SimTime::minutes(11)), qos::MobilityClass::kMobile);
  EXPECT_EQ(classifier.classify(p, SimTime::minutes(13)), qos::MobilityClass::kStatic);
  EXPECT_DOUBLE_EQ(classifier.static_at(p).to_minutes(), 13.0);
}

TEST(Manager, MoveUpdatesStateAndHistory) {
  const CellMap map = fig4_environment();
  const Fig4Cells c = fig4_cells(map);
  sim::Simulator simulator;
  MobilityManager manager(map, simulator, Duration::minutes(3));
  const PortableId p = manager.add_portable(c.c);

  std::vector<HandoffEvent> events;
  manager.on_handoff([&](const HandoffEvent& e) { events.push_back(e); });

  manager.move(p, c.d);
  manager.move(p, c.a);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].from, c.c);
  EXPECT_EQ(events[0].to, c.d);
  EXPECT_FALSE(events[0].prev_of_from.is_valid());  // fresh portable
  EXPECT_EQ(events[1].from, c.d);
  EXPECT_EQ(events[1].to, c.a);
  EXPECT_EQ(events[1].prev_of_from, c.c);
  EXPECT_EQ(manager.portable(p).current_cell, c.a);
  EXPECT_EQ(manager.portable(p).previous_cell, c.d);
}

TEST(Manager, MoveResetsDwellClock) {
  const CellMap map = fig4_environment();
  const Fig4Cells c = fig4_cells(map);
  sim::Simulator simulator;
  MobilityManager manager(map, simulator, Duration::minutes(3));
  const PortableId p = manager.add_portable(c.c);
  simulator.run_until(SimTime::minutes(10));
  EXPECT_EQ(manager.classify(p), qos::MobilityClass::kStatic);
  manager.move(p, c.d);
  EXPECT_EQ(manager.classify(p), qos::MobilityClass::kMobile);
}

TEST(Manager, PortablesInCell) {
  const CellMap map = fig4_environment();
  const Fig4Cells c = fig4_cells(map);
  sim::Simulator simulator;
  MobilityManager manager(map, simulator, Duration::minutes(3));
  const PortableId p1 = manager.add_portable(c.c);
  const PortableId p2 = manager.add_portable(c.c);
  manager.add_portable(c.d);
  const auto in_c = manager.portables_in(c.c);
  EXPECT_EQ(in_c.size(), 2u);
  EXPECT_NE(std::find(in_c.begin(), in_c.end(), p1), in_c.end());
  EXPECT_NE(std::find(in_c.begin(), in_c.end(), p2), in_c.end());
}

/// The resident index against a brute-force scan of the roster: every
/// cell's portables_in must list exactly the portables whose current_cell
/// is that cell, ascending, and resident_count must be its size.
void expect_index_matches_roster(const MobilityManager& manager, const CellMap& map) {
  std::vector<std::vector<PortableId>> expected(map.size());
  for (std::size_t i = 0; i < manager.portable_count(); ++i) {
    const PortableId id{PortableId::underlying(i)};
    expected[manager.portable(id).current_cell.value()].push_back(id);
  }
  for (const Cell& cell : map.cells()) {
    ASSERT_EQ(manager.portables_in(cell.id), expected[cell.id.value()]) << cell.name;
    ASSERT_EQ(manager.resident_count(cell.id), expected[cell.id.value()].size());
  }
}

TEST(Manager, ResidentIndexMatchesRosterUnderRandomMoves) {
  const CellMap map = campus_environment();
  sim::Simulator simulator;
  sim::Rng rng(17);
  const auto random_cell = [&] {
    return CellId{CellId::underlying(rng.uniform_int(0, int(map.size()) - 1))};
  };
  MobilityManager manager(map, simulator, Duration::minutes(3));
  for (int step = 0; step < 10000; ++step) {
    if (manager.portable_count() == 0 || rng.bernoulli(0.05)) {
      manager.add_portable(random_cell());
    } else {
      const PortableId p{PortableId::underlying(
          rng.uniform_int(0, int(manager.portable_count()) - 1))};
      const auto& neighbors = map.cell(manager.portable(p).current_cell).neighbors;
      manager.move(p, neighbors[std::size_t(
                          rng.uniform_int(0, int(neighbors.size()) - 1))]);
    }
    ASSERT_NO_FATAL_FAILURE(expect_index_matches_roster(manager, map)) << "step " << step;
  }

  // The round trip rebuilds the index from the roster alone.
  sim::CheckpointWriter w;
  manager.save_state(w);
  const std::vector<std::uint8_t> bytes = w.take();
  sim::CheckpointReader r(bytes);
  MobilityManager restored(map, simulator, Duration::minutes(3));
  restored.restore_state(r);
  EXPECT_TRUE(r.done());
  ASSERT_EQ(restored.portable_count(), manager.portable_count());
  expect_index_matches_roster(restored, map);
  for (const Cell& cell : map.cells()) {
    EXPECT_EQ(restored.portables_in(cell.id), manager.portables_in(cell.id));
  }
}

TEST(TransitionTable, SecondOrderBeatsDefault) {
  const CellMap map = fig4_environment();
  const Fig4Cells c = fig4_cells(map);
  TransitionTable table;
  table.set(c.c, c.d, {{c.a, 1.0}});
  table.set_default(c.d, {{c.e, 1.0}});
  sim::Rng rng(1);
  EXPECT_EQ(table.sample(map, c.c, c.d, rng), c.a);      // second-order hit
  EXPECT_EQ(table.sample(map, c.e, c.d, rng), c.e);      // falls to default
}

TEST(TransitionTable, UniformFallbackStaysInNeighbors) {
  const CellMap map = fig4_environment();
  const Fig4Cells c = fig4_cells(map);
  const TransitionTable table;  // empty
  sim::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const CellId next = table.sample(map, CellId::invalid(), c.d, rng);
    EXPECT_TRUE(map.cell(c.d).is_neighbor(next));
  }
}

TEST(Fig4Calibration, FacultyFractionsReproduce) {
  // Generate many C->D decisions with the faculty weights and check the
  // fan-out fractions against the measured 94/20/13 out of 127.
  const CellMap map = fig4_environment();
  const Fig4Cells c = fig4_cells(map);
  const TransitionTable table = fig4_transition_table(map, fig4_faculty_weights());
  sim::Rng rng(42);
  int to_a = 0, to_e = 0, to_fg = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const CellId next = table.sample(map, c.c, c.d, rng);
    if (next == c.a) ++to_a;
    else if (next == c.e) ++to_e;
    else ++to_fg;
  }
  EXPECT_NEAR(to_a / double(n), 94.0 / 127.0, 0.01);
  EXPECT_NEAR(to_e / double(n), 20.0 / 127.0, 0.01);
  EXPECT_NEAR(to_fg / double(n), 13.0 / 127.0, 0.01);
}

TEST(MarkovMover, WalksUntilHorizon) {
  const CellMap map = fig4_environment();
  const Fig4Cells c = fig4_cells(map);
  sim::Simulator simulator;
  MobilityManager manager(map, simulator, sim::Duration::minutes(3));
  const PortableId p = manager.add_portable(c.c);

  MarkovMover::Config config;
  config.mean_dwell = sim::Duration::minutes(2);
  config.horizon = sim::SimTime::hours(4);
  MarkovMover mover(manager, fig4_transition_table(map, fig4_student_weights()), config,
                    sim::Rng(7));
  mover.start(p);
  simulator.run();
  EXPECT_GT(mover.moves_made(), 20u);       // ~120 expected moves in 4 h
  EXPECT_LE(simulator.now().to_hours(), 4.001);
}

}  // namespace
}  // namespace imrm::mobility
