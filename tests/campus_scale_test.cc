// The grid campus's inputs and its default run: the scale_grid_floorplan map
// must be a valid walkable map, the generated day must be a pure function of
// its config with an ordered day for every portable, grid routing must walk
// only real edges, and a default-config run (what a bare `scenario_cli
// campus-scale` executes) must be deterministic and export metrics equal to
// its result. The engine's shard/batch invariance is sharded_scale_test's.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "experiments/campus_scale.h"
#include "experiments/scale_workload.h"
#include "obs/metrics.h"

namespace imrm::experiments {
namespace {

CampusScaleConfig small_config() {
  CampusScaleConfig config;
  config.cells = 30;
  config.portables = 500;
  config.duration = sim::Duration::seconds(1800);
  config.tick = sim::Duration::seconds(5);
  config.seed = 11;
  return config;
}

std::string metrics_json(const obs::Registry& registry) {
  std::ostringstream os;
  registry.snapshot().write_json(os);
  return os.str();
}

bool adjacent(const mobility::CellMap& map, std::uint32_t a, std::uint32_t b) {
  const std::vector<mobility::CellId>& n = map.cell(mobility::CellId{a}).neighbors;
  return std::find(n.begin(), n.end(), mobility::CellId{b}) != n.end();
}

TEST(CampusScale, RunsAreDeterministic) {
  obs::Registry ra, rb;
  CampusScaleConfig config = small_config();
  config.metrics = &ra;
  const CampusScaleResult a = run_campus_scale_sharded(config);
  config.metrics = &rb;
  const CampusScaleResult b = run_campus_scale_sharded(config);
  EXPECT_EQ(a.outcome_hash, b.outcome_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.state_bytes, b.state_bytes);
  EXPECT_EQ(metrics_json(ra), metrics_json(rb));
}

TEST(CampusScale, EveryPortableAppearsAndDeparts) {
  const CampusScaleResult r = run_campus_scale_sharded(small_config());
  EXPECT_EQ(r.new_admitted + r.new_blocked, 500u);
  EXPECT_EQ(r.departures, 500u);
  EXPECT_GT(r.handoffs, 0u);
  EXPECT_GT(r.state_bytes, 0u);
  EXPECT_GT(r.bytes_per_portable, 0.0);
}

TEST(CampusScale, SeedChangesOutcome) {
  CampusScaleConfig other = small_config();
  other.seed = 12;
  const CampusScaleResult a = run_campus_scale_sharded(small_config());
  const CampusScaleResult b = run_campus_scale_sharded(other);
  EXPECT_NE(a.outcome_hash, b.outcome_hash);
}

TEST(CampusScale, MetricsExportMatchesResult) {
  obs::Registry registry;
  CampusScaleConfig config = small_config();
  config.metrics = &registry;
  const CampusScaleResult r = run_campus_scale_sharded(config);
  const obs::Snapshot snap = registry.snapshot();
  ASSERT_NE(snap.counter("scale.handoffs"), nullptr);
  EXPECT_EQ(snap.counter("scale.handoffs")->value, r.handoffs);
  ASSERT_NE(snap.counter("scale.handoff.dropped"), nullptr);
  EXPECT_EQ(snap.counter("scale.handoff.dropped")->value, r.handoff_dropped);
  ASSERT_NE(snap.counter("sim.events_fired"), nullptr);
  EXPECT_EQ(snap.counter("sim.events_fired")->value, r.events);
  ASSERT_NE(snap.gauge("scale.bytes_per_portable"), nullptr);
  EXPECT_DOUBLE_EQ(snap.gauge("scale.bytes_per_portable")->value, r.bytes_per_portable);
  ASSERT_NE(snap.gauge("sim.time_seconds"), nullptr);
  EXPECT_DOUBLE_EQ(snap.gauge("sim.time_seconds")->value, 1800.0);
}

TEST(CampusScale, GridFloorplanIsValidAtManySizes) {
  for (const std::size_t cells : {2u, 3u, 10u, 25u, 50u, 100u, 1000u}) {
    const mobility::CellMap map = scale_grid_floorplan(cells);
    EXPECT_EQ(map.size(), cells);
    EXPECT_TRUE(map.neighbor_relation_valid()) << cells << " cells";
    EXPECT_FALSE(map.cells_of_class(mobility::CellClass::kMeetingRoom).empty())
        << cells << " cells";
    // Homes exist: offices, or corridors on degenerate grids.
    const bool has_home =
        !map.cells_of_class(mobility::CellClass::kOffice).empty() ||
        !map.cells_of_class(mobility::CellClass::kCorridor).empty();
    EXPECT_TRUE(has_home) << cells << " cells";
    // Every cell has at least one neighbor (the map is connected by
    // construction: vertical spine per column + row-0 backbone).
    for (const mobility::Cell& cell : map.cells()) {
      EXPECT_FALSE(cell.neighbors.empty()) << "cell " << cell.name;
    }
  }
}

TEST(CampusScale, RoutesWalkGridEdgesToEveryTarget) {
  for (const std::size_t cells : {2u, 3u, 10u, 25u, 50u, 101u}) {
    const mobility::CellMap map = scale_grid_floorplan(cells);
    const std::size_t side = detail::scale_grid_side(cells);
    for (std::uint32_t from = 0; from < cells; ++from) {
      for (std::uint32_t to = 0; to < cells; ++to) {
        // Climb to row 0, cross it, descend: at most 3 * side steps.
        std::uint32_t at = from;
        std::size_t steps = 0;
        while (at != to && steps <= 3 * side) {
          const std::uint32_t next = detail::route_next(side, at, to);
          ASSERT_LT(next, cells) << from << "->" << to << ", " << cells << " cells";
          ASSERT_TRUE(adjacent(map, at, next))
              << at << "->" << next << " on " << from << "->" << to << ", "
              << cells << " cells";
          at = next;
          ++steps;
        }
        EXPECT_EQ(at, to) << from << "->" << to << ", " << cells << " cells";
      }
    }
    // A room's gateway is the cell an attendee waits in before entering:
    // the room itself on row 0, else the neighbor above it.
    for (const mobility::CellId room :
         map.cells_of_class(mobility::CellClass::kMeetingRoom)) {
      const std::uint32_t gate = detail::gateway_of(side, room.value());
      EXPECT_TRUE(gate == room.value() || adjacent(map, gate, room.value()))
          << "room " << room.value() << ", " << cells << " cells";
    }
  }
}

TEST(CampusScale, WorkloadIsAPureFunctionOfConfig) {
  const CampusScaleConfig config = small_config();
  const mobility::CellMap map = scale_grid_floorplan(config.cells);
  const detail::ScaleWorkload a = detail::generate_scale_workload(config, map);
  const detail::ScaleWorkload b = detail::generate_scale_workload(config, map);
  EXPECT_EQ(a.home, b.home);
  EXPECT_EQ(a.room, b.room);
  EXPECT_EQ(a.demand, b.demand);
  ASSERT_EQ(a.arena.size(), b.arena.size());
  for (std::size_t i = 0; i < a.arena.size(); ++i) {
    EXPECT_EQ(a.arena[i].time, b.arena[i].time) << "milestone " << i;
    EXPECT_EQ(a.arena[i].kind, b.arena[i].kind) << "milestone " << i;
  }

  CampusScaleConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  const detail::ScaleWorkload c = detail::generate_scale_workload(reseeded, map);
  bool times_differ = false;
  for (std::size_t i = 0; i < a.arena.size() && !times_differ; ++i) {
    times_differ = a.arena[i].time != c.arena[i].time;
  }
  EXPECT_TRUE(times_differ || a.demand != c.demand);
}

TEST(CampusScale, WorkloadGivesEveryPortableAnOrderedDay) {
  for (const std::size_t cells : {2u, 10u, 30u, 100u}) {
    CampusScaleConfig config = small_config();
    config.cells = cells;
    const mobility::CellMap map = scale_grid_floorplan(cells);
    const detail::ScaleWorkload w = detail::generate_scale_workload(config, map);
    const double duration = config.duration.to_seconds();
    ASSERT_EQ(w.home.size(), config.portables);
    ASSERT_EQ(w.room.size(), config.portables);
    ASSERT_EQ(w.demand.size(), config.portables);
    ASSERT_EQ(w.arena.size(), config.portables * detail::kScaleMilestonesPerPortable);
    const bool has_offices = !map.cells_of_class(mobility::CellClass::kOffice).empty();
    for (std::size_t p = 0; p < config.portables; ++p) {
      const std::string label =
          "portable " + std::to_string(p) + ", " + std::to_string(cells) + " cells";
      ASSERT_LT(w.home[p], cells) << label;
      ASSERT_LT(w.room[p], cells) << label;
      EXPECT_EQ(map.cell(mobility::CellId{w.home[p]}).cell_class,
                has_offices ? mobility::CellClass::kOffice
                            : mobility::CellClass::kCorridor)
          << label;
      EXPECT_EQ(map.cell(mobility::CellId{w.room[p]}).cell_class,
                mobility::CellClass::kMeetingRoom)
          << label;
      EXPECT_GT(w.demand[p], 0.0) << label;
      const detail::ScaleMilestone* m =
          &w.arena[p * detail::kScaleMilestonesPerPortable];
      EXPECT_EQ(m[0].kind, detail::ScaleMilestone::kAppear) << label;
      EXPECT_EQ(m[1].kind, detail::ScaleMilestone::kEnter) << label;
      EXPECT_EQ(m[2].kind, detail::ScaleMilestone::kLeave) << label;
      EXPECT_EQ(m[3].kind, detail::ScaleMilestone::kDepart) << label;
      EXPECT_GE(m[0].time, 0.0) << label;
      for (std::size_t k = 1; k < detail::kScaleMilestonesPerPortable; ++k) {
        EXPECT_LE(m[k - 1].time, m[k].time) << label << ", milestone " << k;
      }
      EXPECT_LE(m[3].time, duration) << label;
    }
  }
}

}  // namespace
}  // namespace imrm::experiments
