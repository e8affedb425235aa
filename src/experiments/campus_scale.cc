// The grid campus's inputs: the scale_grid_floorplan map and the generated
// class-schedule day (scale_workload.h) that run_campus_scale_sharded
// executes (campus_scale_sharded.cc).
#include "experiments/campus_scale.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "experiments/scale_workload.h"
#include "sim/random.h"
#include "workload/class_schedule.h"
#include "workload/connection_mix.h"

namespace imrm::experiments {

namespace {
using net::CellId;
constexpr std::uint32_t kNoCell = CellId::invalid().value();
}  // namespace

namespace detail {

std::size_t scale_grid_side(std::size_t cells) {
  std::size_t side = std::size_t(std::ceil(std::sqrt(double(cells))));
  return std::max<std::size_t>(side, 1);
}

ScaleWorkload generate_scale_workload(const CampusScaleConfig& cfg,
                                      const mobility::CellMap& map) {
  ScaleWorkload w;
  const std::size_t n = cfg.portables;
  w.home.assign(n, kNoCell);
  w.room.assign(n, kNoCell);
  w.demand.assign(n, 0.0);
  w.arena.assign(n * kScaleMilestonesPerPortable, ScaleMilestone{});

  sim::Rng rng(cfg.seed);
  const workload::ConnectionMix mix = workload::paper_fig5_mix();
  const double dur = cfg.duration.to_seconds();
  const auto clamp_time = [dur](sim::SimTime t) {
    return std::clamp(t.to_seconds(), 0.0, dur);
  };

  std::vector<CellId> offices = map.cells_of_class(mobility::CellClass::kOffice);
  std::vector<CellId> rooms = map.cells_of_class(mobility::CellClass::kMeetingRoom);
  if (offices.empty()) offices = map.cells_of_class(mobility::CellClass::kCorridor);
  assert(!offices.empty() && !rooms.empty());

  // Class periods: 25-minute classes every 40 minutes, first at t=10min;
  // short runs get one period in the middle of the window.
  std::vector<std::pair<double, double>> periods;
  for (double start = 600.0; start + 2100.0 <= dur; start += 2400.0) {
    periods.emplace_back(start, start + 1500.0);
  }
  if (periods.empty()) periods.emplace_back(0.30 * dur, 0.60 * dur);

  // Assign each portable a home office, a meeting room, and one class
  // period; group attendees per (room, period) so one class workload draw
  // covers the whole group.
  const std::size_t groups = rooms.size() * periods.size();
  std::vector<std::vector<std::uint32_t>> group_members(groups);
  for (std::uint32_t p = 0; p < cfg.portables; ++p) {
    w.home[p] = offices[p % offices.size()].value();
    const std::size_t ri = p % rooms.size();
    const std::size_t pi = (p / rooms.size()) % periods.size();
    w.room[p] = rooms[ri].value();
    group_members[ri * periods.size() + pi].push_back(p);
  }

  for (std::size_t ri = 0; ri < rooms.size(); ++ri) {
    for (std::size_t pi = 0; pi < periods.size(); ++pi) {
      const std::vector<std::uint32_t>& members =
          group_members[ri * periods.size() + pi];
      if (members.empty()) continue;
      profiles::Meeting meeting;
      meeting.start = sim::SimTime::seconds(periods[pi].first);
      meeting.stop = sim::SimTime::seconds(periods[pi].second);
      meeting.attendees = members.size();

      workload::ClassScheduleConfig schedule;
      schedule.meeting = meeting;
      schedule.passby_per_minute = 0.0;  // pass-by walkers not modeled here
      const workload::ClassWorkload plan =
          workload::generate_class_workload(schedule, rng);
      assert(plan.attendees.size() == members.size());
      for (std::size_t j = 0; j < members.size(); ++j) {
        const std::uint32_t p = members[j];
        const workload::AttendeePlan& a = plan.attendees[j];
        ScaleMilestone* m = &w.arena[p * kScaleMilestonesPerPortable];
        m[0] = {clamp_time(a.arrive_corridor), ScaleMilestone::kAppear};
        m[1] = {clamp_time(a.enter_room), ScaleMilestone::kEnter};
        m[2] = {clamp_time(a.leave_room), ScaleMilestone::kLeave};
        m[3] = {clamp_time(a.depart), ScaleMilestone::kDepart};
        w.demand[p] = mix.sample(rng);
      }
    }
  }
  return w;
}

}  // namespace detail

mobility::CellMap scale_grid_floorplan(std::size_t cells) {
  assert(cells >= 2);
  const std::size_t side = detail::scale_grid_side(cells);

  // First pass: pick classes. Corridor rows every third row; other cells
  // cycle offices with meeting rooms and cafeterias sprinkled in. Guarantee
  // at least one office and one meeting room even on degenerate grids.
  std::vector<mobility::CellClass> classes(cells);
  std::size_t offices = 0, rooms = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t r = i / side;
    if (r % 3 == 0) {
      classes[i] = mobility::CellClass::kCorridor;
    } else if (i % 5 == 2) {
      classes[i] = mobility::CellClass::kMeetingRoom;
      ++rooms;
    } else if (i % 11 == 4) {
      classes[i] = mobility::CellClass::kCafeteria;
    } else {
      classes[i] = mobility::CellClass::kOffice;
      ++offices;
    }
  }
  if (rooms == 0) classes[cells - 1] = mobility::CellClass::kMeetingRoom;
  if (offices == 0 && cells >= 2) {
    if (classes[cells - 2] != mobility::CellClass::kMeetingRoom || rooms > 0) {
      classes[cells - 2] = mobility::CellClass::kOffice;
    } else {
      classes[cells - 1] = mobility::CellClass::kOffice;
      classes[cells - 2] = mobility::CellClass::kMeetingRoom;
    }
  }

  mobility::CellMap map;
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t r = i / side, c = i % side;
    std::string name = std::string("g").append(std::to_string(r));
    map.add_cell(classes[i], name.append("_").append(std::to_string(c)));
  }
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t r = i / side, c = i % side;
    // Horizontal edges along corridor rows (row 0 is the routing backbone).
    if (r % 3 == 0 && c + 1 < side && i + 1 < cells) {
      map.connect(CellId{std::uint32_t(i)}, CellId{std::uint32_t(i + 1)});
    }
    if (i + side < cells) {
      map.connect(CellId{std::uint32_t(i)}, CellId{std::uint32_t(i + side)});
    }
  }
  assert(map.neighbor_relation_valid());
  return map;
}

}  // namespace imrm::experiments
