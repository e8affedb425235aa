// The grid campus's generated day (campus_scale.h): every portable gets a
// home office, a meeting room, one class period, a connection-bandwidth
// demand, and four milestones (appear, enter room, leave room, depart) laid
// out stride-4 in one arena. Generation is a pure function of (config,
// floorplan): one sim::Rng(seed) stream consumed in a fixed order.
//
// The grid-routing helpers live here too: portables walk
// scale_grid_floorplan paths (columns vertically, row 0 as the horizontal
// backbone), and the engine routes its advance reservations with the same
// function.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mobility/floorplan.h"

namespace imrm::experiments {
struct CampusScaleConfig;
}  // namespace imrm::experiments

namespace imrm::experiments::detail {

/// One attendee's day, laid out as a fixed stride-4 slice of the shared
/// milestone arena: appear, enter room, leave room, depart.
struct ScaleMilestone {
  double time = 0.0;
  enum Kind : std::uint8_t { kAppear, kEnter, kLeave, kDepart } kind = kAppear;
};
inline constexpr std::size_t kScaleMilestonesPerPortable = 4;

/// The full generated day, indexed by portable id. All vectors have exactly
/// `config.portables` entries (the arena has stride-4 that many).
struct ScaleWorkload {
  std::vector<std::uint32_t> home;       ///< home office cell
  std::vector<std::uint32_t> room;       ///< assigned meeting room
  std::vector<double> demand;            ///< connection bandwidth (bps)
  std::vector<ScaleMilestone> arena;     ///< stride kScaleMilestonesPerPortable

  [[nodiscard]] std::size_t memory_bytes() const {
    return home.capacity() * sizeof(std::uint32_t) +
           room.capacity() * sizeof(std::uint32_t) +
           demand.capacity() * sizeof(double) +
           arena.capacity() * sizeof(ScaleMilestone);
  }
};

/// Generates the day.
[[nodiscard]] ScaleWorkload generate_scale_workload(
    const CampusScaleConfig& config, const mobility::CellMap& map);

/// Grid side length used by scale_grid_floorplan: ceil(sqrt(cells)).
[[nodiscard]] std::size_t scale_grid_side(std::size_t cells);

/// One routing step on the grid: climb to the row-0 backbone, traverse it
/// horizontally, then descend the target column. Every step is a valid edge
/// of scale_grid_floorplan by construction.
[[nodiscard]] inline std::uint32_t route_next(std::size_t side,
                                              std::uint32_t from,
                                              std::uint32_t to) {
  const std::uint32_t r = from / std::uint32_t(side), c = from % std::uint32_t(side);
  const std::uint32_t tc = to % std::uint32_t(side);
  if (c != tc) {
    if (r != 0) return from - std::uint32_t(side);  // climb to the backbone
    return c < tc ? from + 1 : from - 1;
  }
  const std::uint32_t tr = to / std::uint32_t(side);
  return r < tr ? from + std::uint32_t(side) : from - std::uint32_t(side);
}

/// The cell just outside a room on the walk in — where an attendee waits
/// between arrive_corridor and enter_room.
[[nodiscard]] inline std::uint32_t gateway_of(std::size_t side, std::uint32_t room) {
  return room >= side ? room - std::uint32_t(side) : room;
}

}  // namespace imrm::experiments::detail
