#include "mobility/floorplan.h"

#include <cassert>

namespace imrm::mobility {

CellId CellMap::add_cell(CellClass cell_class, std::string name, ZoneId zone) {
  const CellId id{static_cast<CellId::underlying>(cells_.size())};
  Cell cell;
  cell.id = id;
  cell.cell_class = cell_class;
  cell.name = std::move(name);
  cell.zone = zone;
  cells_.push_back(std::move(cell));
  return id;
}

void CellMap::connect(CellId a, CellId b) {
  assert(a != b && "a cell cannot neighbor itself");
  Cell& ca = cell(a);
  Cell& cb = cell(b);
  if (!ca.is_neighbor(b)) ca.neighbors.push_back(b);
  if (!cb.is_neighbor(a)) cb.neighbors.push_back(a);
}

std::optional<CellId> CellMap::find(const std::string& name) const {
  for (const Cell& c : cells_) {
    if (c.name == name) return c.id;
  }
  return std::nullopt;
}

void CellMap::add_occupant(CellId office, PortableId portable) {
  Cell& c = cell(office);
  assert(c.cell_class == CellClass::kOffice);
  if (!c.is_occupant(portable)) c.occupants.push_back(portable);
}

std::vector<CellId> CellMap::cells_of_class(CellClass cls) const {
  std::vector<CellId> out;
  for (const Cell& c : cells_) {
    if (c.cell_class == cls) out.push_back(c.id);
  }
  return out;
}

bool CellMap::neighbor_relation_valid() const {
  for (const Cell& c : cells_) {
    for (CellId n : c.neighbors) {
      if (n == c.id) return false;
      if (n.value() >= cells_.size()) return false;
      if (!cell(n).is_neighbor(c.id)) return false;
    }
  }
  return true;
}

CellMap fig4_environment() {
  CellMap map;
  const CellId a = map.add_cell(CellClass::kOffice, "A");    // faculty office
  const CellId b = map.add_cell(CellClass::kOffice, "B");    // student office
  const CellId c = map.add_cell(CellClass::kCorridor, "C");
  const CellId d = map.add_cell(CellClass::kCorridor, "D");
  const CellId e = map.add_cell(CellClass::kCorridor, "E");
  const CellId f = map.add_cell(CellClass::kCorridor, "F");
  const CellId g = map.add_cell(CellClass::kCorridor, "G");
  map.connect(c, d);
  map.connect(d, a);
  map.connect(d, e);
  map.connect(d, f);
  map.connect(d, g);
  map.connect(e, b);
  assert(map.neighbor_relation_valid());
  return map;
}

Fig4Cells fig4_cells(const CellMap& map) {
  return Fig4Cells{*map.find("A"), *map.find("B"), *map.find("C"), *map.find("D"),
                   *map.find("E"), *map.find("F"), *map.find("G")};
}

CellMap campus_environment(const CampusConfig& config) {
  assert(config.offices >= 1 && config.corridor_segments >= 1);
  CellMap map;

  // Corridor backbone.
  std::vector<CellId> corridor;
  for (int i = 0; i < config.corridor_segments; ++i) {
    corridor.push_back(map.add_cell(CellClass::kCorridor, "corridor-" + std::to_string(i)));
    if (i > 0) map.connect(corridor[std::size_t(i) - 1], corridor[std::size_t(i)]);
  }

  // Offices hang off the corridor, round-robin.
  for (int i = 0; i < config.offices; ++i) {
    const CellId office = map.add_cell(CellClass::kOffice, "office-" + std::to_string(i));
    map.connect(office, corridor[std::size_t(i) % corridor.size()]);
  }

  if (config.with_meeting_room) {
    const CellId room = map.add_cell(CellClass::kMeetingRoom, "meeting-room");
    map.connect(room, corridor.front());
  }
  if (config.with_cafeteria) {
    const CellId caf = map.add_cell(CellClass::kCafeteria, "cafeteria");
    map.connect(caf, corridor.back());
  }
  if (config.with_default_lounge) {
    const CellId lounge = map.add_cell(CellClass::kLounge, "lounge");
    map.connect(lounge, corridor[corridor.size() / 2]);
    if (config.with_cafeteria) {
      // The cafeteria-with-default-neighbor case of Section 6.2.2.
      map.connect(lounge, *map.find("cafeteria"));
    }
  }
  assert(map.neighbor_relation_valid());
  return map;
}

CellMap building_environment(const BuildingConfig& config) {
  assert(config.floors >= 1);
  CellMap map;
  std::vector<CellId> stairwells;  // one per floor, linking to the next

  for (int f = 0; f < config.floors; ++f) {
    const std::string prefix = std::string("f").append(std::to_string(f)).append("/");
    const ZoneId zone{static_cast<ZoneId::underlying>(f)};

    // Corridor backbone of the floor.
    std::vector<CellId> corridor;
    for (int i = 0; i < config.floor.corridor_segments; ++i) {
      corridor.push_back(map.add_cell(CellClass::kCorridor,
                                      prefix + "corridor-" + std::to_string(i), zone));
      if (i > 0) map.connect(corridor[std::size_t(i) - 1], corridor[std::size_t(i)]);
    }
    for (int i = 0; i < config.floor.offices; ++i) {
      const CellId office =
          map.add_cell(CellClass::kOffice, prefix + "office-" + std::to_string(i), zone);
      map.connect(office, corridor[std::size_t(i) % corridor.size()]);
    }
    if (config.floor.with_meeting_room) {
      const CellId room = map.add_cell(CellClass::kMeetingRoom, prefix + "meeting-room", zone);
      map.connect(room, corridor.front());
    }
    if (config.floor.with_cafeteria) {
      const CellId caf = map.add_cell(CellClass::kCafeteria, prefix + "cafeteria", zone);
      map.connect(caf, corridor.back());
    }
    if (config.floor.with_default_lounge) {
      const CellId lounge = map.add_cell(CellClass::kLounge, prefix + "lounge", zone);
      map.connect(lounge, corridor[corridor.size() / 2]);
    }

    // Stairwell: a corridor cell hanging off this floor's first segment,
    // connected to the previous floor's stairwell.
    const CellId stairs =
        map.add_cell(CellClass::kCorridor, prefix + "stairs", zone);
    map.connect(stairs, corridor.front());
    if (f > 0) map.connect(stairs, stairwells.back());
    stairwells.push_back(stairs);
  }
  assert(map.neighbor_relation_valid());
  return map;
}

}  // namespace imrm::mobility
