// Three-level next-cell prediction (Section 6).
//
//  Level 1: the portable profile's next-predicted-cell for the portable's
//           (previous, current) state.
//  Level 2: the cell profile — if a neighboring office lists the portable as
//           a regular occupant, nominate that office; otherwise the
//           aggregate handoff history of the current cell.
//  Level 3: no information — the caller falls back to the default advance
//           reservation algorithm (Section 6.3).
#pragma once

#include <optional>
#include <string>

#include "mobility/floorplan.h"
#include "mobility/portable.h"
#include "profiles/cell_profile.h"
#include "profiles/portable_profile.h"
#include "profiles/profile_source.h"

namespace imrm::prediction {

using mobility::CellId;
using net::PortableId;

enum class PredictionLevel {
  kPortableProfile,  // level 1
  kOfficeOccupancy,  // level 2a
  kCellAggregate,    // level 2b
  kNone,             // level 3: use the default algorithm
};

[[nodiscard]] std::string to_string(PredictionLevel level);

struct Prediction {
  std::optional<CellId> next_cell;
  PredictionLevel level = PredictionLevel::kNone;
};

class ThreeLevelPredictor {
 public:
  ThreeLevelPredictor(const mobility::CellMap& map, const profiles::ProfileSource& source)
      : map_(&map), server_(&source) {}

  /// Predicts the next cell for `portable` currently in `current`, having
  /// previously been in `previous` (may be invalid for a fresh portable).
  [[nodiscard]] Prediction predict(PortableId portable, CellId previous,
                                   CellId current) const;

  /// The profile store the predictions read.
  [[nodiscard]] const profiles::ProfileSource& source() const { return *server_; }

  /// Convenience overload reading the state from a Portable record.
  [[nodiscard]] Prediction predict(const mobility::Portable& p) const {
    return predict(p.id, p.previous_cell, p.current_cell);
  }

 private:
  const mobility::CellMap* map_;
  const profiles::ProfileSource* server_;
};

}  // namespace imrm::prediction
