#include "prediction/predictor.h"

namespace imrm::prediction {

std::string to_string(PredictionLevel level) {
  switch (level) {
    case PredictionLevel::kPortableProfile: return "portable-profile";
    case PredictionLevel::kOfficeOccupancy: return "office-occupancy";
    case PredictionLevel::kCellAggregate: return "cell-aggregate";
    case PredictionLevel::kNone: return "none";
  }
  return "unknown";
}

Prediction ThreeLevelPredictor::predict(PortableId portable, CellId previous,
                                        CellId current) const {
  // Level 1: the portable's own profile for this (previous, current) state.
  if (const profiles::PortableProfile* profile = server_->portable_profile(portable)) {
    if (const auto next = profile->predict(previous, current)) {
      return {next, PredictionLevel::kPortableProfile};
    }
  }

  // Level 2a: a neighboring office of which the user is a regular occupant.
  for (CellId neighbor : map_->cell(current).neighbors) {
    const mobility::Cell& cell = map_->cell(neighbor);
    if (cell.cell_class == mobility::CellClass::kOffice && cell.is_occupant(portable)) {
      return {neighbor, PredictionLevel::kOfficeOccupancy};
    }
  }

  // Level 2b: the cell's aggregate handoff history.
  if (const profiles::CellProfile* profile = server_->cell_profile(current)) {
    if (const auto next = profile->predict(previous)) {
      return {next, PredictionLevel::kCellAggregate};
    }
    // Previous-cell-specific history absent: fall back to the overall
    // aggregate of the cell.
    if (const auto next = profile->predict_aggregate()) {
      return {next, PredictionLevel::kCellAggregate};
    }
  }

  // Level 3: nothing to go on; the default algorithm takes over.
  return {std::nullopt, PredictionLevel::kNone};
}

}  // namespace imrm::prediction
