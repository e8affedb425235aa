// Cell-type learning (Section 6.4, final paragraph).
//
// "In the case that a cell does not have its cell profile, the base station
//  has to execute the default reservation algorithm initially; meanwhile,
//  ... the profile server aggregates the handoff information for the cell
//  ... and tries to categorize the cell on basis of its profile behavior."
//
// The classifier consumes a day of per-slot handoff counts plus simple
// visit statistics and scores the class signatures the paper describes:
//   office       — few distinct users, most visits by "regulars", long dwell
//   corridor     — short dwells, visitors pass through (enter from one
//                  neighbor, leave to a different one)
//   meeting room — activity concentrated in sharp bursts around a few
//                  instants (high peak-to-mean, low occupancy duty cycle)
//   cafeteria    — smooth, slowly varying activity (small step-to-step
//                  change relative to level)
//   default      — none of the above: random time-varying activity
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mobility/cell.h"
#include "sim/flat_map.h"
#include "sim/time.h"

namespace imrm::prediction {

/// A day (or longer) of observations about one unlabeled cell.
class CellObservations {
 public:
  explicit CellObservations(sim::Duration slot = sim::Duration::minutes(5))
      : slot_(slot) {}

  /// A portable entered the cell at `t`.
  void record_entry(net::PortableId portable, sim::SimTime t);
  /// The same portable left at `t` toward `pass_through ? a different
  /// neighbor than it came from : back where it came from`.
  void record_exit(net::PortableId portable, sim::SimTime t, bool pass_through);

  /// The portable has left the system for good (teardown / end of day):
  /// folds its visit count into a bounded departed-user summary and drops
  /// its per-user entries, so classifier memory is O(resident portables)
  /// rather than O(everyone ever seen). Statistics stay exact except
  /// regular_fraction with k larger than the summary width (16).
  void record_final_departure(net::PortableId portable);

  [[nodiscard]] const std::vector<double>& activity() const { return activity_; }
  [[nodiscard]] std::size_t total_visits() const { return total_visits_; }
  [[nodiscard]] std::size_t distinct_users() const {
    return visits_by_user_.size() + departed_users_;
  }
  /// Per-user entries currently held (departed users excluded) — the
  /// quantity the eviction path keeps bounded.
  [[nodiscard]] std::size_t resident_entries() const {
    return visits_by_user_.size() + entered_at_.size();
  }
  [[nodiscard]] double mean_dwell_seconds() const;
  [[nodiscard]] double pass_through_fraction() const;
  /// Fraction of visits made by the top `k` users.
  [[nodiscard]] double regular_fraction(std::size_t k = 4) const;

  // Shape statistics of the per-slot activity series.
  [[nodiscard]] double peak_to_mean() const;
  /// Mean |x[i+1]-x[i]| divided by the mean level — low for slowly varying.
  [[nodiscard]] double roughness() const;
  /// Fraction of slots carrying any activity.
  [[nodiscard]] double duty_cycle() const;

 private:
  /// Departed visit counts kept for regular_fraction; 16 covers the paper's
  /// top-4 "regulars" question with a wide margin.
  static constexpr std::size_t kDepartedTopK = 16;

  sim::Duration slot_;
  std::vector<double> activity_;  // entries+exits per slot
  sim::FlatMap<std::uint32_t, std::size_t> visits_by_user_;
  sim::FlatMap<std::uint32_t, sim::SimTime> entered_at_;
  std::vector<std::size_t> departed_top_;  // descending, at most kDepartedTopK
  std::size_t departed_users_ = 0;
  std::size_t total_visits_ = 0;
  std::size_t pass_throughs_ = 0;
  std::size_t exits_ = 0;
  double dwell_sum_ = 0.0;
  std::size_t dwell_count_ = 0;

  void bump(sim::SimTime t);
};

struct Classification {
  mobility::CellClass cell_class = mobility::CellClass::kLounge;
  /// Per-class scores in [0, 1]; the argmax is `cell_class`.
  std::map<mobility::CellClass, double> scores;
};

/// Scores every class signature and returns the best match. Cells with too
/// little data (fewer than `min_visits`) default to kLounge at score 0.
/// The default threshold is deliberately low: an office with three regular
/// occupants produces only a handful of visits per day.
[[nodiscard]] Classification classify_cell(const CellObservations& obs,
                                           std::size_t min_visits = 5);

}  // namespace imrm::prediction
