// Mobility manager: owns the portables, validates moves against the cell
// map, applies the static/mobile classifier, and fans handoff events out to
// listeners (profile servers, resource managers, statistics).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mobility/cell.h"
#include "mobility/floorplan.h"
#include "mobility/portable.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"

namespace imrm::obs {
class Counter;
class Histogram;
class Registry;
}  // namespace imrm::obs

namespace imrm::mobility {

struct HandoffEvent {
  PortableId portable = PortableId::invalid();
  CellId from = CellId::invalid();
  CellId to = CellId::invalid();
  /// The portable's previous cell *before* `from` — what profile-based
  /// prediction keys on.
  CellId prev_of_from = CellId::invalid();
  sim::SimTime time = sim::SimTime::zero();
};

class MobilityManager {
 public:
  using HandoffListener = std::function<void(const HandoffEvent&)>;

  MobilityManager(const CellMap& map, sim::Simulator& simulator,
                  sim::Duration static_threshold)
      : map_(&map), simulator_(&simulator), classifier_(static_threshold) {}

  /// Makes room for a roster of `portables`: the roster itself, and every
  /// resident bucket a portable enters from now on (a bucket can hold the
  /// whole roster). Neither grows again while the roster stays within it.
  void reserve(std::size_t portables);

  /// Creates a portable in `start`. It is considered to have entered the
  /// cell at the current simulation time.
  PortableId add_portable(CellId start);

  /// Moves a portable to a neighboring cell, firing handoff listeners.
  /// Moving to a non-neighbor is a programming error (asserted).
  void move(PortableId portable, CellId to);

  [[nodiscard]] const Portable& portable(PortableId id) const {
    return portables_.at(id.value());
  }
  [[nodiscard]] Portable& portable(PortableId id) { return portables_.at(id.value()); }
  [[nodiscard]] std::size_t portable_count() const { return portables_.size(); }

  [[nodiscard]] qos::MobilityClass classify(PortableId id) const {
    return classifier_.classify(portable(id), simulator_->now());
  }
  [[nodiscard]] const StaticMobileClassifier& classifier() const { return classifier_; }

  /// Portables currently in `cell`, ascending id. O(1), no copy: the
  /// manager keeps each cell's resident bucket sorted. The reference stays
  /// valid, and its contents unchanged, until the next add_portable, move
  /// or restore_state that touches `cell`; do not move portables while
  /// iterating it.
  [[nodiscard]] const std::vector<PortableId>& portables_in(CellId cell) const {
    static const std::vector<PortableId> kEmpty;
    const std::size_t i = cell.value();
    return i < residents_by_cell_.size() ? residents_by_cell_[i] : kEmpty;
  }

  /// Change counter of the roster: bumped by add_portable, move and
  /// restore_state, so a reader can tell in O(1) that nobody moved.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }
  /// The portable the latest add_portable or move concerned (invalid after
  /// restore_state): a reader one revision behind knows the whole change.
  [[nodiscard]] PortableId last_changed() const { return last_changed_; }

  /// Number of portables currently in `cell` (O(1)).
  [[nodiscard]] std::size_t resident_count(CellId cell) const {
    return portables_in(cell).size();
  }

  void on_handoff(HandoffListener listener) { listeners_.push_back(std::move(listener)); }

  /// Registers the mobility.handoffs counter; every move() increments it.
  /// Also lights up per-handoff trace instants when the simulator has a
  /// tracer attached. Deterministic across replications.
  void bind_metrics(obs::Registry& registry);

  /// Registers mobility.handoff_wall_us — a wall-clock histogram of the
  /// listener fan-out latency per handoff, measured with steady_clock. Wall
  /// time is NOT deterministic, so sweeps that compare snapshots across
  /// thread counts must leave this unbound (see experiments::CampusDayConfig
  /// ::wall_metrics).
  void bind_latency_metrics(obs::Registry& registry);

  [[nodiscard]] const CellMap& map() const { return *map_; }
  [[nodiscard]] sim::Simulator& simulator() { return *simulator_; }

  // --- checkpoint/restore (ISSUE 4) ---------------------------------------
  // Serializes the portable roster (cells, entry times, home offices).
  // Listeners and metric bindings are addresses, so the restoring harness
  // reconstructs them through its own constructor before calling
  // restore_state.
  void save_state(sim::CheckpointWriter& w) const;
  void restore_state(sim::CheckpointReader& r);

 private:
  void index_insert(PortableId id, CellId cell);
  void index_remove(PortableId id, CellId cell);

  const CellMap* map_;
  sim::Simulator* simulator_;
  StaticMobileClassifier classifier_;
  std::vector<Portable> portables_;
  // Resident index: the portables in each cell, ascending id. Buckets hold
  // a few dozen ids, so a binary-searched insert/erase beats keeping
  // positions and sorting on every read.
  std::vector<std::vector<PortableId>> residents_by_cell_;
  std::size_t bucket_reserve_ = 0;  // capacity a bucket takes when first entered
  std::vector<HandoffListener> listeners_;
  std::uint64_t revision_ = 0;
  PortableId last_changed_ = PortableId::invalid();
  obs::Counter* handoff_counter_ = nullptr;
  obs::Histogram* handoff_wall_us_ = nullptr;
  obs::NameId trace_handoff_name_ = obs::kInvalidName;
};

}  // namespace imrm::mobility
