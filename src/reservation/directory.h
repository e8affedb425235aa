// Directory of per-cell bandwidth accounts, shared by the advance
// reservation policies and the handoff admission path.
//
// Storage is a dense vector indexed by CellId::value(): CellMap assigns cell
// ids sequentially from zero, so the account for cell `c` lives at
// `cells_[c]` — one indexed load on the admission path instead of a hash
// probe, and iteration is ascending-id by construction (deterministic
// without a sort).
#pragma once

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "reservation/cell_bandwidth.h"

namespace imrm::reservation {

class ReservationDirectory {
 public:
  /// Makes room for cells with ids below `cells` (capacity only).
  void reserve(std::size_t cells) {
    cells_.reserve(cells);
    present_.reserve(cells);
    ids_.reserve(cells);
  }

  void add_cell(CellId id, qos::BitsPerSecond capacity) {
    const std::size_t index = id.value();
    if (index >= cells_.size()) {
      cells_.resize(index + 1);
      present_.resize(index + 1, false);
    }
    if (present_[index]) return;
    cells_[index] = CellBandwidth(capacity);
    present_[index] = true;
    ids_.insert(std::lower_bound(ids_.begin(), ids_.end(), id.value()), id.value());
    if (bound_) cells_[index].set_telemetry(&telemetry_);
  }

  /// Registers the aggregate admission instruments (resv.new.*, resv.handoff.*,
  /// resv.reservation.{hit,miss} counters and the resv.reservation.coverage
  /// histogram) in `registry` and wires them into every current and future
  /// cell. The registry must outlive the directory (or the next bind).
  void bind_metrics(obs::Registry& registry) {
    telemetry_.new_admitted = &registry.counter("resv.new.admitted");
    telemetry_.new_blocked = &registry.counter("resv.new.blocked");
    telemetry_.handoff_admitted = &registry.counter("resv.handoff.admitted");
    telemetry_.handoff_dropped = &registry.counter("resv.handoff.dropped");
    telemetry_.reservation_hits = &registry.counter("resv.reservation.hit");
    telemetry_.reservation_misses = &registry.counter("resv.reservation.miss");
    telemetry_.reservation_coverage = &registry.histogram(
        "resv.reservation.coverage", obs::HistogramSpec::linear(0.0, 1.0, 20));
    bound_ = true;
    for (const std::uint32_t i : ids_) cells_[i].set_telemetry(&telemetry_);
  }

  [[nodiscard]] CellBandwidth& at(CellId id) { return cells_.at(id.value()); }
  [[nodiscard]] const CellBandwidth& at(CellId id) const {
    return cells_.at(id.value());
  }
  [[nodiscard]] bool has(CellId id) const {
    return id.value() < present_.size() && present_[id.value()];
  }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  /// Wipes every reservation (specific and anonymous) in every cell;
  /// policies that recompute their reservations from scratch call this at
  /// the top of each refresh.
  void clear_reservations() {
    for (const std::uint32_t i : ids_) {
      cells_[i].set_anonymous_reservation(0.0);
      cells_[i].clear_specific_reservations();
    }
  }

  /// Zeroes every cell's anonymous reservation and leaves the specific ones:
  /// policies that rebuild only the specific reservations of some cells
  /// still recompute the anonymous ones everywhere on each refresh.
  void clear_anonymous_reservations() {
    for (const std::uint32_t i : ids_) cells_[i].set_anonymous_reservation(0.0);
  }

  /// Visits every (CellId, CellBandwidth&) in ascending-id order.
  template <typename Fn>
  void for_each_cell(Fn&& fn) {
    for (const std::uint32_t i : ids_) fn(CellId{i}, cells_[i]);
  }

  template <typename Fn>
  void for_each_cell(Fn&& fn) const {
    for (const std::uint32_t i : ids_) fn(CellId{i}, cells_[i]);
  }

  // --- checkpoint/restore (ISSUE 4) ---------------------------------------
  // Cells are written in sorted-id order; restore requires the same cell set
  // to already exist (the harness constructor re-adds them from its config)
  // and throws sim::CheckpointError on a mismatch. Telemetry bindings are
  // untouched — instrument values live in the obs registry section.
  void save_state(sim::CheckpointWriter& w) const {
    w.u64(ids_.size());
    for (const std::uint32_t i : ids_) {
      w.u32(i);
      cells_[i].save_state(w);
    }
  }

  void restore_state(sim::CheckpointReader& r) {
    if (r.u64() != ids_.size()) {
      throw sim::CheckpointError("reservation: checkpoint cell count mismatch");
    }
    for (std::size_t n = ids_.size(); n-- > 0;) {
      const CellId id{r.u32()};
      if (!has(id)) {
        throw sim::CheckpointError("reservation: checkpoint names unknown cell");
      }
      cells_[id.value()].restore_state(r);
    }
  }

 private:
  std::vector<CellBandwidth> cells_;  // indexed by CellId::value()
  std::vector<bool> present_;
  std::vector<std::uint32_t> ids_;    // the present cells, ascending: every sweep walks these
  CellBandwidth::Telemetry telemetry_;
  bool bound_ = false;
};

}  // namespace imrm::reservation
