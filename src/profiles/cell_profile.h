// Cell profile (Table 1): aggregated handoff history of ALL portables
// through a cell — for each previous cell, the probability of handing off
// to each neighbor, over the last N_pC handoffs.
//
// Unlike the portable profile this is not user-specific: it aggregates the
// cell's population behaviour and serves as the second prediction level.
//
// Storage is a flat sorted vector per previous cell with incrementally
// maintained neighbor counts (updated on record, not rebuilt per query):
// distribution() and aggregate_distribution() run on the admission hot path
// at campus scale, so they must read precomputed counts out of contiguous
// memory instead of building a std::map per call. Count vectors are kept in
// ascending neighbor-id order, which is exactly the order the original
// std::map-based implementation emitted. Each previous-cell window is a
// fixed-capacity HistoryWindow ring, reserved whole on its first record, so
// a cell's footprint stays pinned however many handoffs churn through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ids.h"
#include "profiles/history_window.h"
#include "sim/checkpoint.h"

namespace imrm::profiles {

using net::CellId;

class CellProfile {
 public:
  explicit CellProfile(CellId id, std::size_t window = 128) : id_(id), window_(window) {}

  /// Records that a portable which had arrived from `previous` handed off
  /// to `next`.
  void record(CellId previous, CellId next);

  struct NeighborShare {
    CellId neighbor;
    double probability;
  };

  /// Handoff distribution over next cells given the previous cell, in
  /// ascending neighbor id; empty when the (previous) state was never
  /// observed.
  [[nodiscard]] std::vector<NeighborShare> distribution(CellId previous) const;
  /// The same into a caller's buffer: `out` is overwritten and keeps its
  /// capacity, so a caller that refills one buffer stops allocating.
  void distribution(CellId previous, std::vector<NeighborShare>& out) const;

  /// Distribution aggregated over all previous cells (used when the previous
  /// cell is unknown, and by lounges which ignore individual behaviour).
  [[nodiscard]] std::vector<NeighborShare> aggregate_distribution() const;
  void aggregate_distribution(std::vector<NeighborShare>& out) const;

  /// Most likely next cell given the previous cell, or nullopt.
  [[nodiscard]] std::optional<CellId> predict(CellId previous) const;

  /// Most likely next cell over all previous cells: the first maximum of
  /// aggregate_distribution(), without building it. Nullopt when empty.
  [[nodiscard]] std::optional<CellId> predict_aggregate() const;

  [[nodiscard]] std::size_t observations(CellId previous) const;
  [[nodiscard]] std::size_t total_observations() const { return total_; }
  [[nodiscard]] CellId id() const { return id_; }

  /// Estimated heap footprint in bytes.
  [[nodiscard]] std::size_t memory_bytes() const;

  // --- checkpoint/restore (ISSUE 4) ---------------------------------------
  void save_state(sim::CheckpointWriter& w) const;
  [[nodiscard]] static CellProfile restore_state(sim::CheckpointReader& r);

 private:
  // Ascending-id (neighbor, count) run; shared by the per-previous and the
  // aggregate tallies.
  using Counts = std::vector<std::pair<CellId, std::uint32_t>>;

  struct Prev {
    CellId previous;
    HistoryWindow window;  // oldest first, newest last; capacity = window_
    Counts counts;         // tallies of `window`, ascending neighbor id
  };

  static void count_add(Counts& counts, CellId next);
  static void count_remove(Counts& counts, CellId next);

  [[nodiscard]] const Prev* find(CellId previous) const;
  [[nodiscard]] Prev& find_or_insert(CellId previous);

  CellId id_;
  std::size_t window_;
  std::size_t total_ = 0;       // sum of window sizes
  std::vector<Prev> by_previous_;  // sorted by previous id
  Counts aggregate_counts_;     // tallies across every window
};

}  // namespace imrm::profiles
