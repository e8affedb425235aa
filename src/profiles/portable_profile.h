// Portable profile (Table 1): for every (previous cell, current cell) pair,
// the aggregated history of the portable's last N_pP handoffs out of that
// state, used to predict the next cell.
//
// The aggregate is a sliding window: the profile server records each handoff
// as <previous, current, next>, keeps the most recent N_pP per (previous,
// current) state, and predicts the majority next-cell.
//
// Storage is one flat slab of 32-bit words with a fixed block per state:
// a four-word header (previous, current, observation count, oldest slot)
// and `window_` observation slots, a ring whose oldest slot is overwritten
// in place. Blocks are sorted on the packed (previous << 32) | current id,
// which is exactly the old std::map<std::pair<CellId, CellId>, ...> order,
// so checkpoint bytes are unchanged; lookup is a binary search over the
// blocks. A portable visits a handful of states: the first state reserves
// room for kInitialStates blocks, so a portable's whole profile usually
// costs one allocation, and no record or prediction allocates after that.
// The majority vote counts in place over the block (DESIGN.md "The
// campus-day hot path").
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ids.h"
#include "sim/checkpoint.h"

namespace imrm::profiles {

using net::CellId;
using net::PortableId;

class PortableProfile {
 public:
  explicit PortableProfile(PortableId id, std::size_t window = 16)
      : id_(id), window_(window) {}

  /// Records a handoff: the portable moved to `next` while in `current`,
  /// having previously been in `previous`.
  void record(CellId previous, CellId current, CellId next);

  /// The next-predicted-cell field: majority vote over the window, or
  /// nullopt when the state was never observed. The newest observation
  /// wins a tie for the top count; otherwise the smallest id among the
  /// tied values wins.
  [[nodiscard]] std::optional<CellId> predict(CellId previous, CellId current) const;

  /// Number of observations stored for a state (for tests/inspection).
  [[nodiscard]] std::size_t observations(CellId previous, CellId current) const;

  [[nodiscard]] PortableId id() const { return id_; }
  [[nodiscard]] std::size_t window() const { return window_; }

  /// Estimated heap footprint in bytes.
  [[nodiscard]] std::size_t memory_bytes() const;

  // --- checkpoint/restore (ISSUE 4): id, window, and the full sliding
  // history in ascending packed-state order, each window oldest first
  // (deterministic on both sides, byte-compatible with the original
  // std::map layout). Every state owns `window` slots, so restore throws
  // sim::CheckpointError on a window above kMaxRestoredWindow instead of
  // letting a corrupt image size the slab.
  void save_state(sim::CheckpointWriter& w) const;
  [[nodiscard]] static PortableProfile restore_state(sim::CheckpointReader& r);

  static constexpr std::uint64_t kMaxRestoredWindow = std::uint64_t(1) << 16;

 private:
  // Header words of a block; its observation slots follow.
  enum Word : std::size_t { kPrevious, kCurrent, kSize, kHead, kHeaderWords };
  /// Blocks the first state reserves room for.
  static constexpr std::size_t kInitialStates = 8;

  static std::uint64_t pack(CellId previous, CellId current) {
    return (std::uint64_t(previous.value()) << 32) | current.value();
  }
  static std::uint64_t key_of(const std::uint32_t* block) {
    return (std::uint64_t(block[kPrevious]) << 32) | block[kCurrent];
  }

  [[nodiscard]] std::size_t stride() const { return kHeaderWords + window_; }
  [[nodiscard]] std::size_t states() const { return slab_.size() / stride(); }
  [[nodiscard]] const std::uint32_t* block(std::size_t i) const {
    return slab_.data() + i * stride();
  }
  /// Index of the first block whose state is not below `key`.
  [[nodiscard]] std::size_t lower_bound(std::uint64_t key) const;
  [[nodiscard]] const std::uint32_t* find(std::uint64_t key) const;
  [[nodiscard]] std::uint32_t* find_or_insert(std::uint64_t key);
  void push(std::uint32_t* block, CellId next);
  /// Observation `i` of a block in arrival order: 0 = oldest.
  [[nodiscard]] std::uint32_t observation(const std::uint32_t* block, std::size_t i) const;

  PortableId id_;
  std::size_t window_;
  std::vector<std::uint32_t> slab_;  // stride() words per state, sorted by state
};

}  // namespace imrm::profiles
