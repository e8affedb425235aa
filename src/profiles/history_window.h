// Fixed-capacity sliding-history ring of the cell profile (Table 1).
//
// A cell profile keeps "the last N_pC observations" per previous cell. The
// naive vector version (push_back + erase(begin())) shifts the whole window
// on every eviction; under sustained handoff churn that is an O(window)
// memmove per handoff. This ring overwrites the oldest slot in place: O(1)
// per record, and the first push reserves all `capacity` slots, so a window
// costs one allocation over its life. (The portable profile keeps its
// windows as blocks of one slab instead; see portable_profile.h.)
//
// Iteration order is oldest-first (index 0 = oldest), matching the order
// the vector version serialized, so checkpoint bytes are unchanged.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "net/ids.h"

namespace imrm::profiles {

class HistoryWindow {
 public:
  explicit HistoryWindow(std::size_t capacity) : capacity_(capacity) {}

  /// Appends `value` as the newest observation. Returns the evicted oldest
  /// observation when the window was already full (a zero-capacity window
  /// evicts the value itself immediately).
  std::optional<net::CellId> push(net::CellId value) {
    if (capacity_ == 0) return value;
    if (slots_.size() < capacity_) {
      if (slots_.empty()) slots_.reserve(capacity_);
      slots_.push_back(value);
      return std::nullopt;
    }
    const net::CellId evicted = slots_[head_];
    slots_[head_] = value;
    head_ = (head_ + 1) % capacity_;
    return evicted;
  }

  /// Observation `i` in arrival order: 0 = oldest, size()-1 = newest.
  [[nodiscard]] net::CellId operator[](std::size_t i) const {
    return slots_.size() < capacity_ ? slots_[i]
                                     : slots_[(head_ + i) % capacity_];
  }

  [[nodiscard]] net::CellId newest() const { return (*this)[slots_.size() - 1]; }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] bool empty() const { return slots_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(net::CellId);
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest slot, once the ring is full
  std::vector<net::CellId> slots_;
};

}  // namespace imrm::profiles
