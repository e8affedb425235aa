// Open-addressing hash map for unsigned-integer keys.
//
// The protocol and scheduler hot paths key small per-entity state by dense
// integer ids (connection indices, link/conn pairs). std::map costs a
// pointer-chasing tree walk per lookup and std::unordered_map a heap node
// per insert; this table is a single flat array with linear probing and
// backward-shift deletion (no tombstones), so lookups touch one cache line
// in the common case and erase never degrades the table.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace imrm::sim {

template <typename Key, typename Value>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>, "FlatMap keys must be unsigned integers");

 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Heap footprint of the backing array in bytes (capacity, not just the
  /// occupied cells — this is what the allocator actually holds). Used by
  /// the scale benchmarks' bytes-per-portable accounting.
  [[nodiscard]] std::size_t memory_bytes() const {
    return cells_.capacity() * sizeof(Cell);
  }

  /// Empties the map and keeps its capacity. An empty map returns at once:
  /// deletion leaves no tombstones, so it has no occupied slot to reset.
  void clear() {
    if (size_ == 0) return;
    cells_.assign(cells_.size(), Cell{});
    size_ = 0;
  }

  [[nodiscard]] const Value* find(Key key) const {
    if (cells_.empty()) return nullptr;
    for (std::size_t i = probe_start(key);; i = next(i)) {
      const Cell& cell = cells_[i];
      if (!cell.occupied) return nullptr;
      if (cell.key == key) return &cell.value;
    }
  }

  [[nodiscard]] Value* find(Key key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  [[nodiscard]] bool contains(Key key) const { return find(key) != nullptr; }

  /// Returns the value for `key`, default-constructing it if absent.
  Value& operator[](Key key) {
    reserve_for_insert();
    for (std::size_t i = probe_start(key);; i = next(i)) {
      Cell& cell = cells_[i];
      if (!cell.occupied) {
        cell.occupied = true;
        cell.key = key;
        cell.value = Value{};
        ++size_;
        return cell.value;
      }
      if (cell.key == key) return cell.value;
    }
  }

  /// Inserts (key, value); returns false (leaving the map unchanged) if the
  /// key is already present.
  bool insert(Key key, Value value) {
    reserve_for_insert();
    for (std::size_t i = probe_start(key);; i = next(i)) {
      Cell& cell = cells_[i];
      if (!cell.occupied) {
        cell.occupied = true;
        cell.key = key;
        cell.value = std::move(value);
        ++size_;
        return true;
      }
      if (cell.key == key) return false;
    }
  }

  /// Removes `key` if present (backward-shift deletion keeps probe chains
  /// intact without tombstones). Returns whether a value was removed.
  bool erase(Key key) {
    if (cells_.empty()) return false;
    std::size_t i = probe_start(key);
    for (;; i = next(i)) {
      if (!cells_[i].occupied) return false;
      if (cells_[i].key == key) break;
    }
    std::size_t hole = i;
    for (std::size_t j = next(hole);; j = next(j)) {
      if (!cells_[j].occupied) break;
      // An entry may backfill the hole only if its home position does not lie
      // strictly between the hole and its current position (circularly).
      const std::size_t home = probe_start(cells_[j].key);
      const bool movable = hole <= j ? (home <= hole || home > j) : (home <= hole && home > j);
      if (movable) {
        cells_[hole] = std::move(cells_[j]);
        hole = j;
      }
    }
    cells_[hole] = Cell{};
    --size_;
    return true;
  }

  /// Visits every (key, value) pair in unspecified order. The callback must
  /// not insert into or erase from the map: backward-shift deletion moves
  /// entries across the scan cursor, so a mid-iteration erase() can skip an
  /// entry that was shifted behind the cursor (or visit one twice). Collect
  /// the keys first and erase them after the visit.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& cell : cells_) {
      if (cell.occupied) fn(cell.key, cell.value);
    }
  }

 private:
  struct Cell {
    Key key{};
    Value value{};
    bool occupied = false;
  };

  [[nodiscard]] std::size_t probe_start(Key key) const {
    // splitmix64 finalizer: integer ids are often sequential, so spread them.
    std::uint64_t z = std::uint64_t(key);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return std::size_t(z ^ (z >> 31)) & (cells_.size() - 1);
  }

  [[nodiscard]] std::size_t next(std::size_t i) const { return (i + 1) & (cells_.size() - 1); }

  void reserve_for_insert() {
    if (cells_.empty()) {
      cells_.resize(16);
      return;
    }
    // Max load factor 0.7.
    if ((size_ + 1) * 10 <= cells_.size() * 7) return;
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.size() * 2, Cell{});
    std::size_t rehashed = 0;
    for (Cell& cell : old) {
      if (!cell.occupied) continue;
      for (std::size_t i = probe_start(cell.key);; i = next(i)) {
        if (!cells_[i].occupied) {
          cells_[i] = std::move(cell);
          ++rehashed;
          break;
        }
      }
    }
    assert(rehashed == size_);
    (void)rehashed;
  }

  std::vector<Cell> cells_;  // power-of-two length
  std::size_t size_ = 0;
};

}  // namespace imrm::sim
