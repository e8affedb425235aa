// Bounded ring buffer with oldest-element eviction.
//
// The storage primitive under the structured tracer (obs::Tracer): a
// fixed-capacity window of the most recent records plus a counter of
// everything that was evicted, so long runs observe bounded memory while the
// exporter can still report how much history was lost. Capacity 0 means
// "unbounded" (plain append), for a Tracer that must keep every record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace imrm::obs {

template <typename T>
class RingBuffer {
 public:
  /// capacity == 0: unbounded append-only log.
  explicit RingBuffer(std::size_t capacity = 0) : capacity_(capacity) {
    if (capacity_ != 0) data_.reserve(capacity_);
  }

  void push(T value) {
    if (capacity_ == 0 || data_.size() < capacity_) {
      data_.push_back(std::move(value));
      return;
    }
    // Full: overwrite the oldest element in place.
    data_[head_] = std::move(value);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  /// Number of elements currently retained.
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  /// Elements evicted to make room (0 until the buffer wraps).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Configured capacity; 0 = unbounded.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// i-th retained element in insertion order (0 = oldest retained).
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return data_[(head_ + i) % data_.size()];
  }

  template <typename F>
  void for_each(F&& f) const {
    const std::size_t n = data_.size();
    for (std::size_t i = 0; i < n; ++i) f(data_[(head_ + i) % n]);
  }

  [[nodiscard]] std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(data_.size());
    for_each([&out](const T& v) { out.push_back(v); });
    return out;
  }

  void clear() {
    data_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::vector<T> data_;
  std::size_t head_ = 0;  // index of the oldest element once wrapped
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace imrm::obs
