#include "profiles/portable_profile.h"

#include <algorithm>
#include <string>

namespace imrm::profiles {

std::size_t PortableProfile::lower_bound(std::uint64_t key) const {
  std::size_t lo = 0, hi = states();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (key_of(block(mid)) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

const std::uint32_t* PortableProfile::find(std::uint64_t key) const {
  const std::size_t i = lower_bound(key);
  return i < states() && key_of(block(i)) == key ? block(i) : nullptr;
}

std::uint32_t* PortableProfile::find_or_insert(std::uint64_t key) {
  const std::size_t i = lower_bound(key);
  std::uint32_t* const at = slab_.data() + i * stride();
  if (i < states() && key_of(at) == key) return at;
  if (slab_.empty()) slab_.reserve(kInitialStates * stride());
  const auto it = slab_.insert(slab_.begin() + std::ptrdiff_t(i * stride()), stride(), 0u);
  it[kPrevious] = std::uint32_t(key >> 32);
  it[kCurrent] = std::uint32_t(key);
  return &*it;
}

void PortableProfile::push(std::uint32_t* block, CellId next) {
  if (window_ == 0) return;  // the state is recorded, with no observations
  std::uint32_t* slots = block + kHeaderWords;
  if (block[kSize] < window_) {
    slots[block[kSize]++] = next.value();
    return;
  }
  slots[block[kHead]] = next.value();  // overwrite the oldest
  block[kHead] = std::uint32_t((block[kHead] + 1) % window_);
}

std::uint32_t PortableProfile::observation(const std::uint32_t* block, std::size_t i) const {
  const std::uint32_t* slots = block + kHeaderWords;
  return block[kSize] < window_ ? slots[i] : slots[(block[kHead] + i) % window_];
}

void PortableProfile::record(CellId previous, CellId current, CellId next) {
  push(find_or_insert(pack(previous, current)), next);
}

std::optional<CellId> PortableProfile::predict(CellId previous, CellId current) const {
  const std::uint32_t* state = find(pack(previous, current));
  if (state == nullptr || state[kSize] == 0) return std::nullopt;
  // Majority vote by counting over the block (slot order does not matter
  // to a count). The newest observation keeps a tie for the top count;
  // among the other values the smallest id wins a tie, which is the order
  // the original std::map-based vote scanned candidates in.
  const std::uint32_t* slots = state + kHeaderWords;
  const std::uint32_t* end = slots + state[kSize];
  const std::uint32_t newest = observation(state, state[kSize] - 1);
  std::uint32_t best = newest;
  auto best_count = std::count(slots, end, newest);
  for (const std::uint32_t* slot = slots; slot != end; ++slot) {
    const std::uint32_t value = *slot;
    if (value == newest || value == best) continue;
    const auto count = std::count(slots, end, value);
    if (count > best_count || (count == best_count && best != newest && value < best)) {
      best = value;
      best_count = count;
    }
  }
  return CellId{best};
}

std::size_t PortableProfile::observations(CellId previous, CellId current) const {
  const std::uint32_t* state = find(pack(previous, current));
  return state == nullptr ? 0 : state[kSize];
}

std::size_t PortableProfile::memory_bytes() const {
  return slab_.capacity() * sizeof(std::uint32_t);
}

void PortableProfile::save_state(sim::CheckpointWriter& w) const {
  w.u32(id_.value());
  w.u64(window_);
  w.u64(states());
  for (std::size_t i = 0; i < states(); ++i) {
    const std::uint32_t* state = block(i);
    w.u32(state[kPrevious]);
    w.u32(state[kCurrent]);
    w.u64(state[kSize]);
    for (std::size_t k = 0; k < state[kSize]; ++k) w.u32(observation(state, k));
  }
}

PortableProfile PortableProfile::restore_state(sim::CheckpointReader& r) {
  const PortableId id{r.u32()};
  const std::uint64_t window = r.u64();
  if (window > kMaxRestoredWindow) {
    throw sim::CheckpointError("portable profile: implausibly large window " +
                               std::to_string(window));
  }
  PortableProfile profile(id, std::size_t(window));
  for (std::uint64_t states = r.u64(); states-- > 0;) {
    const CellId previous{r.u32()};
    const CellId current{r.u32()};
    std::uint32_t* state = profile.find_or_insert(pack(previous, current));
    for (std::uint64_t n = r.u64(); n-- > 0;) profile.push(state, CellId{r.u32()});
  }
  return profile;
}

}  // namespace imrm::profiles
