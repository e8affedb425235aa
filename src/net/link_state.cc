#include "net/link_state.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace imrm::net {

void LinkState::add_connection(ConnectionId id, qos::BandwidthRange bounds,
                               qos::BitsPerSecond allocated, qos::Bits buffer) {
  assert(bounds.valid());
  assert(allocated >= bounds.b_min && allocated <= bounds.b_max);
  assert(buffer >= 0.0);
  const bool inserted = shares_.insert(id.value(), Share{bounds, allocated, buffer});
  assert(inserted && "connection already on link");
  (void)inserted;
  sum_b_min_ += bounds.b_min;
  buffer_reserved_ += buffer;
}

void LinkState::remove_connection(ConnectionId id) {
  const Share* share = shares_.find(id.value());
  assert(share != nullptr);
  sum_b_min_ -= share->bounds.b_min;
  if (sum_b_min_ < 0.0) sum_b_min_ = 0.0;  // absorb float drift
  buffer_reserved_ -= share->buffer;
  if (buffer_reserved_ < 0.0) buffer_reserved_ = 0.0;
  shares_.erase(id.value());
}

const LinkState::Share& LinkState::share(ConnectionId id) const {
  const Share* share = shares_.find(id.value());
  if (share == nullptr) throw std::out_of_range("connection is not on this link");
  return *share;
}

void LinkState::set_allocated(ConnectionId id, qos::BitsPerSecond allocated) {
  Share* share = shares_.find(id.value());
  if (share == nullptr) throw std::out_of_range("connection is not on this link");
  assert(allocated >= share->bounds.b_min - 1e-9 && allocated <= share->bounds.b_max + 1e-9);
  share->allocated = std::clamp(allocated, share->bounds.b_min, share->bounds.b_max);
}

void LinkState::release_advance(qos::BitsPerSecond amount) {
  if (amount > advance_reserved_ + 1e-6) {
    throw std::logic_error("release_advance: release exceeds the advance reservation pool");
  }
  // Sums rounded in another order may take the pool a hair below zero.
  advance_reserved_ = std::max(advance_reserved_ - amount, 0.0);
}

qos::BitsPerSecond LinkState::sum_allocated() const {
  qos::BitsPerSecond total = 0.0;
  for_each_share([&total](ConnectionId, const Share& share) { total += share.allocated; });
  return total;
}

std::vector<ConnectionId> LinkState::connection_ids() const {
  std::vector<ConnectionId> ids;
  ids.reserve(shares_.size());
  for_each_share([&ids](ConnectionId id, const Share&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());  // deterministic iteration for sim runs
  return ids;
}

}  // namespace imrm::net
