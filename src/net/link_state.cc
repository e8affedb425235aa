#include "net/link_state.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace imrm::net {

void LinkState::attach(qos::BitsPerSecond b_min, qos::Bits buffer) {
  assert(b_min >= 0.0 && buffer >= 0.0);
  sum_b_min_ += b_min;
  buffer_reserved_ += buffer;
  ++connection_count_;
}

void LinkState::detach(qos::BitsPerSecond b_min, qos::Bits buffer) {
  assert(connection_count_ > 0);
  sum_b_min_ -= b_min;
  if (sum_b_min_ < 0.0) sum_b_min_ = 0.0;  // absorb float drift
  buffer_reserved_ -= buffer;
  if (buffer_reserved_ < 0.0) buffer_reserved_ = 0.0;
  --connection_count_;
}

void LinkState::release_advance(qos::BitsPerSecond amount) {
  if (amount > advance_reserved_ + 1e-6) {
    throw std::logic_error("release_advance: release exceeds the advance reservation pool");
  }
  // Sums rounded in another order may take the pool a hair below zero.
  advance_reserved_ = std::max(advance_reserved_ - amount, 0.0);
}

}  // namespace imrm::net
