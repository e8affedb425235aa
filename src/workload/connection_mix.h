// Connection mixes (Section 7.1's workload: each user opens one connection
// of 16 kbps with probability 0.75 or 64 kbps with probability 0.25).
#pragma once

#include <cassert>
#include <vector>

#include "qos/flow_spec.h"
#include "sim/random.h"

namespace imrm::workload {

struct MixEntry {
  qos::BitsPerSecond bandwidth;
  double probability;
};

class ConnectionMix {
 public:
  explicit ConnectionMix(std::vector<MixEntry> entries) : entries_(std::move(entries)) {
    double total = 0.0;
    weights_.reserve(entries_.size());
    for (const MixEntry& e : entries_) {
      assert(e.bandwidth > 0.0 && e.probability >= 0.0);
      total += e.probability;
      weights_.push_back(e.probability);
    }
    assert(total > 0.0);
    (void)total;
  }

  [[nodiscard]] qos::BitsPerSecond sample(sim::Rng& rng) const {
    return entries_[rng.discrete(weights_)].bandwidth;
  }

  /// Expected bandwidth per connection.
  [[nodiscard]] qos::BitsPerSecond mean() const {
    double total_p = 0.0, total_b = 0.0;
    for (const MixEntry& e : entries_) {
      total_p += e.probability;
      total_b += e.probability * e.bandwidth;
    }
    return total_b / total_p;
  }

  [[nodiscard]] const std::vector<MixEntry>& entries() const { return entries_; }

 private:
  std::vector<MixEntry> entries_;
  std::vector<double> weights_;  // entries_' probabilities, for Rng::discrete
};

/// The paper's Section 7.1 mix: 16 kbps (75%) / 64 kbps (25%); mean 28 kbps.
[[nodiscard]] inline ConnectionMix paper_fig5_mix() {
  return ConnectionMix({{qos::kbps(16), 0.75}, {qos::kbps(64), 0.25}});
}

}  // namespace imrm::workload
