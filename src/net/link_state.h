// Runtime bookkeeping for one directed link: the sums Table 2 admission and
// the max-min re-division read (sum of b_min, buffer reserved, advance
// reservations b_resv,l made on behalf of predicted handoffs) and how many
// connections cross it. The connections themselves live in NetworkState's
// connection table.
#pragma once

#include <cstddef>

#include "qos/admission.h"
#include "qos/flow_spec.h"

namespace imrm::net {

class LinkState {
 public:
  LinkState() = default;
  LinkState(qos::BitsPerSecond capacity, qos::Bits buffer_capacity, double error_prob)
      : capacity_(capacity), buffer_capacity_(buffer_capacity), error_prob_(error_prob) {}

  /// Counts in a connection with its guaranteed minimum and the buffer
  /// space the reverse pass reserved for it at this hop.
  void attach(qos::BitsPerSecond b_min, qos::Bits buffer);
  /// Takes back what attach() added for one connection.
  void detach(qos::BitsPerSecond b_min, qos::Bits buffer);

  /// Advance reservation pool b_resv,l.
  void reserve_advance(qos::BitsPerSecond amount) { advance_reserved_ += amount; }
  /// Returns `amount` to the pool. Throws std::logic_error when it exceeds
  /// the pool by more than 1e-6 b/s: someone released a reservation that
  /// was never placed here.
  void release_advance(qos::BitsPerSecond amount);
  [[nodiscard]] qos::BitsPerSecond advance_reserved() const { return advance_reserved_; }

  [[nodiscard]] qos::BitsPerSecond capacity() const { return capacity_; }
  [[nodiscard]] qos::BitsPerSecond sum_b_min() const { return sum_b_min_; }
  [[nodiscard]] std::size_t connection_count() const { return connection_count_; }

  /// Excess available bandwidth b'_av,l = C_l - b_resv,l - sum b_min
  /// (Section 5.2). May be negative after capacity loss, which is exactly
  /// the condition that triggers renegotiation.
  [[nodiscard]] qos::BitsPerSecond excess_available() const {
    return capacity_ - advance_reserved_ - sum_b_min_;
  }

  /// The view the forward-pass admission control packet takes of this link:
  /// the buffer offered to a new flow is what previous reservations left.
  [[nodiscard]] qos::LinkSnapshot snapshot() const {
    return qos::LinkSnapshot{capacity_, advance_reserved_, sum_b_min_,
                             buffer_capacity_ - buffer_reserved_, error_prob_};
  }

  [[nodiscard]] qos::Bits buffer_capacity() const { return buffer_capacity_; }
  [[nodiscard]] qos::Bits buffer_reserved() const { return buffer_reserved_; }

  /// Wireless links have time-varying effective capacity (Section 2.1);
  /// adaptation reacts to this.
  void set_capacity(qos::BitsPerSecond capacity) { capacity_ = capacity; }

 private:
  qos::BitsPerSecond capacity_ = 0.0;
  qos::Bits buffer_capacity_ = 0.0;
  double error_prob_ = 0.0;
  qos::BitsPerSecond advance_reserved_ = 0.0;
  qos::BitsPerSecond sum_b_min_ = 0.0;
  qos::Bits buffer_reserved_ = 0.0;
  std::size_t connection_count_ = 0;
};

}  // namespace imrm::net
