// Runtime bookkeeping for one directed link: ongoing connections with their
// negotiated bounds and current allocations, plus advance reservations
// (b_resv,l) made on behalf of predicted handoffs.
#pragma once

#include <vector>

#include "net/ids.h"
#include "qos/admission.h"
#include "qos/flow_spec.h"
#include "sim/flat_map.h"

namespace imrm::net {

class LinkState {
 public:
  LinkState() = default;
  LinkState(LinkId id, qos::BitsPerSecond capacity, qos::Bits buffer_capacity,
            double error_prob)
      : id_(id), capacity_(capacity), buffer_capacity_(buffer_capacity),
        error_prob_(error_prob) {}

  struct Share {
    qos::BandwidthRange bounds;
    qos::BitsPerSecond allocated = 0.0;
    qos::Bits buffer = 0.0;  // buffer space reserved by the reverse pass
  };

  /// Registers a connection with its negotiated range, initial allocation,
  /// and the buffer space the reverse pass reserved for it at this hop.
  void add_connection(ConnectionId id, qos::BandwidthRange bounds,
                      qos::BitsPerSecond allocated, qos::Bits buffer = 0.0);
  void remove_connection(ConnectionId id);
  [[nodiscard]] bool has_connection(ConnectionId id) const {
    return shares_.contains(id.value());
  }

  /// Re-points a connection's allocation within its bounds (adaptation).
  void set_allocated(ConnectionId id, qos::BitsPerSecond allocated);
  /// Throws std::out_of_range when the connection is not on this link.
  [[nodiscard]] const Share& share(ConnectionId id) const;

  /// Advance reservation pool b_resv,l.
  void reserve_advance(qos::BitsPerSecond amount) { advance_reserved_ += amount; }
  /// Returns `amount` to the pool. Throws std::logic_error when it exceeds
  /// the pool by more than 1e-6 b/s: someone released a reservation that
  /// was never placed here.
  void release_advance(qos::BitsPerSecond amount);
  [[nodiscard]] qos::BitsPerSecond advance_reserved() const { return advance_reserved_; }

  [[nodiscard]] qos::BitsPerSecond capacity() const { return capacity_; }
  [[nodiscard]] qos::BitsPerSecond sum_b_min() const { return sum_b_min_; }
  [[nodiscard]] qos::BitsPerSecond sum_allocated() const;
  [[nodiscard]] std::size_t connection_count() const { return shares_.size(); }

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

  /// Visits every (connection, share) pair in unspecified order; `fn` must
  /// not add or remove connections on this link.
  template <typename Fn>
  void for_each_share(Fn&& fn) const {
    shares_.for_each([&fn](ConnectionId::underlying id, const Share& share) {
      fn(ConnectionId{id}, share);
    });
  }
  [[nodiscard]] std::vector<ConnectionId> connection_ids() const;

  [[nodiscard]] LinkId id() const { return id_; }

  /// Wireless links have time-varying effective capacity (Section 2.1);
  /// adaptation reacts to this.
  void set_capacity(qos::BitsPerSecond capacity) { capacity_ = capacity; }

 private:
  LinkId id_ = LinkId::invalid();
  qos::BitsPerSecond capacity_ = 0.0;
  qos::Bits buffer_capacity_ = 0.0;
  double error_prob_ = 0.0;
  qos::BitsPerSecond advance_reserved_ = 0.0;
  qos::BitsPerSecond sum_b_min_ = 0.0;
  qos::Bits buffer_reserved_ = 0.0;
  // Keyed by ConnectionId::value(): one flat probe per admit/teardown
  // instead of a heap node.
  sim::FlatMap<ConnectionId::underlying, Share> shares_;
};

}  // namespace imrm::net
