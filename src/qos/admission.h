// Table 2 admission control: forward-pass per-link tests, destination
// end-to-end test, reverse-pass relaxation and reservation.
//
// The admission test runs over a route of links. In the forward pass each
// link checks bandwidth, jitter, buffer and accumulates loss; at the
// destination the end-to-end delay/jitter/loss requirements are compared
// against what the network can deliver; in the reverse pass the network
// reclaims over-reserved resources using the paper's "uniform" relaxation
// policy, and fixes the bandwidth allocation (static portables receive
// b_min + b_stamp, mobile portables b_min).
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "qos/flow_spec.h"

namespace imrm::obs {
class Counter;
class Registry;
}  // namespace imrm::obs

namespace imrm::qos {

/// Snapshot of one link's admission-relevant state, as seen by the
/// forward-pass control packet.
struct LinkSnapshot {
  BitsPerSecond capacity = 0.0;          // C_l
  BitsPerSecond advance_reserved = 0.0;  // b_resv,l (advance reservations)
  BitsPerSecond sum_b_min = 0.0;         // sum of b_min over ongoing connections
  Bits buffer_capacity = 0.0;            // buffer space available for this flow
  double error_prob = 0.0;               // p_e,l

  /// Bandwidth the link can still promise as guaranteed minimum.
  [[nodiscard]] BitsPerSecond admissible_bandwidth() const {
    return capacity - advance_reserved - sum_b_min;
  }
};

enum class RejectReason {
  kNone,
  kInvalidRequest,
  kBandwidth,   // b_min does not fit at some link
  kJitter,      // per-hop or end-to-end jitter bound violated
  kBuffer,      // buffer requirement exceeds availability at some link
  kDelay,       // end-to-end minimum delay exceeds the bound
  kLoss,        // accumulated loss probability exceeds the bound
};

inline constexpr std::size_t kRejectReasonCount = 7;

[[nodiscard]] std::string to_string(RejectReason r);

/// Per-hop resources fixed by the reverse pass.
struct HopAllocation {
  Seconds local_delay = 0.0;   // d'_{l,j}: relaxed local delay bound
  Bits buffer = 0.0;           // reserved buffer space
};

struct AdmissionResult {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
  std::size_t failed_hop = 0;          // 1-indexed hop where the test failed (0 = destination/e2e)
  BitsPerSecond allocated_bandwidth = 0.0;  // b_j after reverse pass
  Seconds e2e_min_delay = 0.0;         // d_min,j computed at the destination
  Seconds e2e_jitter = 0.0;            // (sigma + n L_max) / b_min
  double e2e_loss = 0.0;               // 1 - prod(1 - p_e,i)
  std::vector<HopAllocation> hops;     // per-link allocations (forward order)
};

class AdmissionPipeline {
 public:
  AdmissionPipeline(Scheduler scheduler, MobilityClass mobility)
      : scheduler_(scheduler), mobility_(mobility) {}

  /// Runs the full round-trip admission process over `route` into
  /// `result`, replacing every field. `result.hops` keeps its capacity (it
  /// doubles as the forward pass's per-hop delay scratch), so a caller that
  /// reuses one result admits without allocating.
  ///
  /// `b_stamp` is the max-min fair excess share stamped into the forward
  /// control packet by the conflict-resolution machinery (Section 5.3.1);
  /// pass 0 when no excess is available.
  void admit(const QosRequest& request, const std::vector<LinkSnapshot>& route,
             AdmissionResult& result, BitsPerSecond b_stamp = 0.0) const;

  /// The same, into a fresh result.
  [[nodiscard]] AdmissionResult admit(const QosRequest& request,
                                      const std::vector<LinkSnapshot>& route,
                                      BitsPerSecond b_stamp = 0.0) const;

  /// Pre-registers accept/reject counters (`qos.admission.accepted`,
  /// `qos.admission.attempts` and `qos.admission.rejected.<test>`) in
  /// `registry`; every subsequent admit() increments them through cached
  /// pointers so the hot path never touches the registry maps. Pass nullptr
  /// to detach. The registry must outlive the pipeline (or the next bind).
  void bind_metrics(obs::Registry* registry);

  /// Forward-pass per-hop delay under WFQ: d_{l,j} = L_max/b_min + L_max/C_l.
  [[nodiscard]] static Seconds hop_delay(const QosRequest& request, const LinkSnapshot& link);

  /// Destination-node minimum end-to-end delay:
  /// d_min,j = (sigma + n L_max)/b_min + sum_i L_max/C_i.
  [[nodiscard]] static Seconds e2e_min_delay(const QosRequest& request,
                                             const std::vector<LinkSnapshot>& route);

  /// Forward-pass buffer requirement at hop l (1-indexed) for the configured
  /// scheduler. `d_prev` and `d_cur` are the per-hop delays of hops l-1 and l
  /// (ignored for WFQ).
  [[nodiscard]] Bits forward_buffer(const QosRequest& request, std::size_t hop_index,
                                    Seconds d_prev, Seconds d_cur) const;

  /// Reverse-pass buffer reservation at hop l using the relaxed delays d'
  /// and the allocated bandwidth b_j.
  [[nodiscard]] Bits reverse_buffer(const QosRequest& request, std::size_t hop_index,
                                    BitsPerSecond allocated, Seconds d_prev_relaxed,
                                    Seconds d_cur) const;

  [[nodiscard]] Scheduler scheduler() const { return scheduler_; }
  [[nodiscard]] MobilityClass mobility() const { return mobility_; }

 private:
  void evaluate(const QosRequest& request, const std::vector<LinkSnapshot>& route,
                BitsPerSecond b_stamp, AdmissionResult& result) const;
  void record(const AdmissionResult& result) const;

  Scheduler scheduler_;
  MobilityClass mobility_;
  // Cached instrument pointers (bind_metrics). Indexed by RejectReason.
  obs::Counter* attempts_counter_ = nullptr;
  obs::Counter* accepted_counter_ = nullptr;
  std::array<obs::Counter*, kRejectReasonCount> reject_counters_{};
};

}  // namespace imrm::qos
