#include "qos/admission.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace imrm::qos {

std::string to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kInvalidRequest: return "invalid-request";
    case RejectReason::kBandwidth: return "bandwidth";
    case RejectReason::kJitter: return "jitter";
    case RejectReason::kBuffer: return "buffer";
    case RejectReason::kDelay: return "delay";
    case RejectReason::kLoss: return "loss";
  }
  return "unknown";
}

Seconds AdmissionPipeline::hop_delay(const QosRequest& request, const LinkSnapshot& link) {
  return request.traffic.l_max / request.bandwidth.b_min +
         request.traffic.l_max / link.capacity;
}

Seconds AdmissionPipeline::e2e_min_delay(const QosRequest& request,
                                         const std::vector<LinkSnapshot>& route) {
  const double n = double(route.size());
  Seconds transmission = 0.0;
  for (const auto& link : route) transmission += request.traffic.l_max / link.capacity;
  return (request.traffic.sigma + n * request.traffic.l_max) / request.bandwidth.b_min +
         transmission;
}

Bits AdmissionPipeline::forward_buffer(const QosRequest& request, std::size_t hop_index,
                                       Seconds d_prev, Seconds d_cur) const {
  const auto& t = request.traffic;
  if (scheduler_ == Scheduler::kWfq) {
    // WFQ: sigma_j + l * L_max  (Table 2, footnote 6).
    return t.sigma + double(hop_index) * t.l_max;
  }
  // RCSP with b*-RJ regulators (Table 2, footnote 7): the regulator at hop l
  // reshapes using the upstream hop's delay bound, hence the first hop only
  // sees its own delay.
  if (hop_index == 1) {
    return t.sigma + t.l_max + request.bandwidth.b_max * d_cur;
  }
  return t.sigma + t.l_max + request.bandwidth.b_max * (d_prev + d_cur);
}

Bits AdmissionPipeline::reverse_buffer(const QosRequest& request, std::size_t hop_index,
                                       BitsPerSecond allocated, Seconds d_prev_relaxed,
                                       Seconds d_cur) const {
  const auto& t = request.traffic;
  if (scheduler_ == Scheduler::kWfq) {
    return t.sigma + double(hop_index) * t.l_max;
  }
  // Reverse-pass RCSP rows exactly as printed in Table 2: the first hop keeps
  // the L_max term; later hops use the relaxed upstream delay d'_{l-1} plus
  // the unrelaxed local forward delay d_l.
  if (hop_index == 1) {
    return t.sigma + t.l_max + allocated * d_cur;
  }
  return t.sigma + allocated * (d_prev_relaxed + d_cur);
}

void AdmissionPipeline::bind_metrics(obs::Registry* registry) {
  if (!registry) {
    attempts_counter_ = nullptr;
    accepted_counter_ = nullptr;
    reject_counters_.fill(nullptr);
    return;
  }
  attempts_counter_ = &registry->counter("qos.admission.attempts");
  accepted_counter_ = &registry->counter("qos.admission.accepted");
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) {
    const RejectReason reason = static_cast<RejectReason>(i);
    reject_counters_[i] =
        reason == RejectReason::kNone
            ? nullptr
            : &registry->counter("qos.admission.rejected." + to_string(reason));
  }
}

void AdmissionPipeline::record(const AdmissionResult& result) const {
  if (!attempts_counter_) return;
  attempts_counter_->add();
  if (result.accepted) {
    accepted_counter_->add();
  } else if (obs::Counter* c = reject_counters_[std::size_t(result.reason)]) {
    c->add();
  }
}

void AdmissionPipeline::admit(const QosRequest& request,
                              const std::vector<LinkSnapshot>& route, AdmissionResult& result,
                              BitsPerSecond b_stamp) const {
  evaluate(request, route, b_stamp, result);
  record(result);
}

AdmissionResult AdmissionPipeline::admit(const QosRequest& request,
                                         const std::vector<LinkSnapshot>& route,
                                         BitsPerSecond b_stamp) const {
  AdmissionResult result;
  admit(request, route, result, b_stamp);
  return result;
}

void AdmissionPipeline::evaluate(const QosRequest& request,
                                 const std::vector<LinkSnapshot>& route, BitsPerSecond b_stamp,
                                 AdmissionResult& result) const {
  std::vector<HopAllocation> hops = std::move(result.hops);
  hops.clear();
  result = AdmissionResult{};
  result.hops = std::move(hops);
  // A rejected result carries no hops.
  const auto reject = [&result](RejectReason reason, std::size_t failed_hop) {
    result.reason = reason;
    result.failed_hop = failed_hop;
    result.hops.clear();
  };
  if (!request.valid() || route.empty()) {
    reject(RejectReason::kInvalidRequest, 0);
    return;
  }

  const auto& t = request.traffic;
  const BitsPerSecond b_min = request.bandwidth.b_min;
  const std::size_t n = route.size();

  // ---- Forward pass: per-link tests, tentative (greatest-level) reservation.
  // hops[l].local_delay holds the forward per-hop delay d_l until the
  // reverse pass relaxes it.
  result.hops.resize(n);
  double delivery_prob = 1.0;
  for (std::size_t l = 0; l < n; ++l) {
    const LinkSnapshot& link = route[l];
    const std::size_t hop = l + 1;  // Table 2 indexes hops from 1

    // Bandwidth: b_min,j <= C_l - b_resv,l - sum_i b_min,i.
    if (b_min > link.admissible_bandwidth()) {
      reject(RejectReason::kBandwidth, hop);
      return;
    }

    const Seconds d_l = hop_delay(request, link);
    result.hops[l].local_delay = d_l;

    // Jitter at hop l: (sigma_j + l L_max) / b_min,j <= sigma-bar.
    const Seconds jitter_l = (t.sigma + double(hop) * t.l_max) / b_min;
    if (jitter_l > request.jitter_bound) {
      reject(RejectReason::kJitter, hop);
      return;
    }

    // Buffer requirement for the configured scheduler.
    const Seconds d_prev = l > 0 ? result.hops[l - 1].local_delay : 0.0;
    const Bits needed = forward_buffer(request, hop, d_prev, d_l);
    if (needed > link.buffer_capacity) {
      reject(RejectReason::kBuffer, hop);
      return;
    }

    delivery_prob *= (1.0 - link.error_prob);
  }

  // ---- Destination node: end-to-end tests.
  result.e2e_min_delay = e2e_min_delay(request, route);
  result.e2e_jitter = (t.sigma + double(n) * t.l_max) / b_min;
  result.e2e_loss = 1.0 - delivery_prob;

  if (result.e2e_min_delay > request.delay_bound) {
    reject(RejectReason::kDelay, 0);
    return;
  }
  if (result.e2e_jitter > request.jitter_bound) {
    reject(RejectReason::kJitter, 0);
    return;
  }
  if (result.e2e_loss > request.loss_bound) {
    reject(RejectReason::kLoss, 0);
    return;
  }

  // ---- Reverse pass: uniform relaxation and firm reservation.
  //
  // Bandwidth: static portables receive the minimum plus the max-min stamped
  // excess (clamped into the negotiated range); mobile portables are pinned
  // at b_min to minimise adaptation churn during handoffs (Section 3.4.2).
  BitsPerSecond allocated = b_min;
  if (mobility_ == MobilityClass::kStatic) {
    allocated = std::min(b_min + b_stamp, request.bandwidth.b_max);
  }
  result.allocated_bandwidth = allocated;

  const Seconds slack_per_hop = (request.delay_bound - result.e2e_min_delay) / double(n) +
                                t.sigma / (double(n) * b_min);

  for (std::size_t l = 0; l < n; ++l) {
    const std::size_t hop = l + 1;
    const Seconds d_l = result.hops[l].local_delay;  // forward delay, relaxed here
    const Seconds relaxed = d_l + slack_per_hop;
    result.hops[l].local_delay = relaxed;
    const Seconds d_prev_relaxed = l > 0 ? result.hops[l - 1].local_delay : 0.0;
    // Table 2 reverse-pass rows: hop 1 uses its own *relaxed* delay d'_1;
    // later hops combine the relaxed upstream delay with the unrelaxed local
    // forward delay d_l.
    const Seconds d_cur = hop == 1 ? relaxed : d_l;
    result.hops[l].buffer = reverse_buffer(request, hop, allocated, d_prev_relaxed, d_cur);
  }

  result.accepted = true;
}

}  // namespace imrm::qos
