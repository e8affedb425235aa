// Table 2 admission-control tests: every row of the table (bandwidth, delay,
// jitter, buffer for WFQ and RCSP, packet loss), the destination test, and
// the reverse-pass relaxation, checked against hand-computed values.
#include <gtest/gtest.h>

#include "qos/admission.h"
#include "qos/flow_spec.h"

namespace imrm::qos {
namespace {

QosRequest typical_request() {
  QosRequest r;
  r.bandwidth = {mbps(1.0), mbps(2.0)};
  r.delay_bound = 0.1;
  r.jitter_bound = 0.05;
  r.loss_bound = 0.05;
  r.traffic = {8000.0, 8000.0};  // sigma = L_max = 1000 bytes
  return r;
}

LinkSnapshot wide_link() {
  return LinkSnapshot{mbps(10.0), 0.0, 0.0, 1e6, 0.0};
}

TEST(FlowSpec, BandwidthRangeValidity) {
  EXPECT_TRUE((BandwidthRange{kbps(16), kbps(64)}.valid()));
  EXPECT_TRUE((BandwidthRange{kbps(16), kbps(16)}.valid()));
  EXPECT_FALSE((BandwidthRange{kbps(64), kbps(16)}.valid()));
  EXPECT_FALSE((BandwidthRange{0.0, kbps(16)}.valid()));
}

TEST(FlowSpec, HeadroomAndContains) {
  const BandwidthRange r{kbps(16), kbps(64)};
  EXPECT_DOUBLE_EQ(r.headroom(), kbps(48));
  EXPECT_TRUE(r.contains(kbps(32)));
  EXPECT_FALSE(r.contains(kbps(65)));
}

TEST(FlowSpec, UnitHelpers) {
  EXPECT_DOUBLE_EQ(kbps(16), 16000.0);
  EXPECT_DOUBLE_EQ(mbps(1.6), 1.6e6);
  EXPECT_DOUBLE_EQ(bytes(1000), 8000.0);
}

TEST(Admission, HopDelayFormula) {
  // d_{l,j} = L_max/b_min + L_max/C_l = 8000/1e6 + 8000/10e6 = 0.0088
  const auto r = typical_request();
  EXPECT_NEAR(AdmissionPipeline::hop_delay(r, wide_link()), 0.0088, 1e-12);
}

TEST(Admission, E2EMinDelayFormula) {
  // (sigma + n L)/b_min + sum L/C = 24000/1e6 + 2*0.0008 = 0.0256
  const auto r = typical_request();
  const std::vector<LinkSnapshot> route{wide_link(), wide_link()};
  EXPECT_NEAR(AdmissionPipeline::e2e_min_delay(r, route), 0.0256, 1e-12);
}

TEST(Admission, AcceptsFeasibleRequestWfq) {
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(typical_request(), {wide_link(), wide_link()});
  ASSERT_TRUE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kNone);
  EXPECT_NEAR(result.e2e_min_delay, 0.0256, 1e-12);
  EXPECT_NEAR(result.e2e_jitter, 0.024, 1e-12);
  EXPECT_DOUBLE_EQ(result.e2e_loss, 0.0);
}

TEST(Admission, MobileAllocationPinnedAtBMin) {
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(typical_request(), {wide_link()}, /*b_stamp=*/mbps(5));
  ASSERT_TRUE(result.accepted);
  EXPECT_DOUBLE_EQ(result.allocated_bandwidth, mbps(1.0));
}

TEST(Admission, StaticAllocationGetsStampedExcess) {
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kStatic);
  const auto result = p.admit(typical_request(), {wide_link()}, /*b_stamp=*/kbps(500));
  ASSERT_TRUE(result.accepted);
  EXPECT_DOUBLE_EQ(result.allocated_bandwidth, mbps(1.0) + kbps(500));
}

TEST(Admission, StaticAllocationClampedToBMax) {
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kStatic);
  const auto result = p.admit(typical_request(), {wide_link()}, /*b_stamp=*/mbps(9));
  ASSERT_TRUE(result.accepted);
  EXPECT_DOUBLE_EQ(result.allocated_bandwidth, mbps(2.0));  // b_max
}

TEST(Admission, RejectsWhenBandwidthShort) {
  LinkSnapshot tight = wide_link();
  tight.sum_b_min = mbps(9.5);  // only 0.5 Mbps admissible < b_min = 1 Mbps
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(typical_request(), {wide_link(), tight});
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kBandwidth);
  EXPECT_EQ(result.failed_hop, 2u);
}

TEST(Admission, AdvanceReservationBlocksNewConnections) {
  LinkSnapshot reserved = wide_link();
  reserved.advance_reserved = mbps(9.5);
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(typical_request(), {reserved});
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kBandwidth);
}

TEST(Admission, RejectsOnPerHopJitter) {
  // Jitter at hop l: (sigma + l L)/b_min. With 4 hops the last hop gives
  // (8000 + 4*8000)/1e6 = 0.04 > 0.03.
  auto r = typical_request();
  r.jitter_bound = 0.03;
  const std::vector<LinkSnapshot> route(4, wide_link());
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(r, route);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kJitter);
  EXPECT_EQ(result.failed_hop, 3u);  // (8000+3*8000)/1e6 = 0.032 > 0.03
}

TEST(Admission, RejectsOnDelayAtDestination) {
  auto r = typical_request();
  r.delay_bound = 0.02;  // below d_min = 0.0256
  r.jitter_bound = 1.0;  // keep jitter out of the way
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(r, {wide_link(), wide_link()});
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kDelay);
  EXPECT_EQ(result.failed_hop, 0u);  // destination test
}

TEST(Admission, RejectsOnAccumulatedLoss) {
  auto route = std::vector<LinkSnapshot>{wide_link(), wide_link()};
  route[0].error_prob = 0.01;
  route[1].error_prob = 0.02;
  auto r = typical_request();
  r.loss_bound = 0.02;  // e2e loss = 1 - 0.99*0.98 = 0.0298 > 0.02
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(r, route);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kLoss);
}

TEST(Admission, AcceptsWithTolerableLoss) {
  auto route = std::vector<LinkSnapshot>{wide_link(), wide_link()};
  route[0].error_prob = 0.01;
  route[1].error_prob = 0.02;
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(typical_request(), route);  // bound 0.05
  ASSERT_TRUE(result.accepted);
  EXPECT_NEAR(result.e2e_loss, 0.0298, 1e-12);
}

TEST(Admission, WfqBufferGrowsLinearlyWithHops) {
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto r = typical_request();
  EXPECT_DOUBLE_EQ(p.forward_buffer(r, 1, 0.0, 0.0088), 16000.0);  // sigma + L
  EXPECT_DOUBLE_EQ(p.forward_buffer(r, 2, 0.0088, 0.0088), 24000.0);
  EXPECT_DOUBLE_EQ(p.forward_buffer(r, 3, 0.0088, 0.0088), 32000.0);
}

TEST(Admission, RcspBufferUsesDelayBounds) {
  const AdmissionPipeline p(Scheduler::kRcsp, MobilityClass::kMobile);
  const auto r = typical_request();
  // hop 1: sigma + L + b_max * d_1 = 16000 + 2e6*0.0088 = 33600
  EXPECT_NEAR(p.forward_buffer(r, 1, 0.0, 0.0088), 33600.0, 1e-9);
  // hop 2: sigma + L + b_max * (d_1 + d_2) = 16000 + 2e6*0.0176 = 51200
  EXPECT_NEAR(p.forward_buffer(r, 2, 0.0088, 0.0088), 51200.0, 1e-9);
}

TEST(Admission, RejectsOnBufferRcsp) {
  auto route = std::vector<LinkSnapshot>{wide_link(), wide_link()};
  route[1].buffer_capacity = 40000.0;  // < 51200 required at hop 2
  const AdmissionPipeline p(Scheduler::kRcsp, MobilityClass::kMobile);
  const auto result = p.admit(typical_request(), route);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kBuffer);
  EXPECT_EQ(result.failed_hop, 2u);
}

TEST(Admission, ReversePassRelaxedDelaysSumToBound) {
  // Uniform relaxation must spend exactly the slack: sum of d'_l equals
  // d_min's per-hop parts plus the distributed slack. With the numbers here,
  // sum d' = d (0.1) because slack includes the sigma/(n b_min) term that
  // converts the destination burst allowance into per-hop budget.
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(typical_request(), {wide_link(), wide_link()});
  ASSERT_TRUE(result.accepted);
  ASSERT_EQ(result.hops.size(), 2u);
  const double sum = result.hops[0].local_delay + result.hops[1].local_delay;
  EXPECT_NEAR(sum, 0.1, 1e-12);
  EXPECT_NEAR(result.hops[0].local_delay, 0.05, 1e-12);
}

TEST(Admission, ReverseBufferWfqMatchesForward) {
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(typical_request(), {wide_link(), wide_link()});
  ASSERT_TRUE(result.accepted);
  EXPECT_DOUBLE_EQ(result.hops[0].buffer, 16000.0);
  EXPECT_DOUBLE_EQ(result.hops[1].buffer, 24000.0);
}

TEST(Admission, ReverseBufferRcspUsesAllocatedRate) {
  const AdmissionPipeline p(Scheduler::kRcsp, MobilityClass::kMobile);
  const auto result = p.admit(typical_request(), {wide_link(), wide_link()});
  ASSERT_TRUE(result.accepted);
  // b_j = b_min for mobile; hop 1: sigma + L + b_j d'_1 = 16000 + 1e6*0.05
  EXPECT_NEAR(result.hops[0].buffer, 16000.0 + 1e6 * 0.05, 1e-6);
  // hop 2 (as printed in Table 2): sigma + b_j (d'_1 + d_2)
  EXPECT_NEAR(result.hops[1].buffer, 8000.0 + 1e6 * (0.05 + 0.0088), 1e-6);
}

TEST(Admission, RejectsInvalidRequest) {
  QosRequest bad;  // all zero
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(bad, {wide_link()});
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kInvalidRequest);
}

TEST(Admission, RejectsEmptyRoute) {
  const AdmissionPipeline p(Scheduler::kWfq, MobilityClass::kMobile);
  const auto result = p.admit(typical_request(), {});
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kInvalidRequest);
}

TEST(Admission, RejectReasonNames) {
  EXPECT_EQ(to_string(RejectReason::kBandwidth), "bandwidth");
  EXPECT_EQ(to_string(RejectReason::kNone), "none");
  EXPECT_EQ(to_string(RejectReason::kLoss), "loss");
}

// Property sweep: admission must be monotone in link capacity — if a request
// is admitted on a route, it stays admitted when every link gets faster.
class AdmissionMonotonicity : public ::testing::TestWithParam<Scheduler> {};

TEST_P(AdmissionMonotonicity, FasterLinksNeverHurt) {
  const AdmissionPipeline p(GetParam(), MobilityClass::kMobile);
  auto r = typical_request();
  r.jitter_bound = 1.0;
  r.delay_bound = 1.0;
  for (double cap = 2.0; cap <= 64.0; cap *= 2.0) {
    std::vector<LinkSnapshot> route(3, LinkSnapshot{mbps(cap), 0.0, 0.0, 1e9, 0.0});
    const auto slow = p.admit(r, route);
    for (auto& l : route) l.capacity *= 2.0;
    const auto fast = p.admit(r, route);
    if (slow.accepted) {
      EXPECT_TRUE(fast.accepted) << "cap=" << cap;
    }
    if (slow.accepted && fast.accepted) {
      EXPECT_LE(fast.e2e_min_delay, slow.e2e_min_delay);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothSchedulers, AdmissionMonotonicity,
                         ::testing::Values(Scheduler::kWfq, Scheduler::kRcsp));

// Property: more hops never decrease the end-to-end minimum delay or jitter.
class AdmissionHopCount : public ::testing::TestWithParam<int> {};

TEST_P(AdmissionHopCount, DelayAndJitterMonotoneInHops) {
  const auto r = typical_request();
  const int hops = GetParam();
  std::vector<LinkSnapshot> shorter(std::size_t(hops), wide_link());
  std::vector<LinkSnapshot> longer(std::size_t(hops) + 1, wide_link());
  EXPECT_LT(AdmissionPipeline::e2e_min_delay(r, shorter),
            AdmissionPipeline::e2e_min_delay(r, longer));
}

INSTANTIATE_TEST_SUITE_P(HopSweep, AdmissionHopCount, ::testing::Range(1, 8));

}  // namespace
}  // namespace imrm::qos
