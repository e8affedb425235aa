// Tests for the experiment harnesses: the classroom (Figure 5), the
// two-cell probabilistic admission sim (Figure 6), and the Figure 4 office
// mobility experiment. These pin down the qualitative results the paper
// reports — who wins, by roughly what factor.
#include <gtest/gtest.h>

#include "experiments/campus_day.h"
#include "experiments/classroom.h"
#include "experiments/fig4_mobility.h"
#include "experiments/twocell.h"

namespace imrm::experiments {
namespace {

ClassroomConfig classroom_config(std::size_t size, PolicyKind policy) {
  ClassroomConfig c;
  c.class_size = size;
  c.meeting = {sim::SimTime::minutes(60), sim::SimTime::minutes(110), size};
  c.policy = policy;
  c.seed = 7;
  return c;
}

TEST(Classroom, OfferedLoadsMatchPaper) {
  // floor(N/4) at 64 kbps + rest at 16 kbps gives exactly 59% and 94%.
  const auto lecture = run_classroom(classroom_config(35, PolicyKind::kNone));
  EXPECT_NEAR(lecture.offered_load, 0.59, 1e-9);
  const auto lab = run_classroom(classroom_config(55, PolicyKind::kNone));
  EXPECT_NEAR(lab.offered_load, 0.94, 1e-9);
}

TEST(Classroom, MeetingRoomPolicyNeverDrops) {
  for (std::size_t size : {35u, 55u}) {
    const auto r = run_classroom(classroom_config(size, PolicyKind::kMeetingRoom));
    EXPECT_EQ(r.connection_drops, 0u) << "size=" << size;
  }
}

TEST(Classroom, BruteForceDropsGrowWithLoad) {
  const auto lecture = run_classroom(classroom_config(35, PolicyKind::kBruteForce));
  const auto lab = run_classroom(classroom_config(55, PolicyKind::kBruteForce));
  EXPECT_GT(lecture.connection_drops, 0u);
  EXPECT_GT(lab.connection_drops, lecture.connection_drops);
}

TEST(Classroom, PaperDropOrdering) {
  // brute force >= aggregate >= meeting room, at both loads.
  for (std::size_t size : {35u, 55u}) {
    const auto brute = run_classroom(classroom_config(size, PolicyKind::kBruteForce));
    const auto aggregate = run_classroom(classroom_config(size, PolicyKind::kAggregate));
    const auto meeting = run_classroom(classroom_config(size, PolicyKind::kMeetingRoom));
    EXPECT_GE(brute.connection_drops, aggregate.connection_drops) << size;
    EXPECT_GE(aggregate.connection_drops, meeting.connection_drops) << size;
  }
}

TEST(Classroom, SeedSevenMatchesPaperBruteForceCounts) {
  // With the calibrated walker stream, seed 7 reproduces the published
  // counts exactly: 2 drops at 59% load, 7 at 94%.
  EXPECT_EQ(run_classroom(classroom_config(35, PolicyKind::kBruteForce)).connection_drops,
            2u);
  EXPECT_EQ(run_classroom(classroom_config(55, PolicyKind::kBruteForce)).connection_drops,
            7u);
}

TEST(Classroom, HandoffSeriesHaveTheFigureFiveShape) {
  const auto r = run_classroom(classroom_config(35, PolicyKind::kMeetingRoom));
  // All attendees enter the room exactly once and leave exactly once.
  EXPECT_DOUBLE_EQ(r.into_room.total(), 35.0);
  EXPECT_DOUBLE_EQ(r.out_of_room.total(), 35.0);
  // Entries cluster around the class start (minute 60): the peak bin lies
  // in [52, 62].
  std::size_t peak_bin = 0;
  for (std::size_t i = 0; i < r.into_room.bin_count(); ++i) {
    if (r.into_room.bin_value(i) > r.into_room.bin_value(peak_bin)) peak_bin = i;
  }
  EXPECT_GE(r.into_room.bin_start(peak_bin).to_minutes(), 52.0);
  EXPECT_LE(r.into_room.bin_start(peak_bin).to_minutes(), 62.0);
  // Exits cluster right after the class end (minute 110).
  std::size_t exit_peak = 0;
  for (std::size_t i = 0; i < r.out_of_room.bin_count(); ++i) {
    if (r.out_of_room.bin_value(i) > r.out_of_room.bin_value(exit_peak)) exit_peak = i;
  }
  EXPECT_GE(r.out_of_room.bin_start(exit_peak).to_minutes(), 109.0);
  EXPECT_LE(r.out_of_room.bin_start(exit_peak).to_minutes(), 116.0);
  // Corridor activity outside exceeds the entries (Figure 5.b vs 5.a).
  EXPECT_GT(r.outside_room.total(), r.into_room.total());
}

// Sweep across class sizes: the ordering invariant and the meeting-room
// zero-drop guarantee hold at every load level, not only the paper's two.
class ClassroomSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClassroomSizes, OrderingAndZeroDropInvariants) {
  const std::size_t size = GetParam();
  const auto brute = run_classroom(classroom_config(size, PolicyKind::kBruteForce));
  const auto aggregate = run_classroom(classroom_config(size, PolicyKind::kAggregate));
  const auto meeting = run_classroom(classroom_config(size, PolicyKind::kMeetingRoom));
  EXPECT_EQ(meeting.connection_drops, 0u);
  EXPECT_GE(brute.connection_drops, aggregate.connection_drops);
  EXPECT_GE(aggregate.connection_drops, meeting.connection_drops);
  // Offered load follows the deterministic mix: floor(N/4)*64 + rest*16.
  const double expected_load =
      (double(size / 4) * 64.0 + double(size - size / 4) * 16.0) * 1000.0 / 1.6e6;
  EXPECT_NEAR(brute.offered_load, expected_load, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClassroomSizes, ::testing::Values(20u, 35u, 45u, 55u));

TEST(Classroom, Deterministic) {
  const auto a = run_classroom(classroom_config(35, PolicyKind::kBruteForce));
  const auto b = run_classroom(classroom_config(35, PolicyKind::kBruteForce));
  EXPECT_EQ(a.connection_drops, b.connection_drops);
  EXPECT_EQ(a.walkers, b.walkers);
}

// ---- two-cell (Figure 6) -------------------------------------------------

TwoCellConfig twocell_config(double window, double p_qos, AdmissionRule rule) {
  TwoCellConfig c;
  c.window = window;
  c.p_qos = p_qos;
  c.rule = rule;
  c.duration = 300.0;
  c.seed = 3;
  return c;
}

TEST(TwoCell, TradeoffPbVersusPd) {
  // Loosening P_QOS admits more (lower P_b) at the cost of more handoff
  // drops (higher P_d) — the fundamental Figure 6 tradeoff.
  const auto strict =
      run_twocell(twocell_config(0.05, 0.002, AdmissionRule::kProbabilistic));
  const auto loose =
      run_twocell(twocell_config(0.05, 0.5, AdmissionRule::kProbabilistic));
  EXPECT_GT(strict.p_block(), loose.p_block());
  EXPECT_LE(strict.p_drop(), loose.p_drop());
}

TEST(TwoCell, DropTargetRoughlyHonored) {
  // P_d should stay in the neighbourhood of (usually below) P_QOS.
  for (double p_qos : {0.01, 0.05}) {
    const auto r = run_twocell(twocell_config(0.05, p_qos, AdmissionRule::kProbabilistic));
    EXPECT_LT(r.p_drop(), p_qos * 2.0) << "p_qos=" << p_qos;
  }
}

TEST(TwoCell, NoReservationMaximizesDrops) {
  const auto none = run_twocell(twocell_config(0.05, 0.01, AdmissionRule::kNoReservation));
  const auto prob = run_twocell(twocell_config(0.05, 0.01, AdmissionRule::kProbabilistic));
  EXPECT_GE(none.p_drop(), prob.p_drop());
  EXPECT_LE(none.p_block(), prob.p_block());
}

TEST(TwoCell, ProbabilisticBeatsStaticAtEqualBlocking) {
  // The paper's closing claim: the probabilistic algorithm outperforms
  // static reservation. Find a static guard whose P_b is close to the
  // probabilistic rule's, then compare P_d.
  const auto prob = run_twocell(twocell_config(0.05, 0.02, AdmissionRule::kProbabilistic));
  TwoCellResult best_static;
  double best_gap = 1e9;
  for (double guard : {0.05, 0.10, 0.15, 0.20, 0.25}) {
    auto config = twocell_config(0.05, 0.0, AdmissionRule::kStaticGuard);
    config.guard_fraction = guard;
    const auto r = run_twocell(config);
    const double gap = std::abs(r.p_block() - prob.p_block());
    if (gap < best_gap) {
      best_gap = gap;
      best_static = r;
    }
  }
  // At comparable blocking, the probabilistic rule drops no more handoffs.
  EXPECT_LE(prob.p_drop(), best_static.p_drop() + 0.01);
}

TEST(TwoCell, Deterministic) {
  const auto a = run_twocell(twocell_config(0.05, 0.01, AdmissionRule::kProbabilistic));
  const auto b = run_twocell(twocell_config(0.05, 0.01, AdmissionRule::kProbabilistic));
  EXPECT_EQ(a.new_attempts, b.new_attempts);
  EXPECT_EQ(a.handoff_dropped, b.handoff_dropped);
}

TEST(TwoCell, WarmupExcludesEarlyEvents) {
  auto with_warmup = twocell_config(0.05, 0.01, AdmissionRule::kProbabilistic);
  auto without = with_warmup;
  without.warmup = 0.0;
  EXPECT_LT(run_twocell(with_warmup).new_attempts, run_twocell(without).new_attempts);
}

// ---- Figure 4 -------------------------------------------------------------

TEST(Fig4, FanoutFractionsMatchMeasurements) {
  Fig4Config config;
  config.hours = 400.0;
  const Fig4Result r = run_fig4(config);

  ASSERT_GT(r.faculty.total(), 50u);
  EXPECT_NEAR(double(r.faculty.to_a) / double(r.faculty.total()), 94.0 / 127.0, 0.10);
  ASSERT_GT(r.students.total(), 100u);
  EXPECT_NEAR(double(r.students.toward_b) / double(r.students.total()), 173.0 / 218.0,
              0.10);
  ASSERT_GT(r.others.total(), 500u);
  EXPECT_NEAR(double(r.others.to_a) / double(r.others.total()), 39.0 / 1384.0, 0.03);
}

TEST(Fig4, PortableProfilePredictionIsAccurate) {
  Fig4Config config;
  config.hours = 200.0;
  const Fig4Result r = run_fig4(config);
  // Habitual users are predictable: the level-1 predictor should beat 75%
  // (the faculty member goes to A 74% of the time from the decision point,
  // and most other states are deterministic walks).
  ASSERT_GT(r.portable_profile.predictions, 1000u);
  EXPECT_GT(r.portable_profile.accuracy(), 0.75);
}

TEST(Fig4, BruteForceReservationIsWasteful) {
  Fig4Config config;
  config.hours = 100.0;
  const Fig4Result r = run_fig4(config);
  // Brute force reserves in every neighbor; the predictive scheme reserves
  // once per handoff. The measured factor should be well above 2x.
  ASSERT_GT(r.total_handoffs, 0u);
  EXPECT_GT(double(r.brute_force_reservations),
            2.0 * double(r.predictive_reservations));
  // And the predictive reservations are mostly *useful*.
  EXPECT_GT(double(r.predictive_hits) / double(r.predictive_reservations), 0.7);
}

TEST(Fig4, Deterministic) {
  Fig4Config config;
  config.hours = 20.0;
  const auto a = run_fig4(config);
  const auto b = run_fig4(config);
  EXPECT_EQ(a.total_handoffs, b.total_handoffs);
  EXPECT_EQ(a.faculty.to_a, b.faculty.to_a);
}

}  // namespace
}  // namespace imrm::experiments

// ---- the combination experiment (campus day) ------------------------------

namespace imrm::experiments {
namespace {

CampusDayResult campus(CampusPolicy policy) {
  CampusDayConfig config;
  config.policy = policy;
  return run_campus_day(config);
}

TEST(CampusDay, DispatcherProtectsTheMeetingBest) {
  const auto none = campus(CampusPolicy::kNone);
  const auto dispatcher = campus(CampusPolicy::kDispatcher);
  EXPECT_GT(none.attendee_drops, 0u);  // squatters win without reservations
  EXPECT_LT(dispatcher.attendee_drops, none.attendee_drops);
  // The dispatcher pays with squatter blocking during the booking window.
  EXPECT_GT(dispatcher.squatter_blocks, none.squatter_blocks);
}

TEST(CampusDay, EveryReservationPolicyBeatsNone) {
  const auto none = campus(CampusPolicy::kNone);
  for (CampusPolicy policy : {CampusPolicy::kStatic, CampusPolicy::kBruteForce,
                              CampusPolicy::kAggregate, CampusPolicy::kDispatcher}) {
    const auto r = campus(policy);
    EXPECT_LE(r.attendee_drops, none.attendee_drops) << r.policy;
  }
}

TEST(CampusDay, NoReservationNeverBlocksEarlySquatters) {
  const auto none = campus(CampusPolicy::kNone);
  EXPECT_EQ(none.squatter_blocks, 0u);
  EXPECT_EQ(none.squatter_admits, 10u);
}

TEST(CampusDay, Deterministic) {
  const auto a = campus(CampusPolicy::kDispatcher);
  const auto b = campus(CampusPolicy::kDispatcher);
  EXPECT_EQ(a.attendee_drops, b.attendee_drops);
  EXPECT_EQ(a.squatter_blocks, b.squatter_blocks);
}

TEST(CampusDay, BlockedSquattersStopRetryingAtTheHorizon) {
  // The default crowd with the adaptation loop still fills the room when
  // the day ends (meeting stop + 40 min = minute 180). A blocked squatter
  // retries every 5 min from no earlier than minute 40, so it has at most
  // 29 tries; a retry scheduled past the horizon would repeat with nothing
  // to stop it, and the day would never end.
  CampusDayConfig config;
  config.adapt.enabled = true;
  const CampusDayResult r = run_campus_day(config);
  EXPECT_GT(r.squatter_blocks, 0u);
  EXPECT_LE(r.squatter_blocks, config.squatters * 29);
}

}  // namespace
}  // namespace imrm::experiments
