// Tests for workload generation: connection mixes and the class-schedule
// generator that feeds the Figure 5 experiment.
#include <gtest/gtest.h>

#include "workload/class_schedule.h"
#include "workload/connection_mix.h"

namespace imrm::workload {
namespace {

using qos::kbps;
using sim::Duration;
using sim::SimTime;

TEST(ConnectionMix, PaperMixMean) {
  const ConnectionMix mix = paper_fig5_mix();
  EXPECT_DOUBLE_EQ(mix.mean(), kbps(28));  // 0.75*16 + 0.25*64
}

TEST(ConnectionMix, SampleFrequenciesMatch) {
  const ConnectionMix mix = paper_fig5_mix();
  sim::Rng rng(11);
  int small = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (mix.sample(rng) == kbps(16)) ++small;
  }
  EXPECT_NEAR(small / double(n), 0.75, 0.01);
}

class ClassWorkloadTest : public ::testing::Test {
 protected:
  ClassScheduleConfig config() {
    ClassScheduleConfig c;
    c.meeting = {SimTime::minutes(60), SimTime::minutes(110), 35};
    return c;
  }
};

TEST_F(ClassWorkloadTest, GeneratesAllAttendees) {
  sim::Rng rng(7);
  const ClassWorkload w = generate_class_workload(config(), rng);
  EXPECT_EQ(w.attendees.size(), 35u);
}

TEST_F(ClassWorkloadTest, ArrivalsClusterAroundStart) {
  sim::Rng rng(7);
  const ClassWorkload w = generate_class_workload(config(), rng);
  for (const AttendeePlan& plan : w.attendees) {
    EXPECT_GE(plan.enter_room.to_minutes(), 52.0);  // T_s - 8
    EXPECT_LE(plan.enter_room.to_minutes(), 62.0);  // T_s + 2
    EXPECT_LT(plan.arrive_corridor, plan.enter_room);
  }
}

TEST_F(ClassWorkloadTest, DeparturesClusterAfterEnd) {
  sim::Rng rng(7);
  const ClassWorkload w = generate_class_workload(config(), rng);
  for (const AttendeePlan& plan : w.attendees) {
    EXPECT_GE(plan.leave_room.to_minutes(), 110.0);
    EXPECT_LE(plan.leave_room.to_minutes(), 115.0);
    EXPECT_LT(plan.leave_room, plan.depart);
  }
}

TEST_F(ClassWorkloadTest, AttendeesSortedByEntry) {
  sim::Rng rng(9);
  const ClassWorkload w = generate_class_workload(config(), rng);
  for (std::size_t i = 1; i < w.attendees.size(); ++i) {
    EXPECT_LE(w.attendees[i - 1].enter_room, w.attendees[i].enter_room);
  }
}

TEST_F(ClassWorkloadTest, PassByTrafficScalesWithRate) {
  auto c = config();
  sim::Rng rng1(13), rng2(13);
  c.passby_per_minute = 1.0;
  const auto light = generate_class_workload(c, rng1);
  c.passby_per_minute = 6.0;
  const auto heavy = generate_class_workload(c, rng2);
  EXPECT_GT(heavy.passers.size(), light.passers.size() * 3);
}

TEST_F(ClassWorkloadTest, ZeroPassbyRateMeansNone) {
  auto c = config();
  c.passby_per_minute = 0.0;
  sim::Rng rng(1);
  EXPECT_TRUE(generate_class_workload(c, rng).passers.empty());
}

TEST_F(ClassWorkloadTest, PassersLeaveAfterAppearing) {
  sim::Rng rng(21);
  const ClassWorkload w = generate_class_workload(config(), rng);
  ASSERT_FALSE(w.passers.empty());
  for (const PassByPlan& plan : w.passers) {
    EXPECT_GT(plan.leave, plan.appear);
    EXPECT_GE(plan.appear.to_seconds(), 0.0);
  }
}

TEST_F(ClassWorkloadTest, Deterministic) {
  sim::Rng a(33), b(33);
  const auto w1 = generate_class_workload(config(), a);
  const auto w2 = generate_class_workload(config(), b);
  ASSERT_EQ(w1.attendees.size(), w2.attendees.size());
  for (std::size_t i = 0; i < w1.attendees.size(); ++i) {
    EXPECT_EQ(w1.attendees[i].enter_room, w2.attendees[i].enter_room);
  }
}

}  // namespace
}  // namespace imrm::workload
