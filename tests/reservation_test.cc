// Tests for cell bandwidth accounting, the lounge handoff predictors, and
// the probabilistic reservation model (eqs. 3-7).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "reservation/cell_bandwidth.h"
#include "reservation/handoff_predictor.h"
#include "reservation/probabilistic.h"

namespace imrm::reservation {
namespace {

using qos::kbps;
using qos::mbps;

constexpr PortableId kP1{1}, kP2{2}, kP3{3};

TEST(CellBandwidth, NewConnectionsRespectCapacity) {
  CellBandwidth cell(kbps(100));
  EXPECT_TRUE(cell.admit_new(kP1, kbps(60)));
  EXPECT_FALSE(cell.admit_new(kP2, kbps(60)));
  EXPECT_TRUE(cell.admit_new(kP2, kbps(40)));
  EXPECT_DOUBLE_EQ(cell.allocated(), kbps(100));
}

TEST(CellBandwidth, ReleaseFreesCapacity) {
  CellBandwidth cell(kbps(100));
  ASSERT_TRUE(cell.admit_new(kP1, kbps(60)));
  cell.release(kP1);
  EXPECT_DOUBLE_EQ(cell.allocated(), 0.0);
  EXPECT_TRUE(cell.admit_new(kP2, kbps(100)));
}

TEST(CellBandwidth, SpecificReservationBlocksNewButNotItsHandoff) {
  CellBandwidth cell(kbps(100));
  cell.reserve_for(kP1, kbps(50));
  // New connection sees only 50 free.
  EXPECT_FALSE(cell.admit_new(kP2, kbps(60)));
  // P1's handoff may use its own reservation.
  EXPECT_TRUE(cell.admit_handoff(kP1, kbps(60)));
  EXPECT_DOUBLE_EQ(cell.reservation_for(kP1), 0.0);  // consumed
}

TEST(CellBandwidth, HandoffCannotTouchOthersReservations) {
  CellBandwidth cell(kbps(100));
  cell.reserve_for(kP1, kbps(50));
  ASSERT_TRUE(cell.admit_new(kP2, kbps(40)));
  // P3 hands off: free = 100 - 40 - 50 = 10.
  EXPECT_FALSE(cell.admit_handoff(kP3, kbps(20)));
  EXPECT_TRUE(cell.admit_handoff(kP3, kbps(10)));
}

TEST(CellBandwidth, AnonymousPoolServesHandoffsOnly) {
  CellBandwidth cell(kbps(100));
  cell.set_anonymous_reservation(kbps(30));
  EXPECT_FALSE(cell.admit_new(kP1, kbps(80)));   // 30 held back
  EXPECT_TRUE(cell.admit_handoff(kP2, kbps(80)));  // pool absorbs the handoff
  // The pool shrank by the consumed amount.
  EXPECT_DOUBLE_EQ(cell.anonymous_reservation(), 0.0);
}

TEST(CellBandwidth, PoolPartiallyConsumed) {
  CellBandwidth cell(kbps(100));
  cell.set_anonymous_reservation(kbps(30));
  EXPECT_TRUE(cell.admit_handoff(kP1, kbps(10)));
  EXPECT_DOUBLE_EQ(cell.anonymous_reservation(), kbps(20));
}

TEST(CellBandwidth, FailedHandoffStillConsumesOwnReservation) {
  CellBandwidth cell(kbps(100));
  ASSERT_TRUE(cell.admit_new(kP2, kbps(95)));
  cell.reserve_for(kP1, kbps(5));
  EXPECT_FALSE(cell.admit_handoff(kP1, kbps(20)));
  EXPECT_DOUBLE_EQ(cell.reservation_for(kP1), 0.0);
}

TEST(CellBandwidth, ReserveForReplacesPrevious) {
  CellBandwidth cell(kbps(100));
  cell.reserve_for(kP1, kbps(20));
  cell.reserve_for(kP1, kbps(30));
  EXPECT_DOUBLE_EQ(cell.reservation_for(kP1), kbps(30));
  EXPECT_DOUBLE_EQ(cell.reserved_total(), kbps(30));
  cell.cancel_reservation(kP1);
  EXPECT_DOUBLE_EQ(cell.reserved_total(), 0.0);
}

TEST(CellBandwidth, ClearSpecificReservations) {
  CellBandwidth cell(kbps(100));
  cell.reserve_for(kP1, kbps(20));
  cell.reserve_for(kP2, kbps(30));
  cell.set_anonymous_reservation(kbps(10));
  cell.clear_specific_reservations();
  EXPECT_DOUBLE_EQ(cell.reserved_total(), kbps(10));  // anonymous survives
}

TEST(CellBandwidth, SetAllocationAdjustsTotals) {
  CellBandwidth cell(kbps(100));
  ASSERT_TRUE(cell.admit_new(kP1, kbps(16)));
  cell.set_allocation(kP1, kbps(64));
  EXPECT_DOUBLE_EQ(cell.allocated(), kbps(64));
  cell.set_allocation(kP1, kbps(16));
  EXPECT_DOUBLE_EQ(cell.allocated(), kbps(16));
}

TEST(CellBandwidth, UtilizationFraction) {
  CellBandwidth cell(kbps(100));
  ASSERT_TRUE(cell.admit_new(kP1, kbps(25)));
  EXPECT_DOUBLE_EQ(cell.utilization_fraction(), 0.25);
}

// ---- predictors ---------------------------------------------------------

TEST(LeastSquares, ExactLinearDataRecovered) {
  // n = 3t + 2 sampled at t = 4, 5, 6.
  const LinearFit fit = least_squares_3(14.0, 17.0, 20.0, 6.0);
  EXPECT_NEAR(fit.a, 3.0, 1e-12);
  EXPECT_NEAR(fit.m, 2.0, 1e-12);
  EXPECT_NEAR(fit.at(7.0), 23.0, 1e-12);
}

TEST(LeastSquares, NoisyDataFitsTrend) {
  const LinearFit fit = least_squares_3(10.0, 13.0, 14.0, 2.0);
  EXPECT_NEAR(fit.a, 2.0, 1e-12);  // (14-10)/2
  // Mean condition: fit passes through (t_mean, n_mean) = (1, 37/3).
  EXPECT_NEAR(fit.at(1.0), 37.0 / 3.0, 1e-12);
}

TEST(CafeteriaPredictor, NeedsThreeSamplesForTrend) {
  CafeteriaPredictor p;
  EXPECT_DOUBLE_EQ(p.predict_next(), 0.0);
  p.push(10.0);
  EXPECT_DOUBLE_EQ(p.predict_next(), 10.0);  // fallback: latest value
  p.push(12.0);
  EXPECT_DOUBLE_EQ(p.predict_next(), 12.0);
  p.push(14.0);
  EXPECT_NEAR(p.predict_next(), 16.0, 1e-9);  // linear trend continues
}

TEST(CafeteriaPredictor, SlidingWindowTracksRecentTrend) {
  CafeteriaPredictor p;
  for (double v : {100.0, 50.0, 20.0, 18.0, 16.0}) p.push(v);
  // Window is {20, 18, 16}: slope -2, next = 14.
  EXPECT_NEAR(p.predict_next(), 14.0, 1e-9);
}

TEST(CafeteriaPredictor, NegativeExtrapolationClampsToZero) {
  CafeteriaPredictor p;
  p.push(4.0);
  p.push(2.0);
  p.push(0.0);
  EXPECT_DOUBLE_EQ(p.predict_next(), 0.0);  // trend says -2; counts cannot
}

TEST(CafeteriaPredictor, HistoryKeepsTheLastThreeSamplesOldestFirst) {
  CafeteriaPredictor p;
  EXPECT_TRUE(p.history().empty());
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) p.push(v);
  EXPECT_EQ(p.samples(), CafeteriaPredictor::kWindow);
  EXPECT_EQ(p.latest_slot(), 5u);
  const std::vector<double> window(p.history().begin(), p.history().end());
  EXPECT_EQ(window, (std::vector<double>{3.0, 4.0, 5.0}));
}

TEST(CafeteriaPredictor, RestoreRoundTripsWindowAndSlot) {
  CafeteriaPredictor original;
  for (double v : {9.0, 7.0, 12.0, 15.0}) original.push(v);
  CafeteriaPredictor copy;
  copy.restore(original.history(), original.latest_slot());
  EXPECT_EQ(copy.samples(), original.samples());
  EXPECT_EQ(copy.latest_slot(), original.latest_slot());
  EXPECT_DOUBLE_EQ(copy.predict_next(), original.predict_next());
  // Both keep sliding identically after the restore.
  for (double v : {11.0, 6.0}) {
    original.push(v);
    copy.push(v);
    EXPECT_DOUBLE_EQ(copy.predict_next(), original.predict_next()) << v;
  }
}

TEST(CafeteriaPredictor, RestoreAcceptsAPartialWindow) {
  CafeteriaPredictor p;
  const double two[2] = {10.0, 12.0};
  p.restore(two, 2);
  EXPECT_EQ(p.samples(), 2u);
  EXPECT_DOUBLE_EQ(p.predict_next(), 12.0);  // fallback: latest value
  p.push(14.0);
  EXPECT_NEAR(p.predict_next(), 16.0, 1e-9);  // the third sample starts the fit
}

TEST(CafeteriaPredictor, OversizedRestoreLeavesThePredictorUntouched) {
  CafeteriaPredictor p;
  for (double v : {10.0, 12.0, 14.0}) p.push(v);
  const double four[4] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(p.restore(four, 9), std::invalid_argument);
  EXPECT_EQ(p.samples(), 3u);
  EXPECT_EQ(p.latest_slot(), 3u);
  EXPECT_NEAR(p.predict_next(), 16.0, 1e-9);
}

TEST(OneStepPredictor, RepeatsLastObservation) {
  OneStepPredictor p;
  EXPECT_DOUBLE_EQ(p.predict_next(), 0.0);
  p.push(7.0);
  EXPECT_DOUBLE_EQ(p.predict_next(), 7.0);
  p.push(3.0);
  EXPECT_DOUBLE_EQ(p.predict_next(), 3.0);
}

// ---- probabilistic model (eqs. 3-7) --------------------------------------

TEST(BinomialPmf, MatchesClosedForm) {
  const auto pmf = binomial_pmf(4, 0.5);
  ASSERT_EQ(pmf.size(), 5u);
  EXPECT_NEAR(pmf[0], 1.0 / 16, 1e-12);
  EXPECT_NEAR(pmf[1], 4.0 / 16, 1e-12);
  EXPECT_NEAR(pmf[2], 6.0 / 16, 1e-12);
  EXPECT_NEAR(pmf[3], 4.0 / 16, 1e-12);
  EXPECT_NEAR(pmf[4], 1.0 / 16, 1e-12);
}

TEST(BinomialPmf, DegenerateCases) {
  EXPECT_EQ(binomial_pmf(0, 0.3).size(), 1u);
  EXPECT_DOUBLE_EQ(binomial_pmf(0, 0.3)[0], 1.0);
  const auto certain = binomial_pmf(5, 1.0);
  EXPECT_DOUBLE_EQ(certain[5], 1.0);
  const auto never = binomial_pmf(5, 0.0);
  EXPECT_DOUBLE_EQ(never[0], 1.0);
}

TEST(BinomialPmf, SumsToOne) {
  for (double p : {0.1, 0.5, 0.9}) {
    const auto pmf = binomial_pmf(40, p);
    double total = 0.0;
    for (double x : pmf) total += x;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

ProbabilisticReservation paper_model(double window, double p_qos) {
  // Figure 6's setup: capacity 40; type 1: b=1, hold 0.2; type 2: b=4,
  // hold 0.25; handoff probability 0.7.
  ProbabilisticReservation::Config config;
  config.capacity_units = 40;
  config.window = window;
  config.p_qos = p_qos;
  config.handoff_prob = 0.7;
  return ProbabilisticReservation(config, {{1, 0.2}, {4, 0.25}});
}

TEST(Probabilistic, StayAndMoveProbabilities) {
  const auto model = paper_model(0.05, 0.01);
  // p_s,1 = exp(-T/0.2) = exp(-0.25)
  EXPECT_NEAR(model.p_stay(0), std::exp(-0.25), 1e-12);
  EXPECT_NEAR(model.p_move(0), (1.0 - std::exp(-0.25)) * 0.7, 1e-12);
  EXPECT_NEAR(model.p_stay(1), std::exp(-0.2), 1e-12);
}

TEST(Probabilistic, EmptySystemNeverBlocks) {
  const auto model = paper_model(0.05, 0.01);
  EXPECT_DOUBLE_EQ(model.nonblocking_probability({0, 0}, {0, 0}), 1.0);
}

TEST(Probabilistic, LightLoadNonblockingNearOne) {
  const auto model = paper_model(0.05, 0.01);
  EXPECT_GT(model.nonblocking_probability({5, 1}, {5, 1}), 0.999);
}

TEST(Probabilistic, OverloadDrivesNonblockingDown) {
  const auto model = paper_model(1.0, 0.01);
  // 80 unit-connections in each cell against capacity 40.
  const double p = model.nonblocking_probability({80, 0}, {80, 0});
  EXPECT_LT(p, 0.5);
}

TEST(Probabilistic, NonblockingMonotoneInLoad) {
  const auto model = paper_model(0.1, 0.01);
  double prev = 1.0;
  for (int n = 0; n <= 60; n += 10) {
    const double p = model.nonblocking_probability({n, 0}, {n, 0});
    EXPECT_LE(p, prev + 1e-12) << "n=" << n;
    prev = p;
  }
}

TEST(Probabilistic, NonblockingMonotoneInWindowForArrivalLoad) {
  // With an empty local cell, the only load is handoff arrivals, whose
  // probability p_m,i = (1 - e^{-mu T}) h grows with the window: P_nb must
  // not increase. (With local stayers the effect is non-monotone, since a
  // larger window also drains the local population — that is by design.)
  double prev = 1.0;
  for (double window : {0.01, 0.05, 0.2, 1.0}) {
    const auto model = paper_model(window, 0.01);
    const double p = model.nonblocking_probability({0, 0}, {50, 3});
    EXPECT_LE(p, prev + 1e-9) << "window=" << window;
    prev = p;
  }
}

TEST(Probabilistic, AdmitRequiresPhysicalFit) {
  const auto model = paper_model(0.001, 0.5);  // trivially satisfied eq. 6
  // 10 type-2 connections use the full 40 units: nothing fits.
  EXPECT_FALSE(model.admit_new(0, {0, 10}, {0, 0}));
  EXPECT_TRUE(model.admit_new(0, {0, 9}, {0, 0}));
}

TEST(Probabilistic, TighterPqosAdmitsLess) {
  // Short window so stayers dominate: eq. 6 then binds before the physical
  // fit does, letting P_QOS discriminate.
  const auto strict = paper_model(0.05, 0.001);
  const auto loose = paper_model(0.05, 0.5);
  // Find the max type-1 count each admits (neighbor moderately loaded).
  auto max_admitted = [](const ProbabilisticReservation& model) {
    std::vector<int> here{0, 0}, neighbor{20, 2};
    while (model.admit_new(0, here, neighbor)) ++here[0];
    return here[0];
  };
  EXPECT_LT(max_admitted(strict), max_admitted(loose));
}

TEST(Probabilistic, ReservedUnitsGrowWithNeighborLoad) {
  const auto model = paper_model(0.5, 0.01);
  const int quiet = model.reserved_units({5, 0}, {0, 0});
  const int busy = model.reserved_units({5, 0}, {60, 5});
  EXPECT_GE(busy, quiet);
  EXPECT_GT(busy, 0);
}

TEST(Probabilistic, UsedUnitsWeighted) {
  const auto model = paper_model(0.5, 0.01);
  EXPECT_EQ(model.used_units({3, 2}), 3 * 1 + 2 * 4);
}

}  // namespace
}  // namespace imrm::reservation
