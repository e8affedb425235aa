// Tests for the obs metrics registry: instrument semantics, snapshot
// isolation, deterministic merging across ReplicationRunner thread counts,
// and the JSON serialization the run reports are built on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "experiments/campus_day.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "sim/random.h"
#include "sim/replication.h"

using namespace imrm;
using obs::HistogramSpec;
using obs::Registry;
using obs::Snapshot;

namespace {

std::string to_json(const Snapshot& snapshot) {
  std::ostringstream os;
  snapshot.write_json(os);
  return os.str();
}

}  // namespace

TEST(Counter, AddsAndResets) {
  Registry registry;
  obs::Counter& c = registry.counter("x");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, SameNameSameInstrument) {
  Registry registry;
  registry.counter("x").add(3);
  registry.counter("x").add(4);
  EXPECT_EQ(registry.counter("x").value(), 7u);
  EXPECT_EQ(registry.instrument_count(), 1u);
}

TEST(Gauge, TracksValueAndMax) {
  Registry registry;
  obs::Gauge& g = registry.gauge("depth");
  g.set(5.0);
  g.set(9.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

TEST(Histogram, LinearBucketing) {
  const HistogramSpec spec = HistogramSpec::linear(0.0, 10.0, 10);
  EXPECT_EQ(spec.bucket_count(), 10u);
  EXPECT_EQ(spec.index_of(0.0), 0u);
  EXPECT_EQ(spec.index_of(4.5), 4u);
  EXPECT_EQ(spec.index_of(9.99), 9u);
  EXPECT_DOUBLE_EQ(spec.lower_bound(4), 4.0);
  EXPECT_DOUBLE_EQ(spec.upper_bound(4), 5.0);
}

TEST(Histogram, Log2BucketingIsMonotonic) {
  const HistogramSpec spec = HistogramSpec::log2(1.0, 1024.0, 8);
  EXPECT_EQ(spec.bucket_count(), 80u);  // 10 octaves x 8 sub-buckets
  std::size_t prev = 0;
  for (double v = 1.0; v < 1024.0; v *= 1.13) {
    const std::size_t idx = spec.index_of(v);
    EXPECT_GE(idx, prev) << "index_of not monotone at " << v;
    EXPECT_GE(v, spec.lower_bound(idx) * (1.0 - 1e-12));
    EXPECT_LT(v, spec.upper_bound(idx) * (1.0 + 1e-12));
    prev = idx;
  }
}

TEST(Histogram, RecordsUnderAndOverflow) {
  Registry registry;
  obs::Histogram& h =
      registry.histogram("lat", HistogramSpec::linear(0.0, 100.0, 10));
  h.record(-5.0);
  h.record(50.0);
  h.record(60.0);
  h.record(250.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 250.0);
  EXPECT_DOUBLE_EQ(h.sum(), 355.0);
}

TEST(Histogram, PercentileInterpolates) {
  Registry registry;
  obs::Histogram& h =
      registry.histogram("v", HistogramSpec::linear(0.0, 100.0, 100));
  for (int i = 0; i < 100; ++i) h.record(double(i) + 0.5);
  const Snapshot snap = registry.snapshot();
  const obs::HistogramSample* s = snap.histogram("v");
  ASSERT_NE(s, nullptr);
  EXPECT_NEAR(s->percentile(0.50), 50.0, 1.0);
  EXPECT_NEAR(s->percentile(0.99), 99.0, 1.0);
}

// Percentile edge cases (ISSUE 4): the estimate must stay inside the
// observed [min, max] range in every degenerate shape — empty, extremes,
// single saturated bucket, and mass in the under/overflow bins.
TEST(Histogram, PercentileOfEmptyHistogramIsZero) {
  Registry registry;
  registry.histogram("v", HistogramSpec::linear(0.0, 10.0, 10));
  const obs::HistogramSample* s = registry.snapshot().histogram("v");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->percentile(0.0), 0.0);
  EXPECT_EQ(s->percentile(0.5), 0.0);
  EXPECT_EQ(s->percentile(1.0), 0.0);
}

TEST(Histogram, PercentileExtremesReturnObservedMinAndMax) {
  Registry registry;
  obs::Histogram& h = registry.histogram("v", HistogramSpec::linear(0.0, 100.0, 10));
  h.record(12.5);
  h.record(34.0);
  h.record(87.25);
  const obs::HistogramSample* s = registry.snapshot().histogram("v");
  ASSERT_NE(s, nullptr);
  // Exactly the observed extremes — not the containing buckets' bounds.
  EXPECT_DOUBLE_EQ(s->percentile(0.0), 12.5);
  EXPECT_DOUBLE_EQ(s->percentile(1.0), 87.25);
}

TEST(Histogram, PercentileSingleSaturatedBucketStaysInSampleRange) {
  Registry registry;
  obs::Histogram& h = registry.histogram("v", HistogramSpec::linear(0.0, 100.0, 10));
  // All mass in one [30, 40) bucket, samples confined to [33, 34].
  for (int i = 0; i < 1000; ++i) h.record(33.0 + (i % 2));
  const obs::HistogramSample* s = registry.snapshot().histogram("v");
  ASSERT_NE(s, nullptr);
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    SCOPED_TRACE(q);
    EXPECT_GE(s->percentile(q), 33.0);
    EXPECT_LE(s->percentile(q), 34.0);
  }
}

TEST(Histogram, PercentileWithAllMassOutOfRangeStaysInSampleRange) {
  Registry registry;
  obs::Histogram& h = registry.histogram("v", HistogramSpec::linear(10.0, 20.0, 10));
  h.record(2.0);    // underflow
  h.record(3.0);    // underflow
  h.record(150.0);  // overflow
  const obs::HistogramSample* s = registry.snapshot().histogram("v");
  ASSERT_NE(s, nullptr);
  for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    SCOPED_TRACE(q);
    EXPECT_GE(s->percentile(q), 2.0);
    EXPECT_LE(s->percentile(q), 150.0);
  }
  EXPECT_DOUBLE_EQ(s->percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(s->percentile(1.0), 150.0);
}

TEST(Histogram, PercentilesReachJsonInOrder) {
  // The schema-v1 report derives p50/p90/p99 from percentile(); they must be
  // present, ordered, and within the observed range even for the saturated
  // single-bucket shape.
  Registry registry;
  obs::Histogram& h = registry.histogram("lat", HistogramSpec::log2(0.001, 1000.0, 4));
  for (int i = 0; i < 100; ++i) h.record(0.25);
  std::ostringstream os;
  registry.snapshot().write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"p50\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p90\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":0.25"), std::string::npos) << json;
}

TEST(Snapshot, IsIsolatedFromLaterMutation) {
  Registry registry;
  registry.counter("c").add(1);
  registry.gauge("g").set(1.0);
  const Snapshot before = registry.snapshot();
  registry.counter("c").add(100);
  registry.gauge("g").set(7.0);
  EXPECT_EQ(before.counter("c")->value, 1u);
  EXPECT_DOUBLE_EQ(before.gauge("g")->value, 1.0);
  EXPECT_EQ(registry.snapshot().counter("c")->value, 101u);
}

TEST(Snapshot, LookupMissReturnsNull) {
  Registry registry;
  registry.counter("present").add();
  const Snapshot snap = registry.snapshot();
  EXPECT_NE(snap.counter("present"), nullptr);
  EXPECT_EQ(snap.counter("absent"), nullptr);
  EXPECT_EQ(snap.gauge("absent"), nullptr);
  EXPECT_EQ(snap.histogram("absent"), nullptr);
}

TEST(Snapshot, MergeSumsCountersAndFoldsGauges) {
  Registry a, b;
  a.counter("shared").add(3);
  a.counter("only-a").add(1);
  a.gauge("g").set(2.0);
  b.counter("shared").add(4);
  b.counter("only-b").add(10);
  b.gauge("g").set(5.0);

  Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counter("shared")->value, 7u);
  EXPECT_EQ(merged.counter("only-a")->value, 1u);
  EXPECT_EQ(merged.counter("only-b")->value, 10u);
  EXPECT_DOUBLE_EQ(merged.gauge("g")->value, 7.0);
  EXPECT_DOUBLE_EQ(merged.gauge("g")->max, 5.0);
}

TEST(Snapshot, MergeFoldsHistogramsBucketwise) {
  const HistogramSpec spec = HistogramSpec::linear(0.0, 10.0, 10);
  Registry a, b;
  a.histogram("h", spec).record(1.5);
  a.histogram("h", spec).record(-1.0);
  b.histogram("h", spec).record(1.7);
  b.histogram("h", spec).record(8.2);

  Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const obs::HistogramSample* h = merged.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  EXPECT_EQ(h->underflow, 1u);
  EXPECT_EQ(h->buckets[1], 2u);
  EXPECT_EQ(h->buckets[8], 1u);
  EXPECT_DOUBLE_EQ(h->min, -1.0);
  EXPECT_DOUBLE_EQ(h->max, 8.2);
}

// The tentpole determinism property: per-replication registries, snapshot
// each, merge in replication order — byte-identical JSON at any thread
// count.
TEST(Snapshot, MergeIsDeterministicAcrossThreadCounts) {
  const auto run_at = [](std::size_t threads) {
    const sim::ReplicationRunner runner(threads);
    const std::vector<Snapshot> snaps =
        runner.run(24, 99, [](std::uint64_t seed, std::size_t) {
          Registry registry;
          sim::Rng rng(seed);
          obs::Histogram& h = registry.histogram(
              "h", HistogramSpec::log2(0.001, 1000.0, 4));
          for (int i = 0; i < 200; ++i) {
            registry.counter("events").add();
            registry.gauge("level").set(rng.uniform(0.0, 10.0));
            h.record(rng.exponential_mean(3.0));
          }
          return registry.snapshot();
        });
    return to_json(obs::merge_snapshots(snaps));
  };
  const std::string at1 = run_at(1);
  EXPECT_EQ(at1, run_at(4));
  EXPECT_EQ(at1, run_at(8));
  EXPECT_NE(at1.find("\"events\":4800"), std::string::npos);
}

// End-to-end: the campus-day sweep's merged metrics snapshot is a pure
// function of the seeds, regardless of the worker pool size.
TEST(CampusSweep, MetricsSnapshotIdenticalAcrossThreadCounts) {
  experiments::CampusSweepConfig config;
  config.base.attendees = 10;
  config.base.squatters = 3;
  config.replications = 4;
  config.base_seed = 7;

  config.threads = 1;
  const experiments::CampusSweepResult serial = run_campus_day_sweep(config);
  config.threads = 4;
  const experiments::CampusSweepResult parallel = run_campus_day_sweep(config);

  EXPECT_EQ(to_json(serial.metrics), to_json(parallel.metrics));
  // Sanity: the snapshot actually carries the instrumented modules.
  EXPECT_NE(serial.metrics.counter("mobility.handoffs"), nullptr);
  EXPECT_NE(serial.metrics.counter("sim.events_fired"), nullptr);
  EXPECT_NE(serial.metrics.counter("resv.handoff.admitted"), nullptr);
  EXPECT_NE(serial.metrics.histogram("resv.reservation.coverage"), nullptr);
  EXPECT_EQ(serial.metrics.counters().size(), parallel.metrics.counters().size());
}

TEST(RunReport, WritesVersionedJson) {
  obs::RunReport report;
  report.tool = "obs_metrics_test";
  report.scenario = "unit";
  report.config.emplace_back("seed", "7");
  report.wall_seconds = 0.5;
  report.sim_seconds = 10.0;
  report.events_fired = 1000;
  Registry registry;
  registry.counter("c").add(2);
  report.metrics = registry.snapshot();

  std::ostringstream os;
  report.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"scenario\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"events_per_second\":2000"), std::string::npos);
  EXPECT_NE(json.find("\"c\":2"), std::string::npos);
}
