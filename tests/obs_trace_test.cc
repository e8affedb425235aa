// Tests for the structured tracer: ring-buffer eviction accounting, name
// interning, runtime/compile-time gating, and a golden-file check of the
// Chrome trace_event JSON export (tests/golden/chrome_trace_golden.json —
// regenerate by running the GoldenFile test with IMRM_REGEN_GOLDEN=1 in the
// environment).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/ring_buffer.h"
#include "obs/tracer.h"
#include "sim/time.h"

using namespace imrm;
using obs::Tracer;
using sim::SimTime;

TEST(RingBuffer, UnboundedAppends) {
  obs::RingBuffer<int> ring;
  for (int i = 0; i < 100; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 100u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring[0], 0);
  EXPECT_EQ(ring[99], 99);
}

TEST(RingBuffer, BoundedEvictsOldest) {
  obs::RingBuffer<int> ring(4);
  for (int i = 0; i < 7; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 3u);
  // Chronological order, oldest retained first.
  EXPECT_EQ(ring[0], 3);
  EXPECT_EQ(ring[3], 6);
  const auto v = ring.to_vector();
  EXPECT_EQ(v, (std::vector<int>{3, 4, 5, 6}));
}

TEST(Tracer, InternIsIdempotent) {
  Tracer tracer;
  const obs::NameId a = tracer.intern("handoff", "mobility");
  const obs::NameId b = tracer.intern("handoff", "mobility");
  const obs::NameId c = tracer.intern("handoff", "maxmin");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(tracer.name_of(a), "handoff");
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  const obs::NameId name = tracer.intern("x");
  ASSERT_FALSE(tracer.enabled());  // tracers start disabled
  tracer.instant(SimTime::seconds(1), name);
  tracer.counter(SimTime::seconds(2), name, 5.0);
  EXPECT_EQ(tracer.records().size(), 0u);
}

TEST(Tracer, BoundedCapacityCountsDrops) {
  Tracer tracer(3);
  tracer.set_enabled(true);
  const obs::NameId name = tracer.intern("e");
  for (int i = 0; i < 5; ++i) {
    tracer.instant(SimTime::seconds(double(i)), name, 0, double(i));
  }
  EXPECT_EQ(tracer.records().size(), 3u);
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_DOUBLE_EQ(tracer.records()[0].value, 2.0);  // oldest retained

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"dropped_records\":2"), std::string::npos);
}

namespace {

/// The deterministic trace behind the golden file: one of each record kind.
void record_golden_trace(Tracer& tracer) {
  tracer.set_enabled(true);
  const obs::NameId round = tracer.intern("adaptation-round", "maxmin");
  const obs::NameId update = tracer.intern("update", "maxmin");
  const obs::NameId queue = tracer.intern("queue_depth", "sim");
  tracer.instant(SimTime::seconds(0.5), update, 3, 64000.0);
  tracer.complete(SimTime::seconds(1.0), SimTime::seconds(1.25), round, 2, 128000.0);
  tracer.counter(SimTime::seconds(2.0), queue, 17.0);
}

}  // namespace

TEST(Tracer, ChromeTraceMatchesGoldenFile) {
  Tracer tracer;
  record_golden_trace(tracer);
  std::ostringstream os;
  tracer.write_chrome_trace(os);

  const std::string path = std::string(IMRM_GOLDEN_DIR) + "/chrome_trace_golden.json";
  if (std::getenv("IMRM_REGEN_GOLDEN") != nullptr) {
    std::ofstream regen(path);
    ASSERT_TRUE(regen.is_open());
    regen << os.str();
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(os.str(), expected.str());
}

TEST(Tracer, ChromeTraceIsWellFormedSkeleton) {
  Tracer tracer;
  record_golden_trace(tracer);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"maxmin\""), std::string::npos);
  // No eviction occurred, so no dropped-records metadata.
  EXPECT_EQ(json.find("dropped_records"), std::string::npos);
}
