// Tests for the wall-clock profiler (ISSUE 7): interning, scoped phase
// attribution with self-time, external record(), snapshot/merge semantics,
// the disabled and overflow paths, and the schema-v2 report boundary (the
// `profile` block appears exactly when profiling produced data).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/profiler.h"
#include "obs/report.h"

using namespace imrm;
using obs::PhaseId;
using obs::Profiler;
using obs::ProfileSnapshot;

namespace {

// Burns wall time until the steady clock has visibly advanced, so scoped
// durations are strictly positive without sleeping.
void spin_at_least(std::uint64_t ns) {
  const std::uint64_t start = Profiler::now_ns();
  while (Profiler::now_ns() - start < ns) {
  }
}

std::string report_json(const obs::RunReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

}  // namespace

TEST(Profiler, InternIsIdempotentAndDense) {
  Profiler profiler;
  const PhaseId a = profiler.intern("alpha");
  const PhaseId b = profiler.intern("beta");
  EXPECT_EQ(profiler.intern("alpha"), a);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(profiler.phase_count(), 2u);
  EXPECT_EQ(profiler.name_of(a), "alpha");
}

TEST(Profiler, StartsDisabledAndRecordsNothing) {
  Profiler profiler;
  EXPECT_FALSE(profiler.enabled());
  const PhaseId p = profiler.intern("p");
  profiler.begin(p);
  spin_at_least(1000);
  profiler.end(p);
  profiler.record(p, 12345);
  EXPECT_TRUE(profiler.snapshot().empty());
}

TEST(Profiler, EnabledTracksSetEnabled) {
  Profiler profiler;
  profiler.set_enabled(true);
  EXPECT_TRUE(profiler.enabled());
  profiler.set_enabled(false);
  EXPECT_FALSE(profiler.enabled());
}

TEST(Profiler, ScopeAttributesSelfTimeExactly) {
  Profiler profiler;
  profiler.set_enabled(true);
  const PhaseId outer = profiler.intern("outer");
  const PhaseId inner = profiler.intern("inner");
  {
    Profiler::Scope o(&profiler, outer);
    spin_at_least(20'000);
    {
      Profiler::Scope i(&profiler, inner);
      spin_at_least(20'000);
    }
    spin_at_least(20'000);
  }
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_EQ(snap.phases.size(), 2u);
  // Name-sorted: "inner" before "outer".
  EXPECT_EQ(snap.phases[0].name, "inner");
  EXPECT_EQ(snap.phases[1].name, "outer");
  const auto& in = snap.phases[0];
  const auto& out = snap.phases[1];
  EXPECT_EQ(in.calls, 1u);
  EXPECT_EQ(out.calls, 1u);
  EXPECT_GT(in.total_ns, 0u);
  EXPECT_GE(out.total_ns, in.total_ns);
  // The child's measured duration is exactly what the parent frame logged
  // as child time, so the identity holds without tolerance.
  EXPECT_EQ(out.self_ns, out.total_ns - in.total_ns);
  EXPECT_EQ(in.self_ns, in.total_ns);
}

TEST(Profiler, RecordAccumulatesAndTracksPerCallExtremes) {
  Profiler profiler;
  profiler.set_enabled(true);
  const PhaseId p = profiler.intern("ext");
  profiler.record(p, 100);
  profiler.record(p, 900, 3);  // 300 ns per call
  profiler.record(p, 50);
  profiler.record(p, 0, 0);  // zero calls: ignored
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_EQ(snap.phases.size(), 1u);
  EXPECT_EQ(snap.phases[0].calls, 5u);
  EXPECT_EQ(snap.phases[0].total_ns, 1050u);
  EXPECT_EQ(snap.phases[0].self_ns, 1050u);
  EXPECT_EQ(snap.phases[0].min_ns, 50u);
  EXPECT_EQ(snap.phases[0].max_ns, 300u);
}

TEST(Profiler, SnapshotOmitsNeverBegunPhases) {
  Profiler profiler;
  profiler.set_enabled(true);
  profiler.intern("never");
  const PhaseId used = profiler.intern("used");
  profiler.record(used, 7);
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_EQ(snap.phases.size(), 1u);
  EXPECT_EQ(snap.phases[0].name, "used");
}

TEST(Profiler, OverflowBeyondMaxDepthIsTolerated) {
  Profiler profiler;
  profiler.set_enabled(true);
  const PhaseId p = profiler.intern("deep");
  constexpr std::size_t kOver = Profiler::kMaxDepth + 8;
  for (std::size_t i = 0; i < kOver; ++i) profiler.begin(p);
  for (std::size_t i = 0; i < kOver; ++i) profiler.end(p);
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_EQ(snap.phases.size(), 1u);
  // Only the frames that fit in the stack were timed; the overflow frames
  // were counted through the depth counter and dropped on end().
  EXPECT_EQ(snap.phases[0].calls, std::uint64_t(Profiler::kMaxDepth));
}

TEST(Profiler, UnmatchedEndIsIgnored) {
  Profiler profiler;
  profiler.set_enabled(true);
  const PhaseId p = profiler.intern("p");
  profiler.end(p);  // nothing open
  EXPECT_TRUE(profiler.snapshot().empty());
}

TEST(ProfileSnapshot, MergeFoldsPhasesAndAdoptsShardSection) {
  Profiler a;
  a.set_enabled(true);
  a.record(a.intern("shared"), 100);
  a.record(a.intern("only_a"), 10);
  Profiler b;
  b.set_enabled(true);
  b.record(b.intern("shared"), 300);
  b.record(b.intern("only_b"), 20);

  ProfileSnapshot merged = a.snapshot();
  ProfileSnapshot other = b.snapshot();
  other.shards.resize(2);
  other.barriers = 5;
  merged.merge(other);

  ASSERT_EQ(merged.phases.size(), 3u);
  EXPECT_EQ(merged.phases[0].name, "only_a");
  EXPECT_EQ(merged.phases[1].name, "only_b");
  EXPECT_EQ(merged.phases[2].name, "shared");
  EXPECT_EQ(merged.phases[2].calls, 2u);
  EXPECT_EQ(merged.phases[2].total_ns, 400u);
  EXPECT_EQ(merged.phases[2].min_ns, 100u);
  EXPECT_EQ(merged.phases[2].max_ns, 300u);
  EXPECT_EQ(merged.shards.size(), 2u);
  EXPECT_EQ(merged.barriers, 5u);
}

TEST(ProfileSnapshot, WriteJsonNamesSteadyClockAndPhases) {
  Profiler profiler;
  profiler.set_enabled(true);
  profiler.record(profiler.intern("phase.one"), 1000, 2);
  std::ostringstream os;
  profiler.snapshot().write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"clock\":\"steady\""), std::string::npos);
  EXPECT_NE(json.find("\"phase.one\""), std::string::npos);
  EXPECT_NE(json.find("\"calls\":2"), std::string::npos);
}

TEST(RunReport, ProfileBlockPresentExactlyWhenNonEmpty) {
  obs::RunReport report;
  report.tool = "test";
  report.scenario = "unit";
  report.wall_seconds = 1.0;
  const std::string without = report_json(report);
  EXPECT_EQ(without.find("\"profile\""), std::string::npos);
  EXPECT_NE(without.find("\"schema_version\":5"), std::string::npos);

  Profiler profiler;
  profiler.set_enabled(true);
  profiler.record(profiler.intern("p"), 42);
  report.profile = profiler.snapshot();
  const std::string with = report_json(report);
  EXPECT_NE(with.find("\"profile\""), std::string::npos);
  // The metrics section bytes are identical either way: wall data is
  // quarantined in the profile block.
  const auto metrics_tail = [](const std::string& s) {
    return s.substr(s.find("\"metrics\""));
  };
  EXPECT_EQ(metrics_tail(without), metrics_tail(with));
}

TEST(Profiler, NullScopeIsSafe) {
  const PhaseId id = 3;
  Profiler::Scope scope(nullptr, id);
}
