// Sharded wall-clock attribution (ISSUE 7): the profiler's shard lanes,
// barrier accounting, and Chrome-trace wall lanes must observe the run
// without perturbing it — metrics stay byte-identical with profiling off,
// runtime-disabled, or fully enabled, and the wall data lands only in the
// quarantined profile block / pid-2 trace lanes.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "experiments/campus_scale.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/tracer.h"
#include "sim/sharded_runner.h"

namespace imrm::experiments {
namespace {

/// A small grid day: 16 cells, 200 portables, 20 minutes at a 5 s tick.
CampusScaleConfig small_config(std::size_t shards) {
  CampusScaleConfig config;
  config.cells = 16;
  config.portables = 200;
  config.duration = sim::Duration::minutes(20);
  config.seed = 42;
  config.shards = shards;
  return config;
}

/// One grid day's result and the JSON of its metrics.
struct GridDay {
  CampusScaleResult result;
  std::string metrics;
};

GridDay run_with_metrics(CampusScaleConfig config) {
  obs::Registry registry;
  config.metrics = &registry;
  GridDay run{run_campus_scale_sharded(config), {}};
  std::ostringstream os;
  registry.snapshot().write_json(os);
  run.metrics = os.str();
  return run;
}

TEST(ShardedProfile, MetricsByteIdenticalAcrossProfilingModes) {
  const GridDay clean = run_with_metrics(small_config(2));
  EXPECT_TRUE(clean.result.profile.empty());
  const std::string& golden = clean.metrics;

  // Runtime-disabled profiler: config carries the pointer, but nothing is
  // armed — no profile block, identical metrics.
  obs::Profiler off;
  CampusScaleConfig off_config = small_config(2);
  off_config.profiler = &off;
  const GridDay disabled = run_with_metrics(off_config);
  EXPECT_TRUE(disabled.result.profile.empty());
  EXPECT_EQ(disabled.metrics, golden);

  obs::Profiler on;
  on.set_enabled(true);
  CampusScaleConfig on_config = small_config(2);
  on_config.profiler = &on;
  const GridDay profiled = run_with_metrics(on_config);
  EXPECT_EQ(profiled.metrics, golden);
  EXPECT_FALSE(profiled.result.profile.empty());
}

TEST(ShardedProfile, LaneAccountingIsConsistent) {
  obs::Profiler profiler;
  profiler.set_enabled(true);
  CampusScaleConfig config = small_config(2);
  config.profiler = &profiler;
  const CampusScaleResult r = run_campus_scale_sharded(config);
  const obs::ProfileSnapshot& p = r.profile;

  // One lane per worker; profiling covered the whole run, so the profile's
  // window count equals the runner's, the dispatch (barrier) count is what
  // the straggler tally partitions, and batching actually engaged: many
  // windows rode each coordinator dispatch.
  ASSERT_EQ(p.shards.size(), 2u);
  EXPECT_EQ(p.windows, r.windows);
  EXPECT_LT(p.barriers, p.windows);
  EXPECT_GT(p.barriers, 0u);
  EXPECT_EQ(p.boundary_messages, r.boundary_messages);
  EXPECT_EQ(p.boundary_bytes, 40 * p.boundary_messages);  // one row envelope each
  std::uint64_t stragglers = 0;
  for (const obs::ShardLaneSample& lane : p.shards) {
    stragglers += lane.straggler_windows;
    EXPECT_GT(lane.busy_ns + lane.barrier_wait_ns + lane.idle_ns, 0u);
  }
  EXPECT_EQ(stragglers, p.barriers);
  // The ISSUE 10 satellite regression: every lane's busy + barrier_wait +
  // idle sums to the profiled wall exactly. Before the busy-accumulation
  // fix, a burst credited only its last sub-window as busy and the equality
  // failed by the remainder of the burst.
  ASSERT_GT(p.profiled_wall_ns, 0u);
  for (const obs::ShardLaneSample& lane : p.shards) {
    EXPECT_EQ(lane.busy_ns + lane.barrier_wait_ns + lane.idle_ns,
              p.profiled_wall_ns);
  }
  // Every lane spans the same wall interval per dispatch: busy +
  // barrier_wait always sums to the dispatch wall, identically across
  // lanes, and idle is charged to all lanes alike.
  EXPECT_EQ(p.shards[0].busy_ns + p.shards[0].barrier_wait_ns,
            p.shards[1].busy_ns + p.shards[1].barrier_wait_ns);
  EXPECT_EQ(p.shards[0].idle_ns, p.shards[1].idle_ns);
  // The window/messages histograms saw every sub-window; the batch
  // histogram and the exchange/window phases were recorded once per
  // dispatch.
  EXPECT_EQ(p.window_ns.count, p.windows);
  EXPECT_EQ(p.messages_per_barrier.count, p.windows);
  EXPECT_EQ(p.batch_windows.count, p.barriers);
  EXPECT_EQ(std::uint64_t(p.batch_windows.sum), p.windows);
  bool saw_window_phase = false;
  for (const obs::PhaseSample& phase : p.phases) {
    if (phase.name == "shard.window") {
      saw_window_phase = true;
      EXPECT_EQ(phase.calls, p.barriers);
    }
  }
  EXPECT_TRUE(saw_window_phase);
}

TEST(ShardedProfile, WallLanesLandOnShardPidOnly) {
  obs::Profiler profiler;
  profiler.set_enabled(true);
  obs::Tracer tracer(1 << 20);
  tracer.set_enabled(true);
  CampusScaleConfig config = small_config(2);
  config.profiler = &profiler;
  config.tracer = &tracer;
  const CampusScaleResult r = run_campus_scale_sharded(config);
  ASSERT_EQ(tracer.dropped(), 0u);

  const std::size_t workers = 2;
  std::uint64_t busy_spans = 0;
  std::uint64_t barrier_spans = 0;
  tracer.records().for_each([&](const obs::TraceRecord& rec) {
    // The grid emits no simulated-time records, so everything here is a
    // coordinator-written wall span on the shard-lane pid.
    EXPECT_EQ(rec.pid, sim::ShardedRunner::kShardLanePid);
    EXPECT_EQ(rec.phase, 'X');
    EXPECT_LE(rec.track, workers);
    if (rec.track == workers) {
      EXPECT_EQ(tracer.name_of(rec.name), "shard.barrier");
      ++barrier_spans;
    } else {
      EXPECT_EQ(tracer.name_of(rec.name), "shard.busy");
      ++busy_spans;
    }
  });
  // One coordinator barrier span and one busy span per worker per dispatch
  // (not per window — a burst's sub-windows share one set of spans).
  EXPECT_EQ(barrier_spans, r.profile.barriers);
  EXPECT_EQ(busy_spans, r.profile.barriers * workers);
  EXPECT_LT(barrier_spans, r.windows);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("imrm-shard-lanes"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
}

TEST(ShardedProfile, TracerWithoutProfilerRecordsNothing) {
  // Wall lanes require the profiler: --trace-out without --profile must
  // yield byte-identical trace output to an untraced-by-the-runner run.
  obs::Tracer tracer;
  tracer.set_enabled(true);
  CampusScaleConfig config = small_config(2);
  config.tracer = &tracer;
  const CampusScaleResult r = run_campus_scale_sharded(config);
  EXPECT_GT(r.events, 0u);
  EXPECT_EQ(tracer.records().size(), 0u);

  std::ostringstream with_runner, fresh;
  tracer.write_chrome_trace(with_runner);
  obs::Tracer untouched;
  untouched.write_chrome_trace(fresh);
  EXPECT_EQ(with_runner.str(), fresh.str());
}

TEST(ShardedProfile, ProgressHeartbeatReportsStraggler) {
  obs::Profiler profiler;
  profiler.set_enabled(true);
  std::ostringstream heartbeat;
  obs::ProgressMeter progress(1e-9, &heartbeat);  // emit on every poll
  CampusScaleConfig config = small_config(2);
  config.profiler = &profiler;
  config.progress = &progress;
  (void)run_campus_scale_sharded(config);
  const std::string lines = heartbeat.str();
  EXPECT_NE(lines.find("progress:"), std::string::npos);
  EXPECT_NE(lines.find("% sim-time"), std::string::npos);
  EXPECT_NE(lines.find("straggler shard"), std::string::npos);
}

// The profile counts the bursts an unprofiled run dispatches: the adaptive
// batch rule reads no clock, so arming the profiler leaves the burst
// sequence alone. The 100-cell x 10k-portable day's dispatches run for
// milliseconds each, long enough that a wall-fed rule would steer them.
TEST(ShardedProfile, ProfiledDayDispatchesTheUnprofiledBursts) {
  CampusScaleConfig config;
  config.cells = 100;
  config.portables = 10000;
  config.seed = 1;
  for (const std::size_t shards : {std::size_t(1), std::size_t(2)}) {
    config.shards = shards;
    config.profiler = nullptr;
    const CampusScaleResult clean = run_campus_scale_sharded(config);
    obs::Profiler profiler;
    profiler.set_enabled(true);
    config.profiler = &profiler;
    const CampusScaleResult profiled = run_campus_scale_sharded(config);
    EXPECT_EQ(profiled.profile.barriers, clean.dispatches) << "shards=" << shards;
    EXPECT_EQ(profiled.dispatches, clean.dispatches) << "shards=" << shards;
    EXPECT_EQ(profiled.windows, clean.windows) << "shards=" << shards;
  }
}

TEST(ShardedProfile, SingleShardStillProfiles) {
  obs::Profiler profiler;
  profiler.set_enabled(true);
  CampusScaleConfig config = small_config(1);
  config.profiler = &profiler;
  const CampusScaleResult r = run_campus_scale_sharded(config);
  ASSERT_EQ(r.profile.shards.size(), 1u);
  EXPECT_EQ(r.profile.shards[0].straggler_windows, r.profile.barriers);
  EXPECT_GT(r.profile.shards[0].busy_ns, 0u);
}

}  // namespace
}  // namespace imrm::experiments
