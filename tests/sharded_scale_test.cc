// run_campus_scale_sharded: the grid campus executed as one ShardedRunner
// domain per cell. The engine is its own oracle — the contract under test is
// byte-identity of every result field and of the exported metrics JSON
// across all (shards, batch) pairs, plus metrics that agree with the result
// at every grid size. campus_scale_test covers the floorplan and workload.
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "experiments/campus_scale.h"
#include "obs/metrics.h"

namespace imrm::experiments {
namespace {

CampusScaleConfig small_config(std::size_t cells = 25) {
  CampusScaleConfig config;
  config.cells = cells;
  config.portables = 200;
  config.duration = sim::Duration::seconds(1200);
  config.tick = sim::Duration::seconds(5);
  config.seed = 7;
  return config;
}

struct Outcome {
  CampusScaleResult result;
  obs::Snapshot metrics;
  std::string metrics_json;
};

Outcome run(CampusScaleConfig config) {
  obs::Registry registry;
  config.metrics = &registry;
  Outcome out;
  out.result = run_campus_scale_sharded(config);
  out.metrics = registry.snapshot();
  std::ostringstream os;
  out.metrics.write_json(os);
  out.metrics_json = os.str();
  return out;
}

Outcome run(std::size_t shards, std::size_t batch, std::size_t cells = 25) {
  CampusScaleConfig config = small_config(cells);
  config.shards = shards;
  config.batch = batch;
  return run(config);
}

/// The exported counters and gauges carry exactly the result's totals.
void expect_metrics_match_result(const Outcome& out, const std::string& label) {
  const CampusScaleResult& r = out.result;
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"scale.events", r.events},
      {"scale.ticks", r.ticks},
      {"scale.handoffs", r.handoffs},
      {"scale.new.admitted", r.new_admitted},
      {"scale.new.blocked", r.new_blocked},
      {"scale.handoff.admitted", r.handoff_admitted},
      {"scale.handoff.dropped", r.handoff_dropped},
      {"scale.reservations", r.reservations_placed},
      {"scale.reservations.consumed", r.reservations_consumed},
      {"scale.reservations.cancelled", r.reservations_cancelled},
      {"scale.departures", r.departures},
      {"sim.events_fired", r.events},
      {"shard.windows", r.windows},
      {"shard.boundary_messages", r.boundary_messages},
  };
  for (const auto& [name, value] : counters) {
    const obs::CounterSample* c = out.metrics.counter(name);
    ASSERT_NE(c, nullptr) << name << " " << label;
    EXPECT_EQ(c->value, value) << name << " " << label;
  }
  const std::pair<const char*, double> gauges[] = {
      {"scale.state_bytes", double(r.state_bytes)},
      {"scale.bytes_per_portable", r.bytes_per_portable},
      {"sim.time_seconds", small_config().duration.to_seconds()},
  };
  for (const auto& [name, value] : gauges) {
    const obs::GaugeSample* g = out.metrics.gauge(name);
    ASSERT_NE(g, nullptr) << name << " " << label;
    EXPECT_DOUBLE_EQ(g->value, value) << name << " " << label;
  }
}

TEST(ShardedScale, ByteIdenticalAcrossShardAndBatchCounts) {
  const Outcome base = run(/*shards=*/1, /*batch=*/1);
  ASSERT_GT(base.result.events, 0u);
  ASSERT_GT(base.result.handoffs, 0u);
  for (const std::size_t shards : {std::size_t(1), std::size_t(2), std::size_t(4)}) {
    for (const std::size_t batch : {std::size_t(1), std::size_t(8),
                                    std::size_t(64), std::size_t(0)}) {
      const Outcome got = run(shards, batch);
      const std::string label =
          "shards=" + std::to_string(shards) + " batch=" + std::to_string(batch);
      EXPECT_EQ(got.result.outcome_hash, base.result.outcome_hash) << label;
      EXPECT_EQ(got.result.events, base.result.events) << label;
      EXPECT_EQ(got.result.handoffs, base.result.handoffs) << label;
      EXPECT_EQ(got.result.new_admitted, base.result.new_admitted) << label;
      EXPECT_EQ(got.result.new_blocked, base.result.new_blocked) << label;
      EXPECT_EQ(got.result.handoff_admitted, base.result.handoff_admitted) << label;
      EXPECT_EQ(got.result.handoff_dropped, base.result.handoff_dropped) << label;
      EXPECT_EQ(got.result.reservations_placed, base.result.reservations_placed)
          << label;
      EXPECT_EQ(got.result.reservations_consumed, base.result.reservations_consumed)
          << label;
      EXPECT_EQ(got.result.reservations_cancelled, base.result.reservations_cancelled)
          << label;
      EXPECT_EQ(got.result.departures, base.result.departures) << label;
      // Execution-invariant runner totals: the window sequence and boundary
      // traffic are part of the determinism contract...
      EXPECT_EQ(got.result.windows, base.result.windows) << label;
      EXPECT_EQ(got.result.boundary_messages, base.result.boundary_messages)
          << label;
      // ...and the exported metrics (which include shard.windows /
      // shard.boundary_messages but deliberately NOT dispatches) must render
      // to the same bytes.
      EXPECT_EQ(got.metrics_json, base.metrics_json) << label;
      expect_metrics_match_result(got, label);
    }
  }
}

TEST(ShardedScale, EveryPortableAppearsAndDeparts) {
  for (const std::size_t cells : {2u, 3u, 10u, 25u, 50u, 100u, 1000u}) {
    const std::string label = std::to_string(cells) + " cells";
    const Outcome out = run(2, 0, cells);
    EXPECT_EQ(out.result.departures, small_config().portables) << label;
    // Every departure was preceded by an appear-admission attempt.
    EXPECT_EQ(out.result.new_admitted + out.result.new_blocked,
              small_config().portables)
        << label;
    EXPECT_GT(out.result.handoffs, 0u) << label;
    EXPECT_GT(out.result.bytes_per_portable, 0.0) << label;
    expect_metrics_match_result(out, label);
  }
}

TEST(ShardedScale, DispatchesVaryWithBatchButNeverLeak) {
  // dispatches is the one execution-dependent statistic: batch=1 pays one
  // coordinator dispatch per populated burst, batch=64 collapses them. It
  // lives in CampusScaleResult for the bench harness but must stay out of
  // the metrics registry — asserted here so a future edit can't silently
  // turn an execution knob into a golden output.
  const Outcome unbatched = run(2, 1);
  const Outcome batched = run(2, 64);
  EXPECT_GT(unbatched.result.dispatches, batched.result.dispatches);
  EXPECT_EQ(unbatched.metrics_json, batched.metrics_json);
  EXPECT_EQ(unbatched.metrics_json.find("dispatch"), std::string::npos);
}

// The grid's boundary rows are its hops, its routed reservations and their
// cancels, one row each: a reservation its owner consumes costs no cancel.
TEST(ShardedScale, BoundaryRowsAreHopsReservationsAndCancels) {
  for (const std::size_t shards : {std::size_t(1), std::size_t(2), std::size_t(4)}) {
    for (const std::size_t batch : {std::size_t(1), std::size_t(0)}) {
      const CampusScaleResult r = run(shards, batch).result;
      const std::string label =
          "shards=" + std::to_string(shards) + " batch=" + std::to_string(batch);
      ASSERT_GT(r.reservations_placed, 0u) << label;
      EXPECT_EQ(r.boundary_messages,
                r.handoffs + r.reservations_placed + r.reservations_cancelled)
          << label;
    }
  }
}

// A reservation parked two hops ahead waits for its owner, who consumes it on
// arrival (Section 5.1); one the owner no longer needs is cancelled. Either
// way no cell still holds one when the day is over.
TEST(ShardedScale, WalkersConsumeTheirReservations) {
  for (const std::size_t shards : {std::size_t(1), std::size_t(2), std::size_t(4)}) {
    for (const std::size_t batch : {std::size_t(1), std::size_t(0)}) {
      const CampusScaleResult r = run(shards, batch).result;
      const std::string label =
          "shards=" + std::to_string(shards) + " batch=" + std::to_string(batch);
      EXPECT_GT(r.reservations_consumed, 0u) << label;
      EXPECT_LE(r.reservations_consumed + r.reservations_cancelled, r.reservations_placed)
          << label;
      EXPECT_EQ(r.reservations_parked_at_end, 0u) << label;
    }
  }
}

// Two runs of one layout render the same bytes at the adaptive batch.
TEST(ShardedScale, RepeatedRunsAreByteIdentical) {
  const Outcome a = run(4, 0);
  const Outcome b = run(4, 0);
  EXPECT_EQ(a.result.outcome_hash, b.result.outcome_hash);
  EXPECT_EQ(a.result.windows, b.result.windows);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(ShardedScale, ScenarioInvariantsHold) {
  const CampusScaleResult r = run(2, 0).result;
  ASSERT_EQ(r.departures, small_config().portables);
  // Every portable fires its four milestones and every hop is processed
  // once at its destination; nothing else counts as an event.
  EXPECT_EQ(r.events, r.handoffs + 4 * r.departures);
  // Only a connected walker asks for handoff admission, and it is admitted
  // or dropped.
  EXPECT_GT(r.handoff_admitted, 0u);
  EXPECT_LE(r.handoff_admitted + r.handoff_dropped, r.handoffs);
  // A reservation is consumed or cancelled at most once.
  EXPECT_LE(r.reservations_consumed, r.reservations_placed);
  EXPECT_LE(r.reservations_cancelled, r.reservations_placed);
  // Conservative windows carried every cross-cell row.
  EXPECT_GT(r.ticks, 0u);
  EXPECT_GT(r.windows, 0u);
  EXPECT_GT(r.boundary_messages, 0u);
}

// The finest layout the CLI accepts, one shard per cell, decides as one
// shard does.
TEST(ShardedScale, OneShardPerCellMatchesOneShard) {
  for (const std::size_t cells : {std::size_t(2), std::size_t(4), std::size_t(9)}) {
    const std::string label = std::to_string(cells) + " cells";
    const Outcome one = run(1, 1, cells);
    const Outcome each = run(cells, 0, cells);
    ASSERT_GT(one.result.handoffs, 0u) << label;
    EXPECT_EQ(each.result.outcome_hash, one.result.outcome_hash) << label;
    EXPECT_EQ(each.result.windows, one.result.windows) << label;
    EXPECT_EQ(each.metrics_json, one.metrics_json) << label;
  }
}

// 400 portables on a 7-cell grid, where an office is also the cell outside
// a meeting room: attendees settled there hold their bandwidth, so new
// connections block and handoffs drop. Every portable still departs, and the
// contended decisions are the same at any worker count.
TEST(ShardedScale, OversubscribedGridBlocksAndDropsDeterministically) {
  CampusScaleConfig config = small_config(7);
  config.portables = 400;
  config.shards = 1;
  config.batch = 1;
  const Outcome base = run(config);
  EXPECT_GT(base.result.new_blocked, 0u);
  EXPECT_GT(base.result.handoff_dropped, 0u);
  EXPECT_EQ(base.result.departures, config.portables);
  EXPECT_EQ(base.result.reservations_parked_at_end, 0u);
  config.shards = 4;
  config.batch = 0;
  const Outcome got = run(config);
  EXPECT_EQ(got.result.outcome_hash, base.result.outcome_hash);
  EXPECT_EQ(got.metrics_json, base.metrics_json);
}

TEST(ShardedScale, SeedChangesOutcome) {
  obs::Registry registry;
  CampusScaleConfig config = small_config();
  config.seed = 8;
  const CampusScaleResult other = run_campus_scale_sharded(config);
  EXPECT_NE(other.outcome_hash, run(1, 1).result.outcome_hash);
}

}  // namespace
}  // namespace imrm::experiments
