// The grid campus at scale: N cells on a scale_grid_floorplan grid and M
// portables on a generated class-schedule day (scale_workload.h), run by one
// engine, run_campus_scale_sharded (campus_scale_sharded.cc). Each cell is a
// sim::ShardedRunner domain. Milestones fire in per-cell tick handlers,
// walkers travel as boundary messages with one tick of latency, and admission
// and reservation state is cell-local. The engine is its own oracle: every
// output is byte-identical for any shard or batch count (the runner's
// contract). Advance reservations follow the walking route, not the paper's
// three-level prediction, which reads state no single cell owns (see
// DESIGN.md "The sharded grid campus").
#pragma once

#include <cstddef>
#include <cstdint>

#include "mobility/floorplan.h"
#include "obs/profiler.h"
#include "sim/time.h"

namespace imrm::obs {
class Registry;
class ProgressMeter;
class Tracer;
}  // namespace imrm::obs

namespace imrm::experiments {

struct CampusScaleConfig {
  std::size_t cells = 100;
  std::size_t portables = 1000;
  sim::Duration duration = sim::Duration::seconds(3600);
  /// Scheduler tick; a walking portable advances one cell per tick.
  sim::Duration tick = sim::Duration::seconds(5);
  double cell_capacity_bps = 1.6e6;
  std::uint64_t seed = 5;
  /// Optional metric registry: scale.* counters and gauges, the runner's
  /// shard.windows / shard.boundary_messages, and the sim.time_seconds /
  /// sim.events_fired pair the CLI report reads.
  obs::Registry* metrics = nullptr;
  /// Optional wall-clock attribution: shard lanes and dispatch/window
  /// histograms land in CampusScaleResult::profile. Observation-only —
  /// decisions, the outcome hash, and all metrics are identical with
  /// profiling on or off.
  obs::Profiler* profiler = nullptr;
  /// Optional stderr heartbeat, polled once per coordinator dispatch, with
  /// straggler attribution.
  obs::ProgressMeter* progress = nullptr;
  /// Execution knobs. `shards` is the worker-thread count (0 = all hardware
  /// threads) — execution only, results are byte-identical for any value.
  /// `batch` is windows per coordinator dispatch (0 = adaptive), equally
  /// result-invariant. `tracer` receives the runner's wall lanes when
  /// profiling.
  std::size_t shards = 1;
  std::size_t batch = 0;
  obs::Tracer* tracer = nullptr;
};

struct CampusScaleResult {
  std::uint64_t events = 0;  // milestones fired + handoffs processed
  std::uint64_t ticks = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t new_admitted = 0;
  std::uint64_t new_blocked = 0;
  std::uint64_t handoff_admitted = 0;
  std::uint64_t handoff_dropped = 0;
  /// Routed advance reservations: sent two hops ahead of a connected
  /// walker; consumed by their owner's handoff admission in that cell; and
  /// cancel messages sent when the owner left the route first. A placed
  /// reservation that found its cell full is neither consumed nor parked,
  /// and its cancel, if any, finds nothing.
  std::uint64_t reservations_placed = 0;
  std::uint64_t reservations_consumed = 0;
  std::uint64_t reservations_cancelled = 0;
  /// Reservations still parked in some cell when the run ends: 0 when every
  /// parked reservation was consumed or cancelled. Not a metric.
  std::uint64_t reservations_parked_at_end = 0;
  std::uint64_t departures = 0;
  /// Heap footprint of all live state: the generated workload, the per-cell
  /// states, their resident rows and reservation tables.
  std::size_t state_bytes = 0;
  double bytes_per_portable = 0.0;
  /// Order-sensitive digest of every admission decision: per-cell digests
  /// folded in cell order, so equal across shard/batch counts.
  std::uint64_t outcome_hash = 0;
  /// Runner execution totals. `windows` and `boundary_messages` are
  /// batch/shard-invariant; `dispatches` is a pure execution statistic (varies with `batch` and the
  /// adaptive controller) and must never feed golden outputs.
  std::uint64_t windows = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t boundary_messages = 0;
  /// Wall-clock attribution (only when config.profiler was enabled): shard
  /// lanes, dispatch/window histograms. Quarantined from `outcome_hash` and
  /// the metric counters.
  obs::ProfileSnapshot profile;
};

/// Builds the grid floorplan the grid campus runs on: side = ceil(sqrt(N))
/// columns, every third row a corridor (horizontal edges on row 0 only, the
/// backbone), other rows offices/meeting rooms/cafeterias, vertical edges
/// everywhere. Deterministic; exposed for tests.
[[nodiscard]] mobility::CellMap scale_grid_floorplan(std::size_t cells);

/// The grid campus executed through sim::ShardedRunner: one domain per cell
/// (the runner's contiguous worker-block assignment is the cell→shard
/// partitioner), window = config.tick, every cross-cell interaction — a
/// walking portable, an advance reservation, the cancel of a reservation
/// whose owner left the route — a boundary message with one-tick latency.
/// A reservation its owner reaches is consumed by the owner's handoff
/// admission and costs no further message. Deterministic and byte-identical
/// for any (shards, batch).
[[nodiscard]] CampusScaleResult run_campus_scale_sharded(
    const CampusScaleConfig& config);

}  // namespace imrm::experiments
