// Sharded multi-cell campus scenario (ISSUE 5).
//
// Where campus_day.cc models one meeting room in a single simulator, this
// harness scales the other axis: a corridor of N cells, each with its own
// portable population, executed as N sim::ShardedRunner domains. All
// cross-cell traffic — corridor handoffs, remote-bandwidth admission probes
// and their accept/reject/release signaling — travels as one 24-byte
// boundary row type through ShardedRunner::post_row, with latency
// proportional to the corridor hop count, so the conservative window equals
// one hop.
//
// The scenario exercises the paper's admission/handoff mechanics at campus
// scale: portables alternate idle and active periods; an active session
// either consumes local cell bandwidth or (with cross_call_probability)
// probes a remote cell for bandwidth, which the remote cell grants as a
// *lease*; a fraction of remote sessions are abandoned without an explicit
// release (the portable left coverage), so every cell runs a periodic lease
// sweep — FlatMap::erase_if over the lease ledger — to reclaim the
// bandwidth. At session end a portable may roam to a neighboring cell,
// continuing the session there if that cell can admit it (else the session
// drops: Figure 6's drop-vs-block tension at corridor scale).
//
// Determinism contract: per-cell RNG streams (replication_seed(seed, cell)),
// per-cell metric registries, and the runner's canonical boundary-message
// order make every output — including the folded metrics JSON — byte-
// identical for any shard/worker count. The fold is a flat left-fold over
// per-cell snapshots in cell order (never grouped per worker), because
// Snapshot::merge sums gauge doubles and float addition is not associative.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/tracer.h"
#include "sim/time.h"

namespace imrm::experiments {

struct ShardedCampusConfig {
  std::size_t cells = 24;            ///< corridor cells = runner domains
  std::size_t shards = 1;            ///< worker threads (execution only; 0 = hw)
  std::size_t portables_per_cell = 8;
  double cell_capacity_bps = 1.6e6;  ///< paper's 1.6 Mb/s picocell
  double session_bandwidth_bps = 96e3;
  sim::Duration session_mean = sim::Duration::minutes(6);
  sim::Duration idle_mean = sim::Duration::minutes(4);
  double roam_probability = 0.35;    ///< roam to a neighbor at session end
  double cross_call_probability = 0.30;  ///< session needs remote bandwidth
  double abandon_probability = 0.05;     ///< remote lease never released
  sim::Duration hop_latency = sim::Duration::millis(5);  ///< = window width
  sim::Duration lease_sweep_period = sim::Duration::seconds(30);
  sim::SimTime horizon = sim::SimTime::hours(4);
  std::uint64_t seed = 5;
  /// Windows per coordinator dispatch (0 = adaptive controller). Purely an
  /// execution knob: results are byte-identical for any value (ISSUE 10).
  std::size_t batch = 0;
  /// Optional wall-clock profiling / trace lanes / progress heartbeat,
  /// forwarded to the sim::ShardedRunner (see its Config for semantics).
  /// All observation-only: metrics bytes are identical with or without.
  obs::Profiler* profiler = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::ProgressMeter* progress = nullptr;
};

struct ShardedCampusResult {
  // Engine totals.
  std::uint64_t events_fired = 0;
  std::uint64_t windows = 0;            ///< conservative rounds executed
  std::uint64_t boundary_messages = 0;  ///< cross-cell messages delivered
  // Scenario outcome sums (also present as counters in `metrics`).
  std::uint64_t admits = 0;
  std::uint64_t blocks = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t handoff_drops = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_rejected = 0;
  std::uint64_t lease_reclaims = 0;
  /// Per-cell snapshots folded in cell order, plus the runner's shard.*
  /// counters. Byte-identical JSON for any `shards` value.
  obs::Snapshot metrics;
  /// Wall-clock attribution (empty unless config.profiler was enabled):
  /// per-shard busy/barrier-wait/idle lanes, barrier count, boundary bytes,
  /// window histograms. Lives outside `metrics` — wall numbers vary per run
  /// and per shard count, so determinism checks must never hash them.
  obs::ProfileSnapshot profile;
};

[[nodiscard]] ShardedCampusResult run_sharded_campus(const ShardedCampusConfig& config);

}  // namespace imrm::experiments
