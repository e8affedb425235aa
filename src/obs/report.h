// Machine-readable run report.
//
// The versioned JSON document that every experiment front end (notably
// examples/scenario_cli --metrics-json) emits after a run: which scenario
// ran with which configuration, how long it took in wall and simulated
// time, the event throughput, and the full metrics snapshot. Downstream
// tooling (tools/validate_report.py and the tools/check_*.py contract
// tests) keys on schema_version, so bump it on any breaking layout change.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace imrm::obs {

/// Service-mode summary (schema v3): what the admission-control service did
/// under a driven load — offered/processed/shed conservation, rates, the
/// latency percentiles, and the SLO verdict. Written as a `service` member
/// only when `present` (batch scenario reports carry no service key).
struct ServiceBlock {
  bool present = false;
  std::string transport;  // "ring" | "socket"
  std::string pacing;     // "virtual" | "wall"
  double duration_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t processed = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t admit_accepted = 0;
  std::uint64_t admit_rejected = 0;
  std::uint64_t teardowns = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t handoff_drops = 0;
  std::uint64_t probes = 0;
  /// Requests with no reply by the end of the drain window. Always 0 in a
  /// service-side report; a driver-side (socket drive) report may record
  /// stragglers. offered == processed + shed + unanswered.
  std::uint64_t unanswered = 0;
  std::uint64_t peak_queue_depth = 0;
  double offered_rps = 0.0;
  double sustained_rps = 0.0;  // processed / duration
  double shed_fraction = 0.0;  // shed / offered
  double latency_p50_us = 0.0;
  double latency_p90_us = 0.0;
  double latency_p99_us = 0.0;
  double slo_p99_us = 0.0;  // the configured target
  bool slo_met = false;     // latency_p99_us <= slo_p99_us

  void write_json(std::ostream& os) const;
};

/// Closed-adaptation-loop summary (schema v4): what the campus adapt loop
/// did over the day — renegotiation counts, window verdict tallies, the
/// shaper's conformance conservation (offered == bg + wc + nonconforming,
/// in bits), the air hop's packet accounting, and the grant trajectory
/// (pre-fault / minimum-under-fault / final). Written as an `adaptation`
/// member only when `present` (loop-off reports carry no adaptation key).
struct AdaptationBlock {
  bool present = false;
  std::uint64_t flows = 0;
  std::uint64_t renegotiations_triggered = 0;
  std::uint64_t renegotiations_accepted = 0;
  std::uint64_t windows_breached = 0;
  std::uint64_t windows_clean = 0;
  std::uint64_t windows_insufficient = 0;
  // Dual token-bucket shaper conformance, summed over flows; by
  // construction offered_bits == bg_bits + wc_bits + nonconforming_bits.
  std::uint64_t offered_bits = 0;
  std::uint64_t bg_bits = 0;
  std::uint64_t wc_bits = 0;
  std::uint64_t nonconforming_bits = 0;
  std::uint64_t hop_offered_packets = 0;
  std::uint64_t hop_delivered_packets = 0;
  std::uint64_t hop_dropped_packets = 0;
  double granted_bps = 0.0;   // total granted rate at end of run
  double enforced_bps = 0.0;  // total shaper-enforced rate at end of run
  // Grant trajectory across the fault window (0 for sweep aggregates).
  double granted_prefault_bps = 0.0;
  double granted_min_bps = 0.0;
  double granted_final_bps = 0.0;

  void write_json(std::ostream& os) const;
};

struct RunReport {
  /// v5 (ISSUE 10): extends the profile's sharded section for window-batched
  /// barriers — `barriers` now counts coordinator dispatches (full-stop
  /// barriers), with new `windows`, `profiled_wall_ns` and a `batch_windows`
  /// histogram recording the realized burst sizes.
  /// v4 (ISSUE 9): adds the optional `adaptation` block — closed-loop
  /// renegotiation and shaper-conformance accounting, present only for
  /// campus runs with --adapt-loop.
  /// v3 (ISSUE 8): adds the optional `service` block — admission-control
  /// service-mode accounting, present only for `serve`/`drive` runs.
  /// v2 (ISSUE 7): adds the optional `profile` block — wall-clock phase and
  /// shard-lane attribution, present only when profiling was enabled. The
  /// `metrics` section layout is unchanged from v1, so metrics-section
  /// hashes (golden campus JSON, shard determinism checks) are comparable
  /// across the bumps.
  static constexpr int kSchemaVersion = 5;

  std::string tool;      // producing binary, e.g. "scenario_cli"
  std::string scenario;  // subcommand / experiment name
  /// Configuration echo: flag name -> value, in insertion order.
  std::vector<std::pair<std::string, std::string>> config;

  double wall_seconds = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events_fired = 0;
  Snapshot metrics;
  /// Wall-clock attribution (schema v2). Written as a `profile` member only
  /// when non-empty: disabled-profiling reports carry no profile key at all,
  /// keeping them byte-identical to reports of runs without a profiler.
  ProfileSnapshot profile;
  /// Service-mode accounting (schema v3); written only when service.present.
  ServiceBlock service;
  /// Adaptation-loop accounting (schema v4); written only when
  /// adaptation.present.
  AdaptationBlock adaptation;

  [[nodiscard]] double events_per_second() const {
    return wall_seconds > 0.0 ? double(events_fired) / wall_seconds : 0.0;
  }

  void write_json(std::ostream& os) const;
};

}  // namespace imrm::obs
