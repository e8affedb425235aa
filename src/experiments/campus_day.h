// The combination experiment: the paper's abstract promises that "a
// combination of the above approaches provide the framework for resource
// management". This harness runs a whole campus day — office dwellers, a
// big meeting, corridor roamers, AND opportunistic bulk-traffic "squatters"
// inside the meeting room — under each advance-reservation approach,
// including the full Section 6.4 dispatcher.
//
// The tension it measures: without reservations, squatter connections
// admitted before the meeting eat the capacity the arriving attendees need
// (attendee drops); with reservations, the same squatters are blocked while
// the reservation window is open (squatter blocks) and the meeting is
// seamless. Drop-versus-block is exactly the Figure 6 tradeoff, here
// reproduced by the full policy stack on a realistic day.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "fault/signaling.h"
#include "obs/metrics.h"
#include "qos/flow_spec.h"
#include "sim/checkpoint.h"
#include "sim/time.h"

namespace imrm::obs {
class Tracer;
class Profiler;
}  // namespace imrm::obs

namespace imrm::experiments {

enum class CampusPolicy { kNone, kStatic, kBruteForce, kAggregate, kDispatcher };

[[nodiscard]] std::string to_string(CampusPolicy policy);

struct CampusDayConfig {
  CampusPolicy policy = CampusPolicy::kDispatcher;
  qos::BitsPerSecond cell_capacity = qos::mbps(1.6);
  std::size_t attendees = 40;   // meeting size (dwellers + visiting roamers)
  std::size_t squatters = 10;   // bulk users camped in the meeting room
  qos::BitsPerSecond squatter_bandwidth = qos::kbps(96);
  std::uint64_t seed = 5;
  /// Meeting runs [start, stop); attendees walk in through the corridor.
  sim::SimTime meeting_start = sim::SimTime::minutes(90);
  sim::SimTime meeting_stop = sim::SimTime::minutes(140);

  /// Admission-signaling faults (ISSUE 3): every admit_new / admit_handoff
  /// first probes over an UnreliableCall; a timed-out probe degrades to a
  /// block (new connections, squatters retry later) or a drop (handoffs).
  /// Disabled by default; a disabled config draws no random numbers, so
  /// fault-free days stay byte-identical to pre-fault builds.
  fault::SignalingFaults faults{};

  /// Closed adaptation loop (ISSUE 9): a set of packet-level adaptive
  /// streams in the meeting room, each running source -> dual token-bucket
  /// shaper -> Virtual Clock link -> lossy hop -> delay sink, with an
  /// AdaptationController harvesting windowed loss/delay estimators every
  /// refresh tick and renegotiating the streams' requested ranges; grants
  /// come from the max-min excess division of the room account, and the
  /// shaper enforces them on the wire. A Gilbert–Elliott fault window
  /// [fault_start, fault_stop) drives the renegotiate-down / recover-up
  /// story. Disabled by default; a disabled loop builds nothing, draws no
  /// random numbers and leaves every metric byte-identical.
  struct AdaptLoop {
    bool enabled = false;
    std::size_t flows = 4;
    qos::BitsPerSecond b_min = qos::kbps(32);
    qos::BitsPerSecond b_max = qos::kbps(256);
    /// Gilbert–Elliott burst-loss probability injected on the air hop
    /// during the fault window (0 disables the fault, loop still runs).
    double fault_loss = 0.8;
    sim::SimTime fault_start = sim::SimTime::minutes(60);
    sim::SimTime fault_stop = sim::SimTime::minutes(100);
  };
  AdaptLoop adapt{};

  // ---- observability (all optional) ------------------------------------
  /// Registry for end-of-run metric export (sim.* driver totals, resv.* and
  /// mobility.* admission/handoff telemetry, campus.* outcome counters).
  obs::Registry* metrics = nullptr;
  /// Tracer to attach to the day's simulator (spans/instants/counters from
  /// every instrumented module).
  obs::Tracer* tracer = nullptr;
  /// Wall-clock phase attribution of a single day (scenario_cli campus
  /// --profile 1): campus.day around the event loop, and inside it
  /// campus.refresh (the reservation policy), campus.handoff (the move with
  /// its profile bookkeeping), campus.admission (Table 2 admission of new
  /// and handed-off connections) and, with the adaptation loop on,
  /// campus.adapt (the controller's tick, its renegotiations and the max-min
  /// re-division). Wall time never reaches the result or the
  /// metrics. The sweep ignores it (it times whole replications instead).
  obs::Profiler* profiler = nullptr;
};

struct CampusDayResult {
  std::string policy;
  std::size_t attendee_drops = 0;    // meeting handoffs that failed
  std::size_t squatter_blocks = 0;   // bulk connections refused
  std::size_t squatter_admits = 0;
  std::size_t other_drops = 0;       // non-attendee handoff failures
  std::size_t handoffs = 0;
  double room_peak_allocated = 0.0;  // bps, sampled each minute

  // ---- adaptation loop (all zero when config.adapt.enabled is false) ----
  std::size_t renegotiations = 0;            // accepted renegotiations
  double adapt_granted_prefault_bps = 0.0;   // total grant at fault_start
  double adapt_granted_min_bps = 0.0;        // min total grant after fault_start
  double adapt_granted_final_bps = 0.0;      // total grant at end of day
};

[[nodiscard]] CampusDayResult run_campus_day(const CampusDayConfig& config);

/// Runs the day up to (but not including) the first event at or after `at`
/// and captures the full campus state: simulator core, the tagged pending
/// events (every scheduled appearance/handoff/squat/roam/periodic is a
/// plain-data record, re-armable on the other side), the RNG engine, probe
/// state, demand table, result accumulators, mobility roster, profile
/// histories, reservation accounts, policy soft state, and — when
/// config.metrics is set — the registry contents. The checkpoint embeds a
/// config fingerprint; resume validates it.
[[nodiscard]] sim::Checkpoint checkpoint_campus_day(const CampusDayConfig& config,
                                                    sim::SimTime at);

/// Continues a day from a checkpoint_campus_day image taken with the SAME
/// config. The resumed day is indistinguishable from an uninterrupted
/// run_campus_day(config): identical CampusDayResult and byte-identical
/// metrics JSON. Throws sim::CheckpointError on config mismatch or a
/// malformed image.
[[nodiscard]] CampusDayResult resume_campus_day(const CampusDayConfig& config,
                                                const sim::Checkpoint& checkpoint);

/// Monte-Carlo sweep: N independently seeded campus days fanned across a
/// sim::ReplicationRunner thread pool. Replication i runs with
/// sim::replication_seed(base_seed, i), and aggregation folds results in
/// replication order, so the aggregate is identical for the same seeds
/// regardless of thread count (asserted by tests/replication_test.cc).
struct CampusSweepConfig {
  CampusDayConfig base;           // base.seed is ignored; seeds are derived
  std::size_t replications = 16;
  std::size_t threads = 0;        // 0 = hardware concurrency
  std::uint64_t base_seed = 5;
  /// Optional wall-clock attribution (ISSUE 7): when set and enabled, each
  /// replication's wall cost is recorded as a campus.replication call, folded
  /// in replication order after the pool drains (the Profiler is
  /// single-threaded; workers only fill a per-index timing vector).
  obs::Profiler* profiler = nullptr;
};

struct CampusSweepResult {
  std::string policy;
  std::size_t replications = 0;
  // Sums across replications.
  std::size_t attendee_drops = 0;
  std::size_t squatter_blocks = 0;
  std::size_t squatter_admits = 0;
  std::size_t other_drops = 0;
  std::size_t handoffs = 0;
  std::size_t renegotiations = 0;         // accepted, summed (adapt loop)
  double mean_room_peak_allocated = 0.0;  // bps
  double max_room_peak_allocated = 0.0;   // bps
  /// Per-replication metric snapshots merged in replication order —
  /// byte-identical for the same seeds at any thread count.
  obs::Snapshot metrics;
};

[[nodiscard]] CampusSweepResult run_campus_day_sweep(const CampusSweepConfig& config);

}  // namespace imrm::experiments
