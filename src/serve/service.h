// AdmissionService: the paper's admission-control pipeline as a long-running
// request/response service (ISSUE 8 tentpole).
//
// The service wraps one core::NetworkEnvironment (Table 2 admission,
// advance reservations, multicast warm state, max-min conflict resolution)
// behind the serve codec and a transport seam, with a bounded ingress queue
// and an explicit overload policy:
//
//   * every inbound frame is counted as OFFERED;
//   * the OverloadGovernor decides admit-vs-shed per arrival: a request is
//     SHED (answered immediately with ShedReply{retry_after_us}) once queue
//     depth reaches the configured capacity or the measured latency p99
//     crosses the SLO — saturation degrades to fast rejects, never to an
//     unbounded queue. Hysteresis (depth back under half capacity AND p99
//     back under the SLO) exits shed mode;
//   * everything else is PROCESSED: decoded (malformed frames count as
//     ERRORS and get a typed ErrorReply), executed against the environment,
//     and answered. Per-request latency (arrival -> reply) feeds both the
//     governor's sliding window and the serve.latency_us histogram.
//
// Two clock domains, one code path:
//   * pump_virtual() — deterministic single-threaded mode: driver and
//     service interleave on one sim::Simulator, each processed request costs
//     a fixed virtual_service_cost_us of simulated time (an M/D/1 server).
//     Queueing, shedding, and every latency percentile are bit-reproducible
//     at a fixed seed;
//   * run_wall() — the real service loop: steady-clock arrival stamps, work
//     costs whatever the admission pipeline costs, used by the socket
//     listener and the two-thread in-process benchmark.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/network_environment.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "serve/codec.h"
#include "serve/transport.h"
#include "sim/simulator.h"

namespace imrm::serve {

/// Overload policy knobs. The queue capacity bounds memory and worst-case
/// queueing delay; the p99 target is the service-level objective the run
/// report's `slo` verdict is judged against.
struct SloConfig {
  double p99_target_us = 5000.0;
  std::size_t queue_capacity = 512;
  /// Backoff hint carried in ShedReply.
  double retry_after_us = 5000.0;
  /// Sliding latency window the governor estimates p99 over.
  std::size_t latency_window = 512;
};

/// Shed-with-retry-after governor. Deterministic: the p99 estimate refreshes
/// every kRefreshInterval observations (not on a wall timer), so virtual-
/// pacing runs reproduce shed decisions bit-exactly.
///
/// The decision needs only whether p99 > target, and the rank-th smallest
/// of `filled` samples exceeds the target exactly when at least
/// filled - rank samples do. So the window keeps a running count of samples
/// above the target, and a refresh costs O(1); admission never selects the
/// p99 value itself.
class OverloadGovernor {
 public:
  static constexpr std::size_t kRefreshInterval = 32;
  /// Observations required after leaving shed mode before the p99 estimate
  /// can trip it again. Shed mode starves the latency window of samples, so
  /// the estimate is stale at exit; without this guard a single overload
  /// spike would shed forever on frozen evidence.
  static constexpr std::size_t kMinFreshSamples = 64;

  explicit OverloadGovernor(const SloConfig& slo);

  /// Admission decision for one arriving request at the given queue depth.
  /// False = shed. Enter shed mode on depth >= capacity, or on window-p99
  /// over target once kMinFreshSamples post-recovery samples accumulated;
  /// leave it when depth falls to capacity/2 (depth is the only live signal
  /// while shedding — see admit() in service.cc).
  [[nodiscard]] bool admit(std::size_t queue_depth);

  /// Feeds one completed request's latency into the sliding window.
  void observe_latency(double us);

  [[nodiscard]] bool shedding() const { return shedding_; }
  /// The p99 of the samples now in the window (0 when empty), selected on
  /// demand in O(window). Right after a refresh it is the value the
  /// decision compared against the target.
  [[nodiscard]] double window_p99_us() const;
  [[nodiscard]] const SloConfig& slo() const { return slo_; }

 private:
  SloConfig slo_;
  std::vector<double> window_;  // ring; newest overwrites oldest
  std::size_t next_ = 0;
  std::size_t filled_ = 0;
  std::size_t above_ = 0;  // window samples > p99_target_us
  std::size_t fresh_ = 0;  // observations since the last shed-mode exit
  std::size_t since_refresh_ = 0;
  bool over_target_ = false;  // window p99 > p99_target_us at the last refresh
  bool shedding_ = false;
};

struct ServiceConfig {
  /// Cells in the service's corridor-chain cell map (cell i neighbors i±1).
  std::size_t cells = 16;
  SloConfig slo;
  core::BackboneConfig backbone;
  /// Simulated service time per processed request in pump_virtual mode.
  /// Saturation throughput is 1e6 / virtual_service_cost_us requests/s.
  double virtual_service_cost_us = 200.0;
  /// Re-run max-min conflict resolution after every N processed requests
  /// (0 = only the adapt retries the environment does internally).
  std::size_t adapt_every = 0;
  /// Instrument sink (serve.* counters/gauges/histograms); may be null.
  obs::Registry* metrics = nullptr;
  /// Wall-clock phases serve.decode / serve.admit / serve.reply; may be null.
  obs::Profiler* profiler = nullptr;
};

/// Plain counters mirrored into the registry (when bound) and the RunReport
/// `service` block. offered == processed + shed always holds; errors are the
/// subset of processed that failed decode or hit a typed service error.
struct ServiceStats {
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
  std::size_t peak_queue_depth = 0;
};

class AdmissionService {
 public:
  AdmissionService(const ServiceConfig& config, sim::Simulator& simulator);

  /// Virtual pacing: ingests every request currently buffered in the
  /// transport at the current simulated time and keeps the (single) virtual
  /// server busy by scheduling completion events on the simulator. Call from
  /// driver arrival events, then let the simulator run.
  void pump_virtual(ServerTransport& transport);

  /// Wall pacing: serves until a Shutdown request has been processed and the
  /// queue drained, the transport finishes, or `deadline_seconds` of wall
  /// time elapse (0 = no deadline).
  void run_wall(ServerTransport& transport, double deadline_seconds);

  [[nodiscard]] const ServiceStats& stats() const { return stats_; }
  [[nodiscard]] bool shutdown_requested() const { return shutdown_; }
  [[nodiscard]] bool shedding() const { return governor_.shedding(); }
  [[nodiscard]] std::size_t queue_depth() const {
    return queued_ + (virtual_busy_ ? 1 : 0);
  }
  [[nodiscard]] std::size_t cells() const { return map_size_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] core::NetworkEnvironment& environment() { return *env_; }

 private:
  struct Pending {
    std::uint64_t client = 0;
    std::vector<std::uint8_t> frame;
    double arrival_us = 0.0;  // virtual: sim µs; wall: µs since run start
  };

  void bind_metrics();
  /// Offered-frame intake: shed-or-enqueue at `now_us`. An enqueued frame
  /// trades buffers with a queue slot, so `env.frame` comes back holding
  /// the slot's old buffer.
  void ingest(ServerTransport& transport, Envelope& env, double now_us);
  /// Full decode -> execute -> reply for one dequeued request, completing at
  /// `now_us` (latency = now_us - arrival).
  void process(ServerTransport& transport, const Pending& pending, double now_us);
  /// The queue tail slot to fill; doubles the ring when it is full.
  Pending& enqueue();
  /// Removes the queue head and returns its slot, which stays valid until
  /// the next enqueue().
  const Pending& dequeue();
  /// Keeps the virtual server busy: pops the queue head into a completion
  /// event virtual_service_cost_us in the simulated future.
  void schedule_virtual_completion();
  Reply execute(const Request& request);
  Reply do_admit(const AdmitRequest& request);
  Reply do_teardown(const TeardownRequest& request);
  Reply do_handoff(const HandoffRequest& request);
  [[nodiscard]] double sim_now_us() const;
  void set_depth_gauge();

  ServiceConfig config_;
  sim::Simulator* simulator_;
  std::size_t map_size_ = 0;
  std::optional<core::NetworkEnvironment> env_;
  std::unordered_map<std::uint32_t, net::PortableId> portable_of_;  // external -> internal
  // Ingress FIFO as a ring of slots whose frame buffers are reused; its
  // length is a power of two and only grows, to the peak queue depth.
  std::vector<Pending> queue_;
  std::size_t queue_head_ = 0;
  std::size_t queued_ = 0;
  // Every inbound frame lands here and every reply is encoded here; both
  // trade their buffers with the transport and the queue.
  Envelope envelope_;
  std::vector<std::uint8_t> reply_frame_;
  OverloadGovernor governor_;
  ServiceStats stats_;
  bool shutdown_ = false;
  bool virtual_busy_ = false;
  ServerTransport* virtual_transport_ = nullptr;
  std::uint64_t processed_since_adapt_ = 0;

  // Cached instruments (null when config_.metrics is null).
  obs::Counter* c_offered_ = nullptr;
  obs::Counter* c_processed_ = nullptr;
  obs::Counter* c_shed_ = nullptr;
  obs::Counter* c_errors_ = nullptr;
  obs::Counter* c_admit_accepted_ = nullptr;
  obs::Counter* c_admit_rejected_ = nullptr;
  obs::Counter* c_teardowns_ = nullptr;
  obs::Counter* c_handoffs_ = nullptr;
  obs::Counter* c_handoff_drops_ = nullptr;
  obs::Counter* c_probes_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
  obs::Histogram* h_latency_us_ = nullptr;

  obs::PhaseId ph_decode_ = obs::kInvalidPhase;
  obs::PhaseId ph_admit_ = obs::kInvalidPhase;
  obs::PhaseId ph_reply_ = obs::kInvalidPhase;
};

/// The latency histogram layout shared by service and driver:
/// log2 buckets from 1 µs to ~1.05 s, 8 sub-buckets per octave.
[[nodiscard]] obs::HistogramSpec latency_histogram_spec();

/// The service's cell map: `cells` office cells in a corridor chain (cell i
/// neighbors i-1 and i+1) — the minimal topology where handoffs, advance
/// reservations, and multicast branches all engage.
[[nodiscard]] mobility::CellMap service_cell_map(std::size_t cells);

}  // namespace imrm::serve
