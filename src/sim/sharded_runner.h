// Sharded conservative-window execution of multi-domain simulations
// (ISSUE 5), with window-batched barriers (ISSUE 10).
//
// The grid campus partitions naturally by cell: every intra-cell event
// (arrivals, departures, local admission) touches one cell's state only,
// while cross-cell traffic (handoff signaling, routed reservations and their
// cancels) rides the backbone and therefore pays at least one
// control-plane hop of latency. ShardedRunner exploits that structure: each
// *domain* (one cell) owns a private Simulator, event queue, and whatever
// per-domain state the experiment hangs off it, and K worker threads execute
// disjoint domain subsets in lockstep time windows of width `window` — the
// classic conservative PDES scheme, with the minimum cross-shard hop latency
// as the lookahead bound.
//
// Protocol per window (unchanged since ISSUE 5 — this sequence is the
// determinism contract):
//  1. all domains run run_until(T + window), where T is the earliest pending
//     event time across every domain (idle domains skip ahead for free);
//  2. exchange: cross-domain messages posted during the window are gathered
//     from per-source outboxes and injected into their destination queues.
// A message posted while a domain executes an event at time t >= T is
// delivered at t + latency >= T + window: at the window end or later, never
// before it. It can land exactly on the window end: run_until fires events
// *at* its horizon, and the grid posts with latency == window. The
// destination has then already run its own events for that instant, so the
// message is injected at the destination's current time and runs after
// them, with same-instant messages in exchange order. For any worker count,
// no domain ever receives a message into its past.
//
// What ISSUE 10 changes is *who synchronizes where*, not the window
// sequence. ISSUE 5 paid a full coordinator round trip (mutex + two condvar
// hops + a sleeping-thread wakeup) per window — BENCH_5/BENCH_7 measured
// ~80k such barriers on the corridor day of the time (since deleted) with
// ~1.2 events between them, ~90% of worker wall in `barrier_wait`. Now the
// coordinator dispatches a *burst* of up to `batch` windows at a time. Inside a burst, workers meet at a
// lightweight sense-reversing atomic barrier between sub-windows; the last
// worker to arrive (the serializer) performs the exchange, scans the queue
// heads for the next window target, and publishes it (or the burst-done
// flag) before releasing the others with one release-ordered phase bump.
// Boundary messages thus ship in per-sub-window batches without the
// coordinator ever waking: condvar round trips drop by the batch factor,
// which is what the ISSUE 10 acceptance criterion counts (`Stats::
// dispatches`, exported as the profile's `barriers`).
//
// Determinism across worker counts AND batch sizes is a contract, not an
// accident:
//  * the domain partition is fixed by the scenario (one cell = one domain);
//    workers are only an execution vehicle, so changing K never changes
//    which messages are "remote";
//  * every cross-domain message goes through the outbox/exchange path — even
//    when source and destination happen to run on the same worker — so the
//    delivery schedule is identical at K = 1 and K = 8;
//  * each exchange walks the outboxes in source-domain order, each source's
//    rows in posting order. The destination then executes them in the
//    canonical order (deliver time, source domain, per-source serial), all
//    of which are partition-invariant, so equal-time ties break identically
//    for any K;
//  * burst boundaries only decide when the coordinator thread regains
//    control — the sub-window targets, exchange contents and exchange order
//    are computed by the same code from the same simulation state whether a
//    window is the first of a burst or the hundredth, so `batch` (and the
//    adaptive controller's choices) can never leak into results.
// tests/sharded_runner_test.cc and the shard-labeled grid determinism
// suite assert byte-identical metrics at K in {1, 2, 4, 8} and batch in
// {1, 8, 64, auto}.
//
// One boundary path. A scenario registers one trivially copyable row type
// (at most kRowBytes) and the single handler that receives it with
// set_row_handler(); post_row() appends the row to its source's outbox in a
// 40-byte envelope. The grid sends its hops, reservations and cancels this
// way.
// For each (destination, deliver instant) that appears in one exchange, the
// exchange schedules exactly one queue event — a *drain* — at the moment
// that group's first row would have been scheduled as its own event, and
// the drain runs the group's rows in exchange order.
//
// Why the drain keeps the delivery order. One exchange's injections into a
// destination take a contiguous block of that queue's sequence numbers, and
// every event the exchange schedules at a destination is a drain for a
// distinct instant. At instant t the destination therefore runs: its events
// with seq below the block (local ones, earlier exchanges), then the block's
// events at t in seq order, then later-scheduled events (including ones the
// delivered rows chain at zero delay). With one event per row, the block's
// events at t would be exactly the group's rows in exchange order; with a
// drain, they are the group's drain, which sits at the group's first seq
// and runs the same rows in the same order. Nothing else lies between them,
// so the executed sequence is the one-event-per-row sequence, for any
// worker count and batch size. On a domain Simulator::events_fired() counts
// one per drain, not one per row; Stats::boundary_messages counts messages.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/tracer.h"
#include "sim/inplace_function.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace imrm::sim {

class ShardedRunner {
 public:
  /// Largest row post_row() carries.
  static constexpr std::size_t kRowBytes = 24;

 private:
  struct alignas(8) RowBytes {
    unsigned char bytes[kRowBytes];
  };
  struct RowEnvelope {
    SimTime deliver_time;
    std::size_t to = 0;
    RowBytes row;
  };

 public:
  /// Bytes each boundary message occupies in its source outbox; the
  /// profile's boundary_bytes is boundary_messages times this.
  static constexpr std::size_t kRowEnvelopeBytes = sizeof(RowEnvelope);

  /// Chrome-trace pid claimed for the wall-clock shard lanes; pid 1 stays
  /// the simulated-time process (see obs::TraceRecord::pid).
  static constexpr std::uint32_t kShardLanePid = 2;

  /// Adaptive batch controller bounds (Config::batch == 0). The floor keeps
  /// even pathological runs ahead of the ISSUE 5 one-window dispatches; the
  /// cap bounds how long the coordinator (and with it the progress meter and
  /// any caller polling between run_until calls) can go dark.
  static constexpr std::size_t kAutoBatchMin = 8;
  static constexpr std::size_t kAutoBatchMax = 4096;

  struct Config {
    /// Number of simulation domains (one per cell). Fixed by the scenario;
    /// determinism is per-domain, not per-worker.
    std::size_t domains = 1;
    /// Worker threads executing domains. 0 selects hardware concurrency;
    /// clamped to `domains`. 1 runs inline with no thread pool.
    std::size_t workers = 1;
    /// Conservative window width; must be <= the smallest latency ever
    /// passed to post_row(). For the grid this is the scheduler tick.
    Duration window = Duration::millis(1.0);
    /// Windows executed per coordinator dispatch. 0 (the default) enables
    /// the adaptive controller: start at kAutoBatchMin and double, up to
    /// kAutoBatchMax, whenever a burst exhausts its budget while events
    /// remain. The rule reads no clock, so a profiled run dispatches the
    /// same bursts as an unprofiled one. Any value >= 1 pins the burst
    /// length. Batch size affects synchronization cost only, never results:
    /// the window sequence, exchange contents and injection order are
    /// batch-invariant by construction (see file header).
    std::size_t batch = 0;
    /// Optional wall-clock attribution (ISSUE 7). When set and enabled, the
    /// runner keeps per-worker busy/barrier-wait/idle lanes, straggler
    /// counts, and window/messages/batch histograms; collect them with
    /// export_profile(). Profiling only reads clocks — event execution and
    /// the injection schedule are untouched, so metrics stay byte-identical.
    obs::Profiler* profiler = nullptr;
    /// Optional wall-clock trace lanes: per-worker busy spans plus a
    /// coordinator barrier span per dispatch on pid kShardLanePid (tid =
    /// worker; tid = worker count is the coordinator's lane, its span arg
    /// the burst's window count). Records are coordinator-emitted between
    /// dispatches, honoring the tracer's single-writer discipline.
    /// Requires `profiler` to be set and enabled.
    obs::Tracer* tracer = nullptr;
    /// Optional stderr heartbeat, polled once per coordinator dispatch.
    obs::ProgressMeter* progress = nullptr;
  };

  struct Stats {
    std::uint64_t windows = 0;            ///< lockstep windows executed
    std::uint64_t boundary_messages = 0;  ///< cross-domain messages delivered
    /// Queue events the exchange scheduled: one drain per (destination,
    /// deliver instant) of each exchange.
    std::uint64_t row_drains = 0;
    /// Coordinator dispatches (full-stop barriers with a condvar round
    /// trip). windows / dispatches is the realized batch factor; ISSUE 5
    /// behavior is dispatches == windows.
    std::uint64_t dispatches = 0;
  };

  /// Throws std::invalid_argument when `domains` is 0 or `window` is not
  /// positive.
  explicit ShardedRunner(const Config& config);
  ~ShardedRunner();

  ShardedRunner(const ShardedRunner&) = delete;
  ShardedRunner& operator=(const ShardedRunner&) = delete;

  [[nodiscard]] std::size_t domain_count() const { return sims_.size(); }
  [[nodiscard]] Simulator& domain(std::size_t d) { return *sims_[d]; }
  [[nodiscard]] const Simulator& domain(std::size_t d) const { return *sims_[d]; }

  /// Registers the scenario's boundary row type and the handler that
  /// receives each row on its destination domain, as handler(domain, row),
  /// at the row's deliver time. Call it before the first post_row().
  template <class Row, class Handler>
  void set_row_handler(Handler handler) {
    static_assert(std::is_trivially_copyable_v<Row> &&
                      std::is_default_constructible_v<Row>,
                  "a boundary row travels by memcpy");
    static_assert(sizeof(Row) <= kRowBytes && alignof(Row) <= alignof(RowBytes),
                  "a boundary row must fit RowBytes");
    row_type_ = &kRowTag<Row>;
    row_handler_ = [h = std::move(handler)](std::size_t domain, const RowBytes& raw) {
      Row row;
      std::memcpy(&row, raw.bytes, sizeof(Row));
      h(domain, row);
    };
  }

  /// Posts `row` from domain `from` to the registered handler on domain
  /// `to`, `latency` after `from`'s current time. `latency` must be >= the
  /// configured window — that bound is what lets whole windows run without
  /// intermediate synchronization — and a shorter one, or a `from` or `to`
  /// that is not a domain, throws std::invalid_argument in every build type;
  /// a Row other than the registered type throws std::logic_error. A throw
  /// is recoverable only before or between runs: from an event on a pool
  /// worker (K > 1) nothing catches it and the process terminates, and from
  /// an inline run (one worker) it leaves run_until partway through a
  /// burst, after which the runner must not be used again. Always buffered
  /// through the exchange, never scheduled directly, even for from == to;
  /// see the determinism contract above.
  template <class Row>
  void post_row(std::size_t from, std::size_t to, Duration latency, const Row& row) {
    check_post(from, to, latency);
    if (row_type_ != &kRowTag<Row>) {
      throw std::logic_error("ShardedRunner::post_row: Row is not the registered row type");
    }
    RowEnvelope& e = row_outboxes_[from].emplace_back();
    e.deliver_time = sims_[from]->now() + latency;
    e.to = to;
    std::memcpy(e.row.bytes, &row, sizeof(Row));
  }

  /// Row slots allocated across every destination's row pool. A pool grows
  /// only when all of its slots hold pending rows, so this never exceeds the
  /// sum over destinations of each one's peak count of injected, undrained
  /// rows.
  [[nodiscard]] std::size_t row_pool_slots() const;

  /// Runs every domain to `horizon` in lockstep windows. Returns the total
  /// number of events fired across all domains during this call. May be
  /// called repeatedly with increasing horizons.
  std::uint64_t run_until(SimTime horizon);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Sum of events fired across all domains (lifetime).
  [[nodiscard]] std::uint64_t events_fired() const;

  /// Copies the sharded-execution accounting (per-lane busy/barrier/idle,
  /// straggler counts, domain ranges and delivered rows, dispatch/window
  /// totals, batch histograms) into `out`.
  /// A no-op when the runner never ran with profiling enabled, so `out`
  /// stays empty and the run report carries no profile block.
  void export_profile(obs::ProfileSnapshot& out) const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);
  template <class Row>
  static constexpr char kRowTag = 0;

  /// One pending row in a destination's pool. The rows of a drain form a
  /// singly linked list through `next`, and so do the free slots.
  struct RowSlot {
    RowBytes row;
    std::uint32_t next = kNoSlot;
  };
  /// A drain opened by the current exchange: its instant and last row.
  struct OpenDrain {
    SimTime time;
    std::uint32_t tail = kNoSlot;
  };
  /// Per-destination row state. The serializer fills it during the exchange;
  /// between exchanges only the worker executing the domain drains it.
  struct RowInbox {
    std::vector<RowSlot> slots;
    std::uint32_t free = kNoSlot;
    std::vector<OpenDrain> open;  // this exchange's drains, oldest first
    std::uint64_t delivered = 0;  // rows handed to the handler (profile)
  };

  void run_burst(std::size_t worker);
  void serialize_sub_window();
  void run_domains(std::size_t worker, SimTime target);
  /// First domain of worker `worker`'s contiguous block; block_begin(w + 1)
  /// ends it. Contiguous blocks keep each worker's domains adjacent in
  /// memory; worker_count_ == 1 gives worker 0 everything.
  [[nodiscard]] std::size_t block_begin(std::size_t worker) const {
    return worker * sims_.size() / worker_count_;
  }
  void check_post(std::size_t from, std::size_t to, Duration latency) const {
    if (from >= sims_.size() || to >= sims_.size()) {
      throw std::invalid_argument("ShardedRunner::post_row: domain out of range");
    }
    // A shorter latency would deliver into a window the destination has
    // already executed, and the destination's clock would run backwards.
    if (!(latency >= config_.window)) {
      throw std::invalid_argument(
          "ShardedRunner::post_row: cross-domain latency below the conservative "
          "window would deliver into an already-executed window");
    }
  }
  void exchange();
  void inject_row(const RowEnvelope& e);
  void drain_rows(std::size_t to, std::uint32_t head);
  void worker_loop(std::size_t worker);
  void arm_profiling();
  [[nodiscard]] std::size_t next_batch_budget() const;
  void update_batch_controller();
  void account_dispatch(std::uint64_t prep_start_ns,
                        std::uint64_t dispatch_start_ns,
                        std::uint64_t dispatch_end_ns);

  Config config_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  // Per-source-domain outboxes: while a window runs, outbox[d] is written
  // only by the worker executing domain d, and the serializer drains them
  // only between sub-windows (inside the burst barrier), so no per-message
  // lock.
  std::vector<std::vector<RowEnvelope>> row_outboxes_;
  std::vector<RowInbox> inboxes_;
  std::vector<std::size_t> open_inboxes_;  // destinations with open drains
  const void* row_type_ = nullptr;
  InplaceFunction<void(std::size_t, const RowBytes&)> row_handler_;
  Stats stats_;

  // Worker pool (only started when min(workers, domains) > 1). Contiguous
  // block assignment — worker w owns domains [w * D / W, (w + 1) * D / W) —
  // doubles as the cell→shard partitioner for grid scenarios that map one
  // cell to one domain.
  std::size_t worker_count_ = 1;
  std::vector<std::thread> pool_;
  std::mutex mutex_;
  std::condition_variable round_cv_;
  std::condition_variable done_cv_;
  std::uint64_t round_ = 0;    // dispatch generation; bump wakes workers
  std::size_t running_ = 0;    // workers still executing the current burst
  bool shutdown_ = false;

  // ---- burst state (ISSUE 10) -------------------------------------------
  // Plain fields carry the burst protocol; their visibility is sequenced by
  // exactly two synchronization edges. Coordinator -> workers at dispatch:
  // written under mutex_ before the round_ bump, read after the round_cv_
  // wait. Serializer -> everyone between sub-windows: written before the
  // release-ordered sub_phase_ bump, read after the acquire load (workers)
  // or after the mutex_-guarded running_ decrement (coordinator).
  SimTime run_horizon_;        // this run_until's horizon
  SimTime sub_target_;         // current sub-window target
  SimTime burst_min_next_;     // min queue head published at burst end
  std::size_t burst_budget_ = 0;     // windows allowed in this burst
  std::uint64_t burst_windows_ = 0;  // windows executed in this burst
  bool burst_done_ = false;
  bool burst_exhausted_ = false;  // ended on budget, with events remaining
  // Sense-reversing barrier: arrived_ counts workers still inside the
  // current sub-window (the fetch_sub that hits 1 elects the serializer);
  // sub_phase_ is the release gate the others spin on. acq_rel on arrived_
  // chains every worker's window work into the serializer's view; the
  // release bump hands the serializer's writes back out.
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> sub_phase_{0};
  std::size_t auto_batch_ = kAutoBatchMin;  // adaptive controller state

  // ---- wall-clock profiling (ISSUE 7) -----------------------------------
  // profile_active_ is latched at the top of run_until, before any dispatch;
  // workers observe it through the dispatch barrier's mutex, so no extra
  // synchronization is needed. busy_scratch_[w] is *accumulated* by worker w
  // across a burst's sub-windows (zeroed by the coordinator per dispatch)
  // and read by the coordinator after the done_cv_ wait — same single-writer
  // discipline as the outboxes. The histograms and sub_start_ns_ are written
  // only by the serializer, whose writes the burst barrier already orders.
  bool profile_active_ = false;
  std::uint64_t wall_epoch_ns_ = 0;  // first profiled run_until; trace time base
  std::vector<obs::ShardLaneSample> lanes_;
  // One busy-time slot per worker, padded to a cache line: adjacent workers
  // write their slots every window, and packed u64s would false-share.
  struct alignas(64) BusySlot {
    std::uint64_t ns = 0;
  };
  std::vector<BusySlot> busy_scratch_;
  // Window wall lengths: 1 us .. ~18 min (2^40 ns), 2 sub-buckets/octave.
  obs::Histogram window_hist_{obs::HistogramSpec::log2(1024.0, 1024.0 * 1073741824.0, 2)};
  // Messages injected per exchange; zero-message exchanges land in underflow.
  obs::Histogram messages_hist_{obs::HistogramSpec::log2(1.0, 1048576.0, 2)};
  // Windows per coordinator dispatch (the realized batch size / occupancy).
  obs::Histogram batch_hist_{obs::HistogramSpec::log2(1.0, 8192.0, 1)};
  obs::PhaseId ph_exchange_ = obs::kInvalidPhase;
  obs::PhaseId ph_window_ = obs::kInvalidPhase;
  obs::NameId tr_busy_ = obs::kInvalidName;
  obs::NameId tr_barrier_ = obs::kInvalidName;
  bool lanes_declared_ = false;
  int last_straggler_ = -1;
  std::uint64_t sub_start_ns_ = 0;  // serializer-owned sub-window stamp
  /// Windows / dispatches executed while profiling was active (== the Stats
  /// counters when profiling covered the whole run). Dispatches are the
  /// profile's barrier count, so the straggler tally always sums to it.
  std::uint64_t profiled_windows_ = 0;
  std::uint64_t profiled_dispatches_ = 0;
  /// Wall nanoseconds covered by dispatch accounting: every lane satisfies
  /// busy + barrier_wait + idle == profiled_wall_ns (the satellite-1
  /// regression contract).
  std::uint64_t profiled_wall_ns_ = 0;
};

}  // namespace imrm::sim
