// Wall-clock profiler: hierarchical phase attribution for the expensive
// paths (ISSUE 7 tentpole).
//
// Where the metrics Registry answers "what did the simulation do" in
// simulated time, the Profiler answers "where did the wall clock go":
// scoped phase timers with interned names, nanosecond-resolution monotonic
// clocks, and an allocation-free record path mirroring the Registry design
// (phases are interned once at setup; begin/end/record touch only
// pre-allocated storage plus two steady_clock reads).
//
// A profiler starts disabled; calls on a disabled profiler are a single
// predictable branch and read no clock.
//
// Determinism boundary: wall-clock numbers NEVER land in the metrics
// Snapshot or the simulated-time trace records. They are exported through a
// separate ProfileSnapshot that becomes the `profile` block of the v2
// RunReport, so golden metrics JSON and trace bytes stay byte-identical
// whether profiling is disabled or enabled (asserted by
// tests/obs_profiler_test.cc and tests/sharded_profile_test.cc).
//
// Threading discipline mirrors the Registry: a Profiler instance belongs to
// one thread — its frame stack is an instance member, and concurrent
// sections (the sharded runner's worker lanes) keep their own per-worker
// accounting which is folded into the ProfileSnapshot between rounds, under
// the round barrier (see sim::ShardedRunner::export_profile).
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace imrm::obs {

/// Index into a profiler's interned phase table.
using PhaseId = std::uint32_t;
inline constexpr PhaseId kInvalidPhase = ~PhaseId{0};

/// Accumulated wall cost of one named phase. `total_ns` is inclusive of
/// nested phases; `self_ns` excludes time attributed to children begun while
/// this phase was the innermost open frame. min/max are per-call durations.
struct PhaseSample {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
};

/// One execution lane of a sharded run (one worker thread). busy is time
/// executing domain events (accumulated across a burst's sub-windows);
/// barrier_wait is the in-dispatch stall (dispatch wall minus this lane's
/// busy share — the cost of waiting for stragglers and the serializer);
/// idle is the between-dispatch coordination time during which no lane
/// executes events. The three always sum to ProfileSnapshot::
/// profiled_wall_ns — the satellite-1 accounting contract of ISSUE 10.
struct ShardLaneSample {
  std::uint64_t busy_ns = 0;
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t idle_ns = 0;
  /// Dispatches in which this lane was the slowest (the straggler whose
  /// busy time set the burst's wall length).
  std::uint64_t straggler_windows = 0;
  /// The domains this lane executes, [domain_begin, domain_end), and the
  /// boundary rows delivered to them over the runner's life. The busiest
  /// domain is the one with the most delivered rows (the lowest id on a
  /// tie; domain_begin when no row arrived), so a straggler names its cells.
  std::uint64_t domain_begin = 0;
  std::uint64_t domain_end = 0;
  std::uint64_t rows_delivered = 0;
  std::uint64_t busiest_domain = 0;
  std::uint64_t busiest_domain_rows = 0;
};

/// The wall-clock section of a v2 RunReport: named phase totals plus, for
/// sharded runs, per-lane busy/idle/barrier accounting and the window-level
/// histograms. Everything here is wall time — deliberately quarantined from
/// the deterministic metrics snapshot.
struct ProfileSnapshot {
  std::vector<PhaseSample> phases;  // name-sorted
  // ---- sharded-execution accounting (empty unless a ShardedRunner ran) ---
  std::vector<ShardLaneSample> shards;
  /// Coordinator dispatches — full-stop barriers with a condvar round trip.
  /// Before window batching (ISSUE 10) every window was one; now a dispatch
  /// covers a burst of up to `batch` windows, and windows / barriers is the
  /// realized batch factor.
  std::uint64_t barriers = 0;
  std::uint64_t windows = 0;             ///< lockstep windows executed
  std::uint64_t boundary_messages = 0;   ///< cross-domain messages delivered
  std::uint64_t boundary_bytes = 0;      ///< envelope bytes exchanged
  /// Wall covered by dispatch accounting: every shard lane's busy +
  /// barrier_wait + idle sums to exactly this.
  std::uint64_t profiled_wall_ns = 0;
  /// Wall length of each conservative window, ns (count 0 when not sharded).
  HistogramSample window_ns;
  /// Boundary messages injected at each exchange (count 0 when not sharded).
  HistogramSample messages_per_barrier;
  /// Windows executed per coordinator dispatch — the batch-size / burst
  /// occupancy distribution (count 0 when not sharded).
  HistogramSample batch_windows;

  [[nodiscard]] bool empty() const {
    return phases.empty() && shards.empty() && barriers == 0;
  }

  /// Phase-wise merge (sums, min/max fold); shard lanes and barrier totals
  /// are adopted from `other` when this snapshot has none.
  void merge(const ProfileSnapshot& other);

  /// {"phases": {...}, "shards": [...], ...} with names sorted; the
  /// `profile` block of the v2 run report.
  void write_json(std::ostream& os) const;

  /// Human-readable summary (scenario_cli --profile 1): phases ranked by
  /// total wall cost, then the per-shard busy/idle/barrier table.
  void write_table(std::ostream& os) const;
};

class Profiler {
 public:
  /// Deepest nesting of open phases; deeper begin() calls are counted into
  /// the innermost open frame instead of crashing.
  static constexpr std::size_t kMaxDepth = 64;

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Monotonic nanoseconds (steady_clock). The one clock every wall number
  /// in the profile comes from.
  [[nodiscard]] static std::uint64_t now_ns() {
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count());
  }

  /// Interns a phase name (setup-time; allocates). Ids are dense and stable;
  /// interning the same name again returns the same id.
  PhaseId intern(std::string_view name);

  /// Opens a phase frame. Allocation-free; no-op (one branch) when disabled.
  void begin(PhaseId id) {
    if (!enabled_) return;
    if (depth_ < kMaxDepth) frames_[depth_] = {id, now_ns(), 0};
    ++depth_;
  }

  /// Closes the innermost frame, attributing its duration to `id` and its
  /// exclusive share to the parent frame's child accumulator.
  void end(PhaseId id) {
    if (!enabled_ || depth_ == 0) return;
    --depth_;
    if (depth_ >= kMaxDepth) return;  // was an overflow frame; only counted
    const Frame& f = frames_[depth_];
    const std::uint64_t dur = now_ns() - f.start_ns;
    account(f.id, dur, dur - std::min(f.child_ns, dur), 1);
    if (depth_ > 0) frames_[depth_ - 1].child_ns += dur;
    (void)id;
  }

  /// Direct attribution of an externally measured duration: `calls`
  /// invocations costing `ns` in total (per-replication timings, aggregate
  /// protocol rounds). Does not interact with the frame stack.
  void record(PhaseId id, std::uint64_t ns, std::uint64_t calls = 1) {
    if (!enabled_ || calls == 0) return;
    account(id, ns, ns, calls);
  }

  /// RAII phase frame. `Scope s(profiler_or_null, id);` — a null profiler
  /// costs one branch.
  class Scope {
   public:
    Scope(Profiler* profiler, PhaseId id) : profiler_(profiler), id_(id) {
      if (profiler_ != nullptr) profiler_->begin(id_);
    }
    ~Scope() {
      if (profiler_ != nullptr) profiler_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* profiler_;
    PhaseId id_;
  };

  [[nodiscard]] std::size_t phase_count() const { return phases_.size(); }
  [[nodiscard]] std::string_view name_of(PhaseId id) const { return phases_[id].name; }

  /// Copies the accumulated phase totals (name-sorted) into a snapshot.
  /// Phases never begun are omitted.
  [[nodiscard]] ProfileSnapshot snapshot() const;

 private:
  struct Phase {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
  };
  struct Frame {
    PhaseId id = kInvalidPhase;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
  };

  void account(PhaseId id, std::uint64_t total, std::uint64_t self,
               std::uint64_t calls) {
    Phase& p = phases_[id];
    const std::uint64_t per_call = calls > 1 ? total / calls : total;
    if (p.calls == 0) {
      p.min_ns = p.max_ns = per_call;
    } else {
      if (per_call < p.min_ns) p.min_ns = per_call;
      if (per_call > p.max_ns) p.max_ns = per_call;
    }
    p.calls += calls;
    p.total_ns += total;
    p.self_ns += self;
  }

  std::vector<Phase> phases_;
  Frame frames_[kMaxDepth];
  std::size_t depth_ = 0;
  bool enabled_ = false;
};

}  // namespace imrm::obs
