// imrm_bench: end-to-end benchmark program for the imrm simulator.
//
//   imrm_bench --workload campus_day|grid|serve --seed N --seconds S --trace 0|1
//
// Each workload feeds the library a stream of inputs for S seconds of wall
// time and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Every input is drawn from a
// std::mt19937_64 seeded with --seed, so a seed names the same inputs on
// every build. The workloads stress different layers:
//
//   campus_day  one paper-faithful campus day (run_campus_day) with a random
//               meeting size and squatter count, run under each of the five
//               advance-reservation policies: mobility manager, the
//               reservation directory and the policy stack on one simulator.
//   grid        one day of the class-schedule grid campus through the
//               sharded runner (run_campus_scale_sharded), one domain per
//               cell on one worker: per-cell admission and routed
//               reservations, plus the runner's windows, dispatches and
//               boundary exchange.
//   serve       one open-loop drive of the admission service in virtual
//               pacing (LoadDriver::run_virtual) at half its saturation
//               rate: codec, overload governor, and the NetworkEnvironment
//               behind it (Table 2 admission, advance reservations,
//               multicast, max-min resolution). Virtual pacing makes the
//               drive's queueing simulated, so what is timed is the CPU
//               cost of serving its requests, not a wall-paced drive.
//
// Timing. The host this runs on is shared, and other tenants slow it down,
// in short bursts and in phases of several seconds. Each input is executed
// kRepeats times back to back and its operation time is the fastest of
// those, which removes the bursts; that time is then scaled against a fixed
// reference kernel timed around it (see Ruler), which removes the phases.
// Set-up is timed the same way.
//
// --trace 0 reports the end-to-end metrics: the median operation time over
// all inputs, simulated events per second of operation time, and the median
// set-up time. (A p90 operation time was tried and dropped: its run-to-run
// spread stayed above 10% on a shared host.) --trace 1 runs the same inputs,
// with the program's profiler bound where the workload's entry point takes
// one (grid, serve), and reports the per-layer metrics the workload
// exercises instead, each with its unit.
//
// Correctness. Every execution is checked against invariants that hold for
// any input, every repeat must reproduce the first execution exactly, and
// every kOracleEvery-th input is compared with an independent execution of
// it: a checkpoint/resume round trip for the campus day and a two-shard,
// one-window-per-dispatch run for the grid. Oracle work is never timed.
// `attempted` counts inputs and `failed` the inputs with a failed check.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "experiments/campus_day.h"
#include "experiments/campus_scale.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "serve/load_driver.h"
#include "serve/ring_transport.h"
#include "serve/service.h"
#include "sim/simulator.h"

namespace {

using namespace imrm;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRepeats = 3;
constexpr std::size_t kOracleEvery = 8;

/// The reference kernel (see Ruler) runs at least this often, and its time
/// on a quiet host of the kind the benchmark was tuned on (4-vCPU Sapphire
/// Rapids KVM guest) is the nominal time samples are scaled to.
constexpr double kRulerEveryS = 0.1;
constexpr double kRulerNominalS = 0.004;
/// The simulator slows more than the reference kernel when other tenants
/// load the host: its time goes roughly as the kernel's to the power 1.5.
/// Fitted on that host: over eight 12-second grid runs of one seed, the
/// run medians ranged over 54% unscaled, 18% scaled with exponent 1, 6%
/// with 1.5 and 25% with 2; the campus day and the service were also
/// steadiest between 1.5 and 2.
constexpr double kRulerExponent = 1.5;

// Campus day: meeting sizes and squatter counts drawn uniformly around the
// CampusDayConfig defaults (40 attendees, 10 squatters).
constexpr std::size_t kDayAttendeesMin = 30, kDayAttendeesSpan = 21;
constexpr std::size_t kDaySquattersMin = 5, kDaySquattersSpan = 11;

// Grid: the pinned sharded campus-scale point of bench/run_benchmarks.sh
// (100 cells x 10000 portables, one hour at 5 s ticks, which are the
// CampusScaleConfig defaults), on one shard: the runner then executes
// inline, and its multi-threaded barrier timings on a shared host swing by
// 2x from run to run; the oracle covers K = 2.
constexpr std::size_t kGridCells = 100;
constexpr std::size_t kGridPortables = 10000;

// Serve: the pinned virtual service drive of bench/run_benchmarks.sh (16
// cells, 64 portables, 5 s, the default 5 ms p99 SLO and adapt_every: the
// ServiceConfig and DriveConfig defaults), but at half the virtual
// saturation rate with the default queue, instead of 1.5x with a 16-deep
// one. The pinned drive sheds a third of its requests and answers 13 with
// typed service errors (BENCH_10.json), so it fails requests by design. At
// 2500 req/s against the 200 us virtual service cost the M/D/1 queue stays
// far below the SLO and nothing is shed.
constexpr double kServeRate = 2500.0;
constexpr double kServeDriveS = 5.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times `fn` and returns its wall seconds.
template <class Fn>
double timed(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return since(t0);
}

/// Calls `once(rep)` for rep = 0 .. kRepeats-1; each call returns the wall
/// seconds of its timed part. Returns the fastest.
template <class Once>
double best_of(Once&& once) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kRepeats; ++rep) best = std::min(best, once(rep));
  return best;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a workload measures in one run.
struct Run {
  std::vector<double> op_s;     ///< best-of-kRepeats wall seconds per input
  std::vector<double> setup_s;  ///< best-of-kRepeats wall seconds per set-up
  double events = 0.0;          ///< simulated events (serve: requests), one per input
  std::uint64_t attempted = 0;  ///< inputs timed
  std::uint64_t failed = 0;     ///< timed inputs with a failed check
  bool correct = true;
  std::map<std::string, Metric> layer;  ///< per-layer metrics (trace runs)

  /// Counts one timed input, failed unless all its checks held.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  void set(const std::string& name, double value, const std::string& unit) {
    layer[name] = {value, unit};
  }

  /// Records one check; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      if (correct) std::cerr << "imrm_bench: check failed: " << what << '\n';
      correct = false;
    }
    return ok;
  }
};

std::uint64_t counter(const obs::Snapshot& s, std::string_view name) {
  const obs::CounterSample* c = s.counter(name);
  return c != nullptr ? c->value : 0;
}

std::string snapshot_json(const obs::Snapshot& s) {
  std::ostringstream os;
  s.write_json(os);
  return os.str();
}

/// A fixed reference kernel: random read-modify-write over 8 MiB, a sort
/// and a hash map, about 4 ms. Other tenants of a shared host slow down
/// everything that misses the core's own caches, by up to 1.6x and for
/// seconds at a time; this kernel slows with them, the simulator too. The
/// kernel belongs to the benchmark, so changes to the program never move it.
class Ruler {
 public:
  /// Wall seconds of one pass of the kernel.
  double time() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = state_;
    for (int k = 0; k < 100000; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint64_t& slot = arena_[x & (arena_.size() - 1)];
      sum_ += slot;
      slot = sum_ ^ x;
    }
    std::vector<std::uint32_t> keys(20000);
    for (std::uint32_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = std::uint32_t(x);
    }
    std::sort(keys.begin(), keys.end());
    std::unordered_map<std::uint32_t, std::uint32_t> map;
    for (std::size_t k = 0; k < keys.size() / 2; ++k) map[keys[2 * k]] = std::uint32_t(k);
    for (const std::uint32_t k : keys) sum_ += map.count(k);
    state_ = x;
    return since(t0);
  }

  /// Keeps the kernel's result observable so it cannot be optimised away.
  [[nodiscard]] std::uint64_t sum() const { return sum_; }

 private:
  std::vector<std::uint64_t> arena_ = std::vector<std::uint64_t>(std::size_t{1} << 20);
  std::uint64_t state_ = 88172645463325252ULL;
  std::uint64_t sum_ = 0;
};

/// The measurement loop. Calls `input(i, timed)` once untimed (warm-up),
/// then for i = 1, 2, ... until `seconds` of wall time have passed. Before
/// each timed input it records the best-of-kRepeats time of one set-up
/// drawn from `next_setup`, so set-up samples span the whole run.
///
/// The Ruler runs before the first input and then at least every
/// kRulerEveryS; each operation and set-up time is scaled by kRulerNominalS
/// over the faster of the two Ruler passes around it, to the power
/// kRulerExponent, so it reads as the time on a quiet host and other
/// tenants' load cancels out.
void measure(const Args& args, Run& run,
             const std::function<std::function<void()>()>& next_setup,
             const std::function<void(std::size_t, bool)>& input) {
  input(0, false);
  Ruler ruler;
  double before = ruler.time();
  Clock::time_point last = Clock::now();
  std::size_t op_mark = run.op_s.size(), setup_mark = run.setup_s.size();
  const auto rescale = [&] {
    const double after = ruler.time();
    const double scale = std::pow(kRulerNominalS / std::min(before, after), kRulerExponent);
    for (std::size_t k = op_mark; k < run.op_s.size(); ++k) run.op_s[k] *= scale;
    for (std::size_t k = setup_mark; k < run.setup_s.size(); ++k) run.setup_s[k] *= scale;
    op_mark = run.op_s.size();
    setup_mark = run.setup_s.size();
    before = after;
    last = Clock::now();
  };
  const Clock::time_point t0 = Clock::now();
  std::size_t i = 1;
  do {
    const std::function<void()> setup = next_setup();
    run.setup_s.push_back(best_of([&](std::size_t) { return timed(setup); }));
    input(i++, true);
    if (since(last) >= kRulerEveryS) rescale();
  } while (since(t0) < args.seconds);
  if (op_mark < run.op_s.size()) rescale();
  if (ruler.sum() == 0) std::cerr << "imrm_bench: reference kernel summed to 0\n";
}

// ---- campus_day ------------------------------------------------------------

bool same_day(const experiments::CampusDayResult& a,
              const experiments::CampusDayResult& b) {
  return a.policy == b.policy && a.attendee_drops == b.attendee_drops &&
         a.squatter_blocks == b.squatter_blocks &&
         a.squatter_admits == b.squatter_admits && a.other_drops == b.other_drops &&
         a.handoffs == b.handoffs && a.room_peak_allocated == b.room_peak_allocated;
}

void run_campus_day(const Args& args, Run& run) {
  using experiments::CampusPolicy;
  static constexpr CampusPolicy kPolicies[] = {
      CampusPolicy::kNone, CampusPolicy::kStatic, CampusPolicy::kBruteForce,
      CampusPolicy::kAggregate, CampusPolicy::kDispatcher};
  constexpr std::size_t kPolicyCount = std::size(kPolicies);
  std::mt19937_64 rng(args.seed);
  const auto next_day = [&rng] {
    experiments::CampusDayConfig c;
    c.attendees = kDayAttendeesMin + std::size_t(rng() % kDayAttendeesSpan);
    c.squatters = kDaySquattersMin + std::size_t(rng() % kDaySquattersSpan);
    c.seed = rng();
    return c;
  };

  // Set-up: build the campus (floorplan, directory, policy, population
  // schedule) and freeze it before its first event.
  std::size_t setups = 0;
  const auto next_setup = [&]() -> std::function<void()> {
    experiments::CampusDayConfig c = next_day();
    c.policy = kPolicies[setups++ % kPolicyCount];
    return [&run, c] {
      run.check(experiments::checkpoint_campus_day(c, sim::SimTime::zero()).has("sim.core"),
                "campus set-up produced no simulator checkpoint");
    };
  };

  struct Day {
    experiments::CampusDayConfig config;
    experiments::CampusDayResult result;
    obs::Snapshot snap;
    std::string snap_json;
  };
  double events = 0, admissions = 0, rejects = 0, handoffs = 0, drops = 0;
  double resv_hits = 0, resv_lookups = 0;
  // One operation: the same day under each of the five policies.
  measure(args, run, next_setup, [&](std::size_t i, bool timed_input) {
    const experiments::CampusDayConfig base = next_day();
    std::vector<Day> days(kPolicyCount);
    bool ok = true;
    const double s = best_of([&](std::size_t rep) {
      double t = 0;
      for (std::size_t p = 0; p < kPolicyCount; ++p) {
        Day& day = days[p];
        obs::Registry registry;
        day.config = base;
        day.config.policy = kPolicies[p];
        day.config.metrics = &registry;
        experiments::CampusDayResult x;
        t += timed([&] { x = experiments::run_campus_day(day.config); });
        day.config.metrics = nullptr;
        if (rep == 0) {
          day.result = x;
          day.snap = registry.snapshot();
          day.snap_json = snapshot_json(day.snap);
        } else {
          ok &= run.check(same_day(x, day.result) &&
                              snapshot_json(registry.snapshot()) == day.snap_json,
                          "campus day differs between repeats");
        }
      }
      return t;
    });

    for (const Day& day : days) {
      const experiments::CampusDayResult& r = day.result;
      ok &= run.check(r.handoffs > 0, "campus day without handoffs");
      ok &= run.check(r.room_peak_allocated <= day.config.cell_capacity,
                      "meeting room allocated beyond its capacity");
      ok &= run.check(r.attendee_drops + r.other_drops <= r.handoffs,
                      "more handoff drops than handoffs");
      ok &= run.check(counter(day.snap, "mobility.handoffs") == r.handoffs,
                      "mobility.handoffs disagrees with the day's handoff count");
      ok &= run.check(counter(day.snap, "sim.events_fired") > 0,
                      "campus day fired no events");
    }
    if (i % kOracleEvery == 0) {
      // Oracle: freeze one of the days mid-way and resume it; the resumed
      // day must match the uninterrupted one result for result, byte for
      // byte.
      const Day& day = days[(i / kOracleEvery) % kPolicyCount];
      obs::Registry frozen_registry, resumed_registry;
      experiments::CampusDayConfig frozen = day.config, resumed = day.config;
      frozen.metrics = &frozen_registry;
      resumed.metrics = &resumed_registry;
      const sim::SimTime at = sim::SimTime::minutes(10.0 + double(rng() % 160));
      const experiments::CampusDayResult back = experiments::resume_campus_day(
          resumed, experiments::checkpoint_campus_day(frozen, at));
      ok &= run.check(same_day(back, day.result),
                      "checkpoint/resume changed the day's result");
      ok &= run.check(snapshot_json(resumed_registry.snapshot()) == day.snap_json,
                      "checkpoint/resume changed the day's metrics");
    }
    if (!timed_input) return;
    run.count(ok);
    run.op_s.push_back(s);
    for (const Day& day : days) {
      const obs::Snapshot& snap = day.snap;
      const double fired = double(counter(snap, "sim.events_fired"));
      run.events += fired;
      events += fired;
      const double new_ok = double(counter(snap, "resv.new.admitted"));
      const double new_no = double(counter(snap, "resv.new.blocked"));
      const double ho_ok = double(counter(snap, "resv.handoff.admitted"));
      const double ho_no = double(counter(snap, "resv.handoff.dropped"));
      admissions += new_ok + new_no + ho_ok + ho_no;
      rejects += new_no + ho_no;
      handoffs += double(day.result.handoffs);
      drops += double(day.result.attendee_drops + day.result.other_drops);
      resv_hits += double(counter(snap, "resv.reservation.hit"));
      resv_lookups += double(counter(snap, "resv.reservation.hit") +
                             counter(snap, "resv.reservation.miss"));
    }
  });

  const double inputs = double(run.op_s.size());
  run.set("events_per_op", events / inputs, "count");
  run.set("admission_tests_per_op", admissions / inputs, "count");
  run.set("admission_reject_share", share(rejects, admissions), "ratio");
  run.set("handoffs_per_op", handoffs / inputs, "count");
  run.set("handoff_drop_share", share(drops, handoffs), "ratio");
  run.set("resv_hit_share", share(resv_hits, resv_lookups), "ratio");
}

// ---- grid ------------------------------------------------------------------

bool same_grid(const experiments::CampusScaleResult& a,
               const experiments::CampusScaleResult& b) {
  return a.outcome_hash == b.outcome_hash && a.events == b.events &&
         a.ticks == b.ticks && a.handoffs == b.handoffs &&
         a.new_admitted == b.new_admitted && a.new_blocked == b.new_blocked &&
         a.handoff_admitted == b.handoff_admitted &&
         a.handoff_dropped == b.handoff_dropped &&
         a.reservations_placed == b.reservations_placed &&
         a.departures == b.departures && a.windows == b.windows &&
         a.boundary_messages == b.boundary_messages;
}

void run_grid(const Args& args, Run& run) {
  std::mt19937_64 rng(args.seed);
  obs::Profiler profiler;
  profiler.set_enabled(args.trace);
  const auto next_config = [&rng] {
    experiments::CampusScaleConfig c;
    c.cells = kGridCells;
    c.portables = kGridPortables;
    c.seed = rng();
    c.shards = 1;
    c.batch = 0;  // adaptive window batching, the runner's default
    return c;
  };

  // Set-up: floorplan, the generated class-schedule day and the runner's
  // worker pool, driven for a single window.
  const auto next_setup = [&]() -> std::function<void()> {
    experiments::CampusScaleConfig c = next_config();
    c.duration = c.tick;
    return [&run, c] {
      run.check(experiments::run_campus_scale_sharded(c).ticks > 0,
                "grid set-up ran no window");
    };
  };

  double events = 0, admissions = 0, rejects = 0, handoffs = 0, drops = 0;
  double reservations = 0, dispatches = 0, windows = 0, messages = 0, bytes_pp = 0;
  double busy = 0, exchange = 0, coordinator = 0;
  measure(args, run, next_setup, [&](std::size_t i, bool timed_input) {
    experiments::CampusScaleConfig c = next_config();
    if (args.trace) c.profiler = &profiler;
    experiments::CampusScaleResult r;
    bool ok = true;
    const double s = best_of([&](std::size_t rep) {
      experiments::CampusScaleResult x;
      const double t = timed([&] { x = experiments::run_campus_scale_sharded(c); });
      if (rep == 0) {
        r = x;
      } else {
        ok &= run.check(same_grid(x, r), "grid day differs between repeats");
      }
      if (timed_input) {
        for (const obs::ShardLaneSample& lane : x.profile.shards) {
          busy += double(lane.busy_ns);
          exchange += double(lane.barrier_wait_ns);
          coordinator += double(lane.idle_ns);
        }
      }
      return t;
    });

    ok &= run.check(r.departures == c.portables, "grid: not every portable departed");
    ok &= run.check(r.events == r.handoffs + 4 * c.portables,
                    "grid: events != handoffs + four milestones per portable");
    ok &= run.check(r.handoff_admitted + r.handoff_dropped <= r.handoffs,
                    "grid: more handoff decisions than handoffs");
    ok &= run.check(r.windows > 0 && r.dispatches > 0 && r.dispatches <= r.windows,
                    "grid: runner dispatch accounting out of range");
    if (i % kOracleEvery == 0) {
      // Oracle: the same day on two worker threads, one window per
      // dispatch, must be byte-identical (the runner's shard/batch
      // invariance contract).
      experiments::CampusScaleConfig parallel = c;
      parallel.profiler = nullptr;
      parallel.shards = 2;
      parallel.batch = 1;
      ok &= run.check(same_grid(experiments::run_campus_scale_sharded(parallel), r),
                      "grid: two-shard oracle differs from the one-shard run");
    }
    if (!timed_input) return;
    run.count(ok);
    run.op_s.push_back(s);
    run.events += double(r.events);
    events += double(r.events);
    admissions += double(r.new_admitted + r.new_blocked + r.handoff_admitted +
                         r.handoff_dropped);
    rejects += double(r.new_blocked + r.handoff_dropped);
    handoffs += double(r.handoffs);
    drops += double(r.handoff_dropped);
    reservations += double(r.reservations_placed);
    dispatches += double(r.dispatches);
    windows += double(r.windows);
    messages += double(r.boundary_messages);
    bytes_pp += r.bytes_per_portable;
  });

  const double inputs = double(run.op_s.size());
  run.set("events_per_op", events / inputs, "count");
  run.set("admission_tests_per_op", admissions / inputs, "count");
  run.set("admission_reject_share", share(rejects, admissions), "ratio");
  run.set("handoffs_per_op", handoffs / inputs, "count");
  run.set("handoff_drop_share", share(drops, handoffs), "ratio");
  run.set("grid_reservations_per_op", reservations / inputs, "count");
  run.set("grid_bytes_per_portable", bytes_pp / inputs, "B");
  run.set("shard_dispatches_per_op", dispatches / inputs, "count");
  run.set("shard_windows_per_dispatch", share(windows, dispatches), "count");
  run.set("shard_boundary_msgs_per_op", messages / inputs, "count");
  // The profile's three lanes. On one shard the runner runs its single
  // worker inline, so no thread ever waits at a barrier: the lane the
  // profile calls barrier wait is the serializer's boundary exchange and
  // next-window scan between sub-windows, and the idle lane is the
  // coordinator's bookkeeping between dispatches.
  const double lanes = busy + exchange + coordinator;
  run.set("shard_busy_share", share(busy, lanes), "ratio");
  run.set("shard_exchange_share", share(exchange, lanes), "ratio");
  run.set("shard_coordinator_share", share(coordinator, lanes), "ratio");
}

// ---- serve -----------------------------------------------------------------

struct Drive {
  serve::ServiceStats service;
  serve::DriveStats driver;
  std::uint64_t dropped_replies = 0;
};

bool same_drive(const Drive& a, const Drive& b) {
  const serve::ServiceStats &x = a.service, &y = b.service;
  return x.offered == y.offered && x.processed == y.processed && x.shed == y.shed &&
         x.errors == y.errors && x.admit_accepted == y.admit_accepted &&
         x.admit_rejected == y.admit_rejected && x.teardowns == y.teardowns &&
         x.handoffs == y.handoffs && x.handoff_drops == y.handoff_drops &&
         x.probes == y.probes && x.peak_queue_depth == y.peak_queue_depth &&
         a.driver.sent == b.driver.sent && a.driver.accepted == b.driver.accepted &&
         a.driver.rejected == b.driver.rejected;
}

void run_serve(const Args& args, Run& run) {
  std::mt19937_64 rng(args.seed);
  obs::Profiler profiler;
  profiler.set_enabled(args.trace);

  const serve::ServiceConfig service_config;
  serve::DriveConfig drive_config;
  drive_config.rate = kServeRate;
  drive_config.duration_s = kServeDriveS;
  drive_config.cells = std::uint32_t(service_config.cells);

  // Set-up: start the service (cell map, backbone topology, routing,
  // environment) and its driver, serve nothing.
  const auto next_setup = [&]() -> std::function<void()> {
    return [&run, &service_config, &drive_config] {
      sim::Simulator simulator;
      serve::AdmissionService service(service_config, simulator);
      serve::RingTransport ring;
      serve::LoadDriver driver(drive_config);
      run.check(service.cells() == service_config.cells,
                "service started with the wrong cell map");
    };
  };

  double requests = 0, processed = 0, admissions = 0, rejects = 0, handoffs = 0;
  double drops = 0, queue_peak = 0, traced_wall = 0;
  measure(args, run, next_setup, [&](std::size_t, bool timed_input) {
    serve::DriveConfig dc = drive_config;
    dc.seed = rng();
    serve::ServiceConfig sc = service_config;
    if (timed_input && args.trace) sc.profiler = &profiler;
    Drive d;
    bool ok = true;
    const double s = best_of([&](std::size_t rep) {
      // A fresh service per drive; only the drive itself is timed.
      sim::Simulator simulator;
      serve::AdmissionService service(sc, simulator);
      serve::RingTransport ring;
      serve::LoadDriver driver(dc);
      Drive x;
      const double t = timed([&] { x.driver = driver.run_virtual(simulator, ring, service); });
      x.service = service.stats();
      x.dropped_replies = ring.dropped_replies();
      if (rep == 0) {
        d = x;
      } else {
        // Virtual pacing is bit-deterministic: a repeat replays the drive
        // decision for decision.
        ok &= run.check(same_drive(x, d), "serve drive differs between repeats");
      }
      if (sc.profiler != nullptr) {
        traced_wall += t;
        processed += double(x.service.processed);
      }
      return t;
    });
    const serve::ServiceStats& st = d.service;

    ok &= run.check(st.offered == st.processed + st.shed,
                    "serve: offered != processed + shed");
    ok &= run.check(d.driver.sent == st.offered, "serve: driver sent != service offered");
    ok &= run.check(d.driver.sent == d.driver.accepted + d.driver.rejected +
                                         d.driver.shed + d.driver.errors +
                                         d.driver.unanswered,
                    "serve: driver replies do not add up to requests sent");
    ok &= run.check(d.driver.sent > 0, "serve: no requests sent");
    ok &= run.check(d.dropped_replies == 0, "serve: ring dropped replies");
    const std::uint64_t refused = st.shed + st.errors + d.driver.unanswered;
    ok &= run.check(refused == 0, "serve: requests shed, errored or unanswered below saturation");
    if (!timed_input) return;
    run.count(ok);
    run.op_s.push_back(s);
    run.events += double(d.driver.sent);
    requests += double(d.driver.sent);
    admissions += double(st.admit_accepted + st.admit_rejected + st.handoffs);
    rejects += double(st.admit_rejected + st.handoff_drops);
    handoffs += double(st.handoffs);
    drops += double(st.handoff_drops);
    queue_peak = std::max(queue_peak, double(st.peak_queue_depth));
  });

  const double inputs = double(run.op_s.size());
  run.set("events_per_op", requests / inputs, "count");
  run.set("admission_tests_per_op", admissions / inputs, "count");
  run.set("admission_reject_share", share(rejects, admissions), "ratio");
  run.set("handoffs_per_op", handoffs / inputs, "count");
  run.set("handoff_drop_share", share(drops, handoffs), "ratio");
  run.set("serve_queue_peak", queue_peak, "count");
  if (!args.trace) return;
  double attributed_ns = 0;
  for (const obs::PhaseSample& p : profiler.snapshot().phases) {
    attributed_ns += double(p.self_ns);
    const std::string key = p.name == "serve.decode"  ? "serve_decode_us"
                            : p.name == "serve.admit" ? "serve_admit_us"
                            : p.name == "serve.reply" ? "serve_reply_us"
                                                      : "";
    if (!key.empty()) run.set(key, share(double(p.self_ns) / 1e3, processed), "us");
  }
  run.set("serve_unattributed_share", 1.0 - share(attributed_ns / 1e9, traced_wall), "ratio");
}

// ---- report ----------------------------------------------------------------

/// Prints the result line: the workload's per-layer metrics for a traced
/// run, the end-to-end metrics otherwise.
void emit(const Args& args, Run& run) {
  std::map<std::string, Metric> metrics;
  if (args.trace) {
    run.set("traced_op_ms", quantile(run.op_s, 0.5) * 1e3, "ms");
    metrics = run.layer;
  } else {
    double op_total = 0;
    for (double s : run.op_s) op_total += s;
    metrics["op_ms"] = {quantile(run.op_s, 0.5) * 1e3, "ms"};
    metrics["events_per_s"] = {share(run.events, op_total), "1/s"};
    metrics["setup_s"] = {quantile(run.setup_s, 0.5), "s"};
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "imrm_bench: " << why
            << "\nusage: imrm_bench --workload campus_day|grid|serve --seed N "
               "--seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') usage("bad --seed " + value);
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        usage("bad --seconds " + value);
      }
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      a.trace = value == "1";
      have[3] = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) usage("all four flags are required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::map<std::string, void (*)(const Args&, Run&)> workloads = {
      {"campus_day", run_campus_day}, {"grid", run_grid}, {"serve", run_serve}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) usage("unknown workload " + args.workload);
  Run run;
  try {
    it->second(args, run);
  } catch (const std::exception& e) {
    std::cerr << "imrm_bench: " << args.workload << " failed: " << e.what() << '\n';
    return 1;
  }
  emit(args, run);
  return 0;
}
