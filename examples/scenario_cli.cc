// imrm scenario runner: a command-line front end for the experiment
// harnesses, so scenarios can be swept without recompiling.
//
//   $ ./scenario_cli classroom --size 55 --policy brute-force --seed 7
//   $ ./scenario_cli twocell --window 0.05 --pqos 0.01 --rule probabilistic
//   $ ./scenario_cli fig4 --hours 100 --users 12
//   $ ./scenario_cli maxmin --links 8 --conns 24 --seed 3
//   $ ./scenario_cli campus --policy dispatcher --attendees 40 --seed 5
//   $ ./scenario_cli campus --attendees 40 --faults 0.2 --seed 5
//   $ ./scenario_cli faults --topology campus --drop 0.1 --crashes 1
//
// Every subcommand also accepts the observability flags:
//   --metrics-json <path>   write a versioned obs::RunReport JSON document
//   --trace-out <path>      write a Chrome trace_event JSON (Perfetto-loadable)
// Leading flags with no subcommand default to the campus scenario, so
//   $ ./scenario_cli --metrics-json out.json --trace-out trace.json
// runs a campus day and emits both artifacts.
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "experiments/campus_day.h"
#include "experiments/campus_scale.h"
#include "experiments/classroom.h"
#include "experiments/sharded_campus.h"
#include "experiments/fig4_mobility.h"
#include "experiments/twocell.h"
#include "fault/convergence.h"
#include "fault/fault_model.h"
#include "fault/schedule.h"
#include "maxmin/protocol.h"
#include "maxmin/waterfill.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "serve/load_driver.h"
#include "serve/socket_transport.h"
#include "stats/table.h"

#include <thread>

using namespace imrm;
using namespace imrm::experiments;

namespace {

/// Minimal flag scanner: --name value pairs after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) == 0) values_[argv[i] + 2] = argv[i + 1];
    }
  }
  // Numeric flags go through parse_count / parse_number below — strict,
  // full-token parses that exit 2 on garbage. There is deliberately no lax
  // std::stod accessor here.
  [[nodiscard]] std::string text(const std::string& name, std::string fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

bool parse_count(const Flags& flags, const std::string& name, std::size_t fallback,
                 std::size_t& out);
bool parse_number(const Flags& flags, const std::string& name, double fallback,
                  double& out, bool probability);

/// Shared observability state for one CLI run: the registry/tracer/profiler
/// handed to the experiment, the output paths, and the report skeleton.
struct ObsSession {
  explicit ObsSession(const Flags& flags)
      : metrics_path(flags.text("metrics-json", "")),
        trace_path(flags.text("trace-out", "")) {
    std::size_t profile_flag = 0;
    double progress_period = 0.0;
    if (!parse_count(flags, "profile", 0, profile_flag)) flag_error = true;
    if (!parse_number(flags, "progress", 0.0, progress_period, false)) {
      flag_error = true;
    }
    want_profile_ = profile_flag != 0;
    if (want_profile_ && !obs::Profiler::compiled_in()) {
      std::cerr << "scenario_cli: --profile requested but profiling is "
                   "compiled out (IMRM_PROFILING=0); running without it\n";
      want_profile_ = false;
    }
    profiler.set_enabled(want_profile_);
    progress = obs::ProgressMeter(progress_period);
    tracer.set_enabled(want_trace());
    start = std::chrono::steady_clock::now();
  }

  [[nodiscard]] bool want_metrics() const { return !metrics_path.empty(); }
  [[nodiscard]] bool want_trace() const { return !trace_path.empty(); }
  [[nodiscard]] bool want_profile() const { return want_profile_; }
  [[nodiscard]] obs::Registry* registry_or_null() {
    return want_metrics() ? &registry : nullptr;
  }
  [[nodiscard]] obs::Tracer* tracer_or_null() {
    return want_trace() ? &tracer : nullptr;
  }
  [[nodiscard]] obs::Profiler* profiler_or_null() {
    return want_profile_ ? &profiler : nullptr;
  }
  [[nodiscard]] obs::ProgressMeter* progress_or_null() {
    return progress.armed() ? &progress : nullptr;
  }

  void config_echo(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }

  /// Writes whichever artifacts were requested. `sim_seconds`/`events_fired`
  /// come from the experiment's own metric export when present. A non-null
  /// `profile_override` replaces the session profiler's snapshot — used by
  /// experiments that augment it with engine-side accounting (shard lanes).
  /// A non-null `service` attaches the schema-v3 service block (serve/drive);
  /// a non-null `adaptation` attaches the schema-v4 adaptation block
  /// (campus --adapt-loop).
  int finish(const std::string& scenario, const obs::Snapshot& snapshot,
             const obs::ProfileSnapshot* profile_override = nullptr,
             const obs::ServiceBlock* service = nullptr,
             const obs::AdaptationBlock* adaptation = nullptr) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    obs::ProfileSnapshot profile;
    if (profile_override != nullptr) {
      profile = *profile_override;
    } else if (want_profile()) {
      profile = profiler.snapshot();
    }
    if (want_metrics()) {
      obs::RunReport report;
      report.tool = "scenario_cli";
      report.scenario = scenario;
      report.config = config;
      report.wall_seconds = std::chrono::duration<double>(elapsed).count();
      if (const obs::GaugeSample* g = snapshot.gauge("sim.time_seconds")) {
        report.sim_seconds = g->value;
      }
      if (const obs::CounterSample* c = snapshot.counter("sim.events_fired")) {
        report.events_fired = c->value;
      }
      report.metrics = snapshot;
      report.profile = profile;
      if (service != nullptr) report.service = *service;
      if (adaptation != nullptr) report.adaptation = *adaptation;
      std::ofstream os(metrics_path);
      if (!os) {
        std::cerr << "cannot write " << metrics_path << '\n';
        return 1;
      }
      report.write_json(os);
      os << '\n';
    }
    if (want_trace()) {
      std::ofstream os(trace_path);
      if (!os) {
        std::cerr << "cannot write " << trace_path << '\n';
        return 1;
      }
      tracer.write_chrome_trace(os);
      os << '\n';
    }
    if (want_profile() && !profile.empty()) profile.write_table(std::cout);
    return 0;
  }

  std::string metrics_path;
  std::string trace_path;
  obs::Registry registry;
  obs::Tracer tracer;
  obs::Profiler profiler;
  obs::ProgressMeter progress;
  std::vector<std::pair<std::string, std::string>> config;
  std::chrono::steady_clock::time_point start;
  /// Malformed --profile/--progress value; main exits 2 before dispatch.
  bool flag_error = false;

 private:
  bool want_profile_ = false;
};

std::string fmt_count(double v) { return stats::fmt(v, 0); }

/// Strict parse for count-valued flags (--replications, --threads, ...): the
/// value must be a plain non-negative decimal integer. Malformed values get a
/// diagnostic and a false return so sweeps fail loudly with a non-zero exit
/// instead of crashing in std::stod or silently truncating "4x" to 4.
bool parse_count(const Flags& flags, const std::string& name, std::size_t fallback,
                 std::size_t& out) {
  const std::string raw = flags.text(name, "");
  if (raw.empty()) {
    out = fallback;
    return true;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0' || errno == ERANGE || raw.front() == '-') {
    std::cerr << "scenario_cli: invalid --" << name << " value '" << raw
              << "' (expected a non-negative integer)\n";
    return false;
  }
  out = std::size_t(value);
  return true;
}

/// Strict parse for real-valued flags (--drop, --pqos, --hours, ...). The
/// whole token must parse as a finite double; NaN, infinities, trailing
/// garbage ("0.1x"), and negative values are rejected with a diagnostic so a
/// typo'd sweep exits 2 instead of feeding std::stod wreckage (or a negative
/// probability) into the simulation. Flags marked `probability` must also be
/// <= 1.
bool parse_number(const Flags& flags, const std::string& name, double fallback,
                  double& out, bool probability = false) {
  const std::string raw = flags.text(name, "");
  if (raw.empty()) {
    out = fallback;
    return true;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  const bool malformed = end == raw.c_str() || *end != '\0' || errno == ERANGE ||
                         !std::isfinite(value);
  if (malformed || value < 0.0 || (probability && value > 1.0)) {
    std::cerr << "scenario_cli: invalid --" << name << " value '" << raw << "' (expected a "
              << (probability ? "probability in [0, 1]" : "finite non-negative number")
              << ")\n";
    return false;
  }
  out = value;
  return true;
}

/// Shared --faults / --fault-retries handling for the experiment commands:
/// a positive drop probability turns every admission probe into an
/// UnreliableCall over a Bernoulli-loss channel. False = malformed flag
/// (already diagnosed); the caller must exit 2.
bool apply_signaling_faults(const Flags& flags, fault::SignalingFaults& faults,
                            ObsSession& obs) {
  double drop = 0.0;
  std::size_t retries = 0;
  if (!parse_number(flags, "faults", 0.0, drop, /*probability=*/true)) return false;
  if (!parse_count(flags, "fault-retries", 3, retries)) return false;
  if (drop <= 0.0) return true;
  faults.model = fault::LinkFaultModel::bernoulli_loss(drop);
  faults.max_attempts = int(retries);
  obs.config_echo("faults", stats::fmt(drop, 4));
  obs.config_echo("fault-retries", fmt_count(double(faults.max_attempts)));
  return true;
}

int run_classroom_cmd(const Flags& flags, ObsSession& obs) {
  ClassroomConfig config;
  std::size_t size = 0, seed = 0;
  double passby = 0.0;
  if (!parse_count(flags, "size", 35, size)) return 2;
  if (!parse_count(flags, "seed", 7, seed)) return 2;
  if (!parse_number(flags, "passby", 18.0, passby)) return 2;
  config.class_size = size;
  config.meeting = {sim::SimTime::minutes(60), sim::SimTime::minutes(110),
                    config.class_size};
  config.seed = std::uint64_t(seed);
  config.passby_per_minute = passby;
  const std::string policy = flags.text("policy", "meeting-room");
  if (policy == "brute-force") config.policy = PolicyKind::kBruteForce;
  else if (policy == "aggregate") config.policy = PolicyKind::kAggregate;
  else if (policy == "static") config.policy = PolicyKind::kStatic;
  else if (policy == "none") config.policy = PolicyKind::kNone;
  else if (policy == "meeting-room") config.policy = PolicyKind::kMeetingRoom;
  else {
    std::cerr << "scenario_cli: invalid --policy value '" << policy
              << "' (expected meeting-room, brute-force, aggregate, static or "
                 "none)\n";
    return 2;
  }
  config.metrics = obs.registry_or_null();
  config.tracer = obs.tracer_or_null();
  obs.config_echo("size", fmt_count(double(config.class_size)));
  obs.config_echo("policy", policy);
  obs.config_echo("seed", fmt_count(double(config.seed)));

  const ClassroomResult result = run_classroom(config);
  std::cout << "policy=" << result.policy << " size=" << result.attendees
            << " load=" << stats::fmt(result.offered_load * 100, 0) << "%"
            << " drops=" << result.connection_drops << " walkers=" << result.walkers
            << '\n';
  return obs.finish("classroom", obs.registry.snapshot());
}

int run_twocell_cmd(const Flags& flags, ObsSession& obs) {
  TwoCellConfig config;
  std::size_t seed = 0;
  if (!parse_number(flags, "window", 0.05, config.window)) return 2;
  if (!parse_number(flags, "pqos", 0.01, config.p_qos, /*probability=*/true)) return 2;
  if (!parse_number(flags, "duration", 1000.0, config.duration)) return 2;
  if (!parse_number(flags, "guard", 0.1, config.guard_fraction, /*probability=*/true)) {
    return 2;
  }
  if (!parse_count(flags, "seed", 3, seed)) return 2;
  config.seed = std::uint64_t(seed);
  const std::string rule = flags.text("rule", "probabilistic");
  if (rule == "static") config.rule = AdmissionRule::kStaticGuard;
  else if (rule == "none") config.rule = AdmissionRule::kNoReservation;
  else if (rule == "probabilistic") config.rule = AdmissionRule::kProbabilistic;
  else {
    std::cerr << "scenario_cli: invalid --rule value '" << rule
              << "' (expected probabilistic, static or none)\n";
    return 2;
  }
  config.metrics = obs.registry_or_null();
  config.tracer = obs.tracer_or_null();
  if (!apply_signaling_faults(flags, config.faults, obs)) return 2;
  obs.config_echo("rule", rule);
  obs.config_echo("window", stats::fmt(config.window, 4));
  obs.config_echo("pqos", stats::fmt(config.p_qos, 4));
  obs.config_echo("seed", fmt_count(double(config.seed)));

  const TwoCellResult r = run_twocell(config);
  std::cout << "rule=" << rule << " T=" << config.window << " Pqos=" << config.p_qos
            << "  Pb=" << stats::fmt(r.p_block(), 5) << " Pd=" << stats::fmt(r.p_drop(), 5)
            << " (" << r.new_attempts << " arrivals, " << r.handoff_attempts
            << " handoffs)\n";
  return obs.finish("twocell", obs.registry.snapshot());
}

int run_fig4_cmd(const Flags& flags, ObsSession& obs) {
  Fig4Config config;
  std::size_t users = 0, seed = 0;
  if (!parse_number(flags, "hours", 100.0, config.hours)) return 2;
  if (!parse_count(flags, "users", 12, users)) return 2;
  if (!parse_count(flags, "seed", 1, seed)) return 2;
  config.background_users = int(users);
  config.seed = std::uint64_t(seed);
  config.metrics = obs.registry_or_null();
  config.tracer = obs.tracer_or_null();
  obs.config_echo("hours", stats::fmt(config.hours, 1));
  obs.config_echo("users", fmt_count(double(config.background_users)));
  obs.config_echo("seed", fmt_count(double(config.seed)));

  const Fig4Result r = run_fig4(config);
  auto pct = [](std::size_t a, std::size_t b) {
    return b ? stats::fmt(100.0 * double(a) / double(b), 1) : std::string("-");
  };
  std::cout << "faculty C->D fanout: A " << pct(r.faculty.to_a, r.faculty.total())
            << "% | towards B " << pct(r.faculty.toward_b, r.faculty.total())
            << "% | F/G " << pct(r.faculty.to_fg, r.faculty.total()) << "%\n";
  std::cout << "prediction hit rate: "
            << pct(r.predictive_hits, r.predictive_reservations) << "% over "
            << r.predictive_reservations << " reservations ("
            << r.total_handoffs << " handoffs)\n";
  return obs.finish("fig4", obs.registry.snapshot());
}

int run_maxmin_cmd(const Flags& flags, ObsSession& obs) {
  std::size_t links = 0, conns = 0, seed = 0;
  if (!parse_count(flags, "links", 6, links)) return 2;
  if (!parse_count(flags, "conns", 12, conns)) return 2;
  if (!parse_count(flags, "seed", 1, seed)) return 2;
  if (links == 0) {
    std::cerr << "scenario_cli: --links must be at least 1\n";
    return 2;
  }
  const int n_links = int(links);
  const int n_conns = int(conns);
  std::mt19937_64 rng{std::uint64_t(seed)};
  std::uniform_real_distribution<double> cap(5.0, 50.0);
  obs.config_echo("links", fmt_count(double(n_links)));
  obs.config_echo("conns", fmt_count(double(n_conns)));

  maxmin::Problem problem;
  for (int i = 0; i < n_links; ++i) problem.links.push_back({cap(rng)});
  for (int c = 0; c < n_conns; ++c) {
    std::uniform_int_distribution<int> start_dist(0, n_links - 1);
    const int start = start_dist(rng);
    std::uniform_int_distribution<int> end_dist(start, n_links - 1);
    const int end = end_dist(rng);
    maxmin::ProblemConnection conn;
    for (int li = start; li <= end; ++li) conn.path.push_back(std::size_t(li));
    problem.connections.push_back(std::move(conn));
  }

  sim::Simulator simulator;
  if (obs.want_trace()) simulator.set_tracer(&obs.tracer);
  maxmin::DistributedProtocol protocol(simulator, problem, {});
  protocol.start_all();
  const std::uint64_t adapt0 =
      obs.want_profile() ? obs::Profiler::now_ns() : 0;
  protocol.run_to_quiescence();
  if (obs.want_profile()) {
    // Aggregate wall cost of the max-min adaptation: total protocol runtime
    // attributed across the rounds it took to converge.
    const std::uint64_t rounds = std::max<std::uint64_t>(
        1, std::uint64_t(protocol.rounds_run()));
    obs.profiler.record(obs.profiler.intern("maxmin.adaptation_round"),
                        obs::Profiler::now_ns() - adapt0, rounds);
  }
  if (obs.want_metrics()) {
    simulator.collect_metrics(obs.registry);
    protocol.export_metrics(obs.registry);
  }
  const auto optimum = maxmin::waterfill(problem);
  double dev = 0.0;
  for (std::size_t i = 0; i < optimum.rates.size(); ++i) {
    dev = std::max(dev, std::abs(protocol.rates()[i] - optimum.rates[i]));
  }
  std::cout << "links=" << n_links << " conns=" << n_conns << " messages="
            << protocol.messages_sent() << " rounds=" << protocol.rounds_run()
            << " max-dev-from-optimal=" << stats::fmt(dev, 9) << '\n';
  return obs.finish("maxmin", obs.registry.snapshot());
}

/// `campus --shards K`: the sharded multi-cell corridor scenario. K is the
/// worker count only — cells are the determinism unit, so the metrics block
/// of --metrics-json is byte-identical for any K (asserted by the
/// shard-labeled ctests through tools/check_shard_determinism.py).
int run_campus_sharded_cmd(const Flags& flags, ObsSession& obs, std::size_t shards) {
  ShardedCampusConfig config;
  std::size_t cells = 0, portables = 0, seed = 0, batch = 0;
  double hours = 0.0, hop_ms = 0.0;
  if (!parse_count(flags, "cells", 24, cells)) return 2;
  if (!parse_count(flags, "portables", 8, portables)) return 2;
  if (!parse_count(flags, "seed", 5, seed)) return 2;
  if (!parse_count(flags, "batch", 0, batch)) return 2;
  if (!parse_number(flags, "hours", 4.0, hours)) return 2;
  if (!parse_number(flags, "hop-ms", 5.0, hop_ms)) return 2;
  if (cells == 0) {
    std::cerr << "scenario_cli: --cells must be at least 1\n";
    return 2;
  }
  if (hop_ms <= 0.0) {
    std::cerr << "scenario_cli: --hop-ms must be positive (it is the "
                 "conservative window width)\n";
    return 2;
  }
  config.cells = cells;
  config.shards = shards;
  config.batch = batch;
  config.portables_per_cell = portables;
  config.seed = std::uint64_t(seed);
  config.horizon = sim::SimTime::hours(hours);
  config.hop_latency = sim::Duration::millis(hop_ms);
  config.profiler = obs.profiler_or_null();
  config.tracer = obs.tracer_or_null();
  config.progress = obs.progress_or_null();
  obs.config_echo("cells", fmt_count(double(cells)));
  obs.config_echo("shards", fmt_count(double(shards)));
  // batch is execution-only; echo it only when explicitly set so default
  // runs keep their pre-batching config fingerprint (bench_compare.py keys
  // trajectory entries on the config echo).
  if (batch > 0) obs.config_echo("batch", fmt_count(double(batch)));
  obs.config_echo("portables", fmt_count(double(portables)));
  obs.config_echo("seed", fmt_count(double(config.seed)));
  obs.config_echo("hours", stats::fmt(hours, 2));

  const ShardedCampusResult r = run_sharded_campus(config);
  std::cout << "cells=" << cells << " shards=" << shards
            << " events=" << r.events_fired << " windows=" << r.windows
            << " boundary=" << r.boundary_messages << " admits=" << r.admits
            << " blocks=" << r.blocks << " handoffs=" << r.handoffs
            << " drops=" << r.handoff_drops << " reclaims=" << r.lease_reclaims
            << '\n';
  return obs.finish("campus-sharded", r.metrics, &r.profile);
}

/// Builds the schema-v4 adaptation block from the run's metric snapshot plus
/// the grant trajectory (single runs only; sweep aggregates leave it zero).
obs::AdaptationBlock make_adaptation_block(const CampusDayConfig& config,
                                           const obs::Snapshot& snapshot,
                                           const CampusDayResult* result) {
  const auto count = [&snapshot](const char* name) -> std::uint64_t {
    const obs::CounterSample* c = snapshot.counter(name);
    return c == nullptr ? 0 : c->value;
  };
  const auto level = [&snapshot](const char* name) -> double {
    const obs::GaugeSample* g = snapshot.gauge(name);
    return g == nullptr ? 0.0 : g->value;
  };
  obs::AdaptationBlock block;
  block.present = true;
  block.flows = config.adapt.flows;
  block.renegotiations_triggered = count("adapt.renegotiations_triggered");
  block.renegotiations_accepted = count("adapt.renegotiations_accepted");
  block.windows_breached = count("adapt.windows_breached");
  block.windows_clean = count("adapt.windows_clean");
  block.windows_insufficient = count("adapt.windows_insufficient");
  block.offered_bits = count("adapt.shaper_offered_bits");
  block.bg_bits = count("adapt.shaper_bg_bits");
  block.wc_bits = count("adapt.shaper_wc_bits");
  block.nonconforming_bits = count("adapt.shaper_nonconforming_bits");
  block.hop_offered_packets = count("adapt.hop_offered_packets");
  block.hop_delivered_packets = count("adapt.hop_delivered_packets");
  block.hop_dropped_packets = count("adapt.hop_dropped_packets");
  block.granted_bps = level("adapt.granted_bps");
  block.enforced_bps = level("adapt.enforced_bps");
  if (result != nullptr) {
    block.granted_prefault_bps = result->adapt_granted_prefault_bps;
    block.granted_min_bps = result->adapt_granted_min_bps;
    block.granted_final_bps = result->adapt_granted_final_bps;
  }
  return block;
}

int run_campus_cmd(const Flags& flags, ObsSession& obs) {
  std::size_t shards = 0, adapt_loop = 0;
  if (!parse_count(flags, "shards", 0, shards)) return 2;
  if (!parse_count(flags, "adapt-loop", 0, adapt_loop)) return 2;
  if (shards == 0 && !flags.text("batch", "").empty()) {
    std::cerr << "scenario_cli: --batch tunes the sharded runner's window "
                 "batching; it requires --shards K\n";
    return 2;
  }
  if (shards > 0) {
    if (adapt_loop != 0) {
      std::cerr << "scenario_cli: --adapt-loop runs the single-process campus "
                   "day; it does not support --shards\n";
      return 2;
    }
    return run_campus_sharded_cmd(flags, obs, shards);
  }

  CampusDayConfig config;
  std::size_t attendees = 0, squatters = 0, seed = 0;
  if (!parse_count(flags, "attendees", 40, attendees)) return 2;
  if (!parse_count(flags, "squatters", 10, squatters)) return 2;
  if (!parse_count(flags, "seed", 5, seed)) return 2;
  config.attendees = attendees;
  config.squatters = squatters;
  config.seed = std::uint64_t(seed);
  const std::string policy = flags.text("policy", "dispatcher");
  if (policy == "none") config.policy = CampusPolicy::kNone;
  else if (policy == "static") config.policy = CampusPolicy::kStatic;
  else if (policy == "brute-force") config.policy = CampusPolicy::kBruteForce;
  else if (policy == "aggregate") config.policy = CampusPolicy::kAggregate;
  else if (policy == "dispatcher") config.policy = CampusPolicy::kDispatcher;
  else {
    std::cerr << "scenario_cli: invalid --policy value '" << policy
              << "' (expected dispatcher, aggregate, brute-force, static or "
                 "none)\n";
    return 2;
  }
  std::size_t replications = 0;
  std::size_t threads = 0;
  double checkpoint_at = 0.0;
  if (!parse_count(flags, "replications", 1, replications)) return 2;
  if (!parse_count(flags, "threads", 0, threads)) return 2;
  if (!parse_number(flags, "checkpoint-at", 60.0, checkpoint_at)) return 2;
  if (replications == 0) {
    // A 0-replication sweep used to fall through to a single run, silently
    // ignoring the flag; fail loudly instead.
    std::cerr << "scenario_cli: --replications must be at least 1\n";
    return 2;
  }
  const std::string ckpt_out = flags.text("checkpoint-out", "");
  const std::string ckpt_in = flags.text("checkpoint-in", "");
  if (!ckpt_out.empty() && !ckpt_in.empty()) {
    std::cerr << "scenario_cli: --checkpoint-out and --checkpoint-in are exclusive\n";
    return 2;
  }
  if ((!ckpt_out.empty() || !ckpt_in.empty()) && replications > 1) {
    std::cerr << "scenario_cli: checkpoints apply to single runs, not --replications\n";
    return 2;
  }
  std::size_t adapt_flows = 0;
  double adapt_fault = 0.0, adapt_fault_start = 0.0, adapt_fault_stop = 0.0;
  if (!parse_count(flags, "adapt-flows", 4, adapt_flows)) return 2;
  if (!parse_number(flags, "adapt-fault", 0.8, adapt_fault, /*probability=*/true)) {
    return 2;
  }
  if (!parse_number(flags, "adapt-fault-start", 60.0, adapt_fault_start)) return 2;
  if (!parse_number(flags, "adapt-fault-stop", 100.0, adapt_fault_stop)) return 2;
  if (adapt_loop != 0) {
    if (!ckpt_out.empty() || !ckpt_in.empty()) {
      std::cerr << "scenario_cli: the adaptation loop does not support "
                   "checkpoint/resume; drop --adapt-loop or the "
                   "--checkpoint-out/--checkpoint-in flag\n";
      return 2;
    }
    if (adapt_flows == 0) {
      std::cerr << "scenario_cli: --adapt-flows must be at least 1\n";
      return 2;
    }
    if (adapt_fault > 0.0 && adapt_fault_start >= adapt_fault_stop) {
      std::cerr << "scenario_cli: --adapt-fault-start (" << stats::fmt(adapt_fault_start, 1)
                << ") must be before --adapt-fault-stop ("
                << stats::fmt(adapt_fault_stop, 1) << ")\n";
      return 2;
    }
    config.adapt.enabled = true;
    config.adapt.flows = adapt_flows;
    config.adapt.fault_loss = adapt_fault;
    config.adapt.fault_start = sim::SimTime::minutes(adapt_fault_start);
    config.adapt.fault_stop = sim::SimTime::minutes(adapt_fault_stop);
  }
  if (!apply_signaling_faults(flags, config.faults, obs)) return 2;
  obs.config_echo("policy", policy);
  obs.config_echo("attendees", fmt_count(double(config.attendees)));
  obs.config_echo("squatters", fmt_count(double(config.squatters)));
  obs.config_echo("seed", fmt_count(double(config.seed)));
  obs.config_echo("replications", fmt_count(double(replications)));
  if (config.adapt.enabled) {
    // Echoed only when enabled: loop-off config fingerprints (and therefore
    // golden reports) stay byte-identical to pre-adaptation builds.
    obs.config_echo("adapt-loop", "1");
    obs.config_echo("adapt-flows", fmt_count(double(adapt_flows)));
    obs.config_echo("adapt-fault", stats::fmt(adapt_fault, 4));
    obs.config_echo("adapt-fault-start", stats::fmt(adapt_fault_start, 1));
    obs.config_echo("adapt-fault-stop", stats::fmt(adapt_fault_stop, 1));
  }

  if (replications > 1) {
    // Monte-Carlo sweep: per-replication snapshots merged deterministically;
    // tracing and wall metrics stay off inside the sweep.
    CampusSweepConfig sweep;
    sweep.base = config;
    sweep.replications = replications;
    sweep.threads = threads;
    sweep.base_seed = config.seed;
    sweep.profiler = obs.profiler_or_null();
    const CampusSweepResult r = run_campus_day_sweep(sweep);
    std::cout << "policy=" << r.policy << " replications=" << r.replications
              << " attendee-drops=" << r.attendee_drops
              << " squatter-blocks=" << r.squatter_blocks
              << " handoffs=" << r.handoffs;
    if (config.adapt.enabled) std::cout << " renegotiations=" << r.renegotiations;
    std::cout << '\n';
    obs::AdaptationBlock adapt_block;
    if (config.adapt.enabled) {
      adapt_block = make_adaptation_block(config, r.metrics, nullptr);
    }
    return obs.finish("campus-sweep", r.metrics, nullptr, nullptr,
                      config.adapt.enabled ? &adapt_block : nullptr);
  }

  config.metrics = obs.registry_or_null();
  config.tracer = obs.tracer_or_null();
  // A single interactive run may record the (nondeterministic) wall-clock
  // handoff latency histogram; sweeps never do. Checkpointed runs also keep
  // it off so the restored run's metrics JSON is byte-identical to an
  // uninterrupted one.
  config.wall_metrics = obs.want_metrics() && ckpt_out.empty() && ckpt_in.empty();

  if (!ckpt_out.empty()) {
    // Run the day up to the barrier and freeze it; a later --checkpoint-in
    // run with the same flags finishes it.
    config.tracer = nullptr;  // traces hold wall timestamps — not resumable
    // Always carry the instrument totals: the resuming side may ask for a
    // metrics report even if this invocation did not.
    config.metrics = &obs.registry;
    try {
      const sim::Checkpoint ckpt =
          checkpoint_campus_day(config, sim::SimTime::minutes(checkpoint_at));
      ckpt.save_file(ckpt_out);
    } catch (const sim::CheckpointError& e) {
      std::cerr << "scenario_cli: " << e.what() << '\n';
      return 1;
    }
    std::cout << "checkpoint policy=" << policy << " t=" << stats::fmt(checkpoint_at, 1)
              << "min written to " << ckpt_out << '\n';
    return 0;
  }

  CampusDayResult r;
  if (!ckpt_in.empty()) {
    try {
      r = resume_campus_day(config, sim::Checkpoint::load_file(ckpt_in));
    } catch (const sim::CheckpointError& e) {
      std::cerr << "scenario_cli: " << e.what() << '\n';
      return 1;
    }
  } else {
    r = run_campus_day(config);
  }
  std::cout << "policy=" << r.policy << " attendee-drops=" << r.attendee_drops
            << " squatter-blocks=" << r.squatter_blocks << " squatter-admits="
            << r.squatter_admits << " handoffs=" << r.handoffs
            << " room-peak=" << stats::fmt(r.room_peak_allocated / 1000.0, 0)
            << "kbps";
  if (config.adapt.enabled) {
    std::cout << " renegotiations=" << r.renegotiations
              << " adapt-prefault=" << stats::fmt(r.adapt_granted_prefault_bps / 1000.0, 1)
              << "kbps adapt-min=" << stats::fmt(r.adapt_granted_min_bps / 1000.0, 1)
              << "kbps adapt-final=" << stats::fmt(r.adapt_granted_final_bps / 1000.0, 1)
              << "kbps";
  }
  std::cout << '\n';
  const obs::Snapshot snapshot = obs.registry.snapshot();
  obs::AdaptationBlock adapt_block;
  if (config.adapt.enabled) adapt_block = make_adaptation_block(config, snapshot, &r);
  return obs.finish("campus", snapshot, nullptr, nullptr,
                    config.adapt.enabled ? &adapt_block : nullptr);
}

int run_faults_cmd(const Flags& flags, ObsSession& obs) {
  std::size_t replications = 0, threads = 0, flaps = 0, crashes = 0;
  std::size_t cells = 0, conns = 0, seed_count = 0, fork = 0;
  double drop = 0.0, stop = 0.0, horizon = 0.0, faults_start = 0.0;
  if (!parse_count(flags, "replications", 8, replications)) return 2;
  if (!parse_count(flags, "threads", 0, threads)) return 2;
  if (!parse_count(flags, "flaps", 2, flaps)) return 2;
  if (!parse_count(flags, "crashes", 1, crashes)) return 2;
  if (!parse_count(flags, "cells", 8, cells)) return 2;
  if (!parse_count(flags, "conns", 24, conns)) return 2;
  if (!parse_count(flags, "seed", 1, seed_count)) return 2;
  if (!parse_count(flags, "fork", 0, fork)) return 2;
  if (!parse_number(flags, "drop", 0.1, drop, /*probability=*/true)) return 2;
  if (!parse_number(flags, "stop", 0.5, stop)) return 2;
  if (!parse_number(flags, "horizon", 30.0, horizon)) return 2;
  if (!parse_number(flags, "faults-start", 0.0, faults_start)) return 2;
  if (fork != 0 && threads > replications) {
    // A forked sweep hands each thread a variant to fork from the shared
    // warm image; more threads than variants means idle workers at best and
    // a confusing hang-looking stall at worst. 0 (auto) self-clamps.
    std::cerr << "scenario_cli: --threads (" << threads
              << ") exceeds --replications (" << replications
              << ") for a forked sweep; lower --threads or raise "
                 "--replications\n";
    return 2;
  }
  const std::uint64_t seed = std::uint64_t(seed_count);
  const std::string topology = flags.text("topology", "twocell");

  fault::ConvergenceConfig base;
  if (topology == "campus") {
    base.problem = fault::campus_problem(cells, conns, seed);
  } else if (topology == "twocell") {
    base.problem = fault::two_cell_problem();
  } else {
    std::cerr << "scenario_cli: unknown --topology '" << topology
              << "' (expected twocell or campus)\n";
    return 2;
  }
  base.faults = fault::LinkFaultModel::bernoulli_loss(drop);
  base.faults_start = sim::SimTime::seconds(faults_start);
  base.faults_stop = sim::SimTime::seconds(faults_start + stop);
  base.horizon = sim::SimTime::seconds(faults_start + horizon);
  base.seed = seed;
  const std::string ckpt_out = flags.text("checkpoint-out", "");
  const std::string ckpt_in = flags.text("checkpoint-in", "");
  if ((!ckpt_out.empty() || !ckpt_in.empty() || fork != 0) && faults_start <= 0.0) {
    std::cerr << "scenario_cli: --checkpoint-out/--checkpoint-in/--fork need a "
                 "positive --faults-start barrier (the warm, fault-free phase)\n";
    return 2;
  }
  if (!ckpt_out.empty() && !ckpt_in.empty()) {
    std::cerr << "scenario_cli: --checkpoint-out and --checkpoint-in are exclusive\n";
    return 2;
  }

  fault::FaultSchedule::RandomConfig timeline;
  timeline.start = base.faults_start;
  timeline.stop = base.faults_stop;
  timeline.links = std::uint32_t(base.problem.links.size());
  timeline.flaps = flaps;
  timeline.crashes = crashes;
  sim::Rng schedule_rng(seed);
  base.schedule = fault::FaultSchedule::random(timeline, schedule_rng);

  obs.config_echo("topology", topology);
  obs.config_echo("drop", stats::fmt(drop, 4));
  obs.config_echo("flaps", fmt_count(double(flaps)));
  obs.config_echo("crashes", fmt_count(double(crashes)));
  obs.config_echo("seed", fmt_count(double(seed)));
  obs.config_echo("replications", fmt_count(double(replications)));
  if (faults_start > 0.0) obs.config_echo("faults-start", stats::fmt(faults_start, 3));

  if (!ckpt_out.empty()) {
    // Freeze the warm, fault-free phase: the protocol converges, the queue
    // drains, and the image (seed-independent — no RNG was drawn) serves as
    // the shared starting point for every fault variant.
    try {
      fault::make_warm_checkpoint(base).save_file(ckpt_out);
    } catch (const sim::CheckpointError& e) {
      std::cerr << "scenario_cli: " << e.what() << '\n';
      return 1;
    }
    std::cout << "warm checkpoint topology=" << topology << " t="
              << stats::fmt(faults_start, 3) << "s written to " << ckpt_out << '\n';
    return 0;
  }

  if (replications <= 1) {
    base.metrics = obs.registry_or_null();
    base.tracer = obs.tracer_or_null();
    fault::ConvergenceResult r;
    if (!ckpt_in.empty()) {
      try {
        r = fault::run_convergence_from(base, sim::Checkpoint::load_file(ckpt_in));
      } catch (const sim::CheckpointError& e) {
        std::cerr << "scenario_cli: " << e.what() << '\n';
        return 1;
      }
    } else {
      r = fault::run_convergence(base);
    }
    std::cout << "topology=" << topology << " drop=" << stats::fmt(drop, 3)
              << " safety=" << (r.safety_held ? "held" : "VIOLATED")
              << " reconverged=" << (r.reconverged ? "yes" : "NO")
              << " t-reconverge=" << stats::fmt(r.reconverge_seconds, 4) << "s"
              << " overshoot=" << stats::fmt(r.worst_overshoot, 9)
              << " final-dev=" << stats::fmt(r.final_deviation, 9) << '\n';
    return obs.finish("faults", obs.registry.snapshot());
  }

  if (!ckpt_in.empty()) {
    std::cerr << "scenario_cli: --checkpoint-in applies to single runs; use --fork 1 "
                 "to share one warm checkpoint across a sweep\n";
    return 2;
  }
  fault::ConvergenceSweepConfig sweep;
  sweep.base = base;
  sweep.replications = replications;
  sweep.threads = threads;
  sweep.fork_from_warm = fork != 0;
  fault::ConvergenceSweepResult r;
  try {
    r = fault::run_convergence_sweep(sweep);
  } catch (const sim::CheckpointError& e) {
    std::cerr << "scenario_cli: " << e.what() << '\n';
    return 1;
  }
  std::cout << "topology=" << topology << " drop=" << stats::fmt(drop, 3)
            << " replications=" << r.replications
            << " safety-failures=" << r.safety_failures
            << " reconverge-failures=" << r.reconverge_failures
            << " t-reconverge p50=" << stats::fmt(r.reconverge_p50, 3)
            << "s p90=" << stats::fmt(r.reconverge_p90, 3)
            << "s p99=" << stats::fmt(r.reconverge_p99, 3) << "s\n";
  return obs.finish("faults-sweep", r.metrics);
}

int run_campus_scale_cmd(const Flags& flags, ObsSession& obs) {
  CampusScaleConfig config;
  std::size_t cells = 0, portables = 0, seed = 0;
  double duration = 0.0, tick = 0.0;
  if (!parse_count(flags, "cells", 100, cells)) return 2;
  if (!parse_count(flags, "portables", 1000, portables)) return 2;
  if (!parse_count(flags, "seed", 5, seed)) return 2;
  if (!parse_number(flags, "duration", 3600.0, duration)) return 2;
  if (!parse_number(flags, "tick", 5.0, tick)) return 2;
  if (cells < 2) {
    std::cerr << "scenario_cli: --cells must be at least 2\n";
    return 2;
  }
  if (tick <= 0.0 || duration <= 0.0) {
    std::cerr << "scenario_cli: --duration and --tick must be positive\n";
    return 2;
  }
  const std::string engine = flags.text("engine", "soa");
  if (engine == "soa") config.engine = ScaleEngine::kSoa;
  else if (engine == "naive") config.engine = ScaleEngine::kNaive;
  else {
    std::cerr << "scenario_cli: invalid --engine value '" << engine
              << "' (expected soa or naive)\n";
    return 2;
  }
  std::size_t shards = 0, batch = 0;
  if (!parse_count(flags, "shards", 0, shards)) return 2;
  if (!parse_count(flags, "batch", 0, batch)) return 2;
  if (shards > 0 && config.engine == ScaleEngine::kNaive) {
    std::cerr << "scenario_cli: --engine naive is the monolithic pre-SoA "
                 "baseline; it cannot run sharded (drop --shards or "
                 "--engine)\n";
    return 2;
  }
  if (shards > cells) {
    std::cerr << "scenario_cli: --shards (" << shards << ") exceeds --cells ("
              << cells << "); cells are the unit of parallelism\n";
    return 2;
  }
  if (shards == 0 && !flags.text("batch", "").empty()) {
    std::cerr << "scenario_cli: --batch tunes the sharded runner's window "
                 "batching; it requires --shards K\n";
    return 2;
  }
  config.cells = cells;
  config.portables = portables;
  config.seed = std::uint64_t(seed);
  config.duration = sim::Duration::seconds(duration);
  config.tick = sim::Duration::seconds(tick);
  config.metrics = obs.registry_or_null();
  config.profiler = obs.profiler_or_null();
  config.progress = obs.progress_or_null();
  obs.config_echo("cells", fmt_count(double(cells)));
  obs.config_echo("portables", fmt_count(double(portables)));
  obs.config_echo("duration", stats::fmt(duration, 1));
  obs.config_echo("tick", stats::fmt(tick, 2));
  obs.config_echo("seed", fmt_count(double(seed)));
  obs.config_echo("engine", engine);

  if (shards > 0) {
    config.shards = shards;
    config.batch = batch;
    config.tracer = obs.tracer_or_null();
    // shards/batch are execution-only (results byte-identical for any
    // value); tools/check_shard_determinism.py strips these two echo keys
    // before comparing reports across the (shards, batch) sweep.
    obs.config_echo("shards", fmt_count(double(shards)));
    if (batch > 0) obs.config_echo("batch", fmt_count(double(batch)));
    const CampusScaleResult r = run_campus_scale_sharded(config);
    // No dispatch count here: stdout must stay byte-identical across batch
    // sizes (dispatches vary; windows and boundary messages do not).
    std::cout << "engine=sharded cells=" << cells << " portables=" << portables
              << " events=" << r.events << " windows=" << r.windows
              << " boundary=" << r.boundary_messages
              << " handoffs=" << r.handoffs << " admits=" << r.handoff_admitted
              << " drops=" << r.handoff_dropped << " blocked=" << r.new_blocked
              << " departed=" << r.departures
              << " bytes/portable=" << stats::fmt(r.bytes_per_portable, 1)
              << '\n';
    return obs.finish("campus_scale", obs.registry.snapshot(),
                      obs.want_profile() ? &r.profile : nullptr);
  }

  const CampusScaleResult r = run_campus_scale(config);
  std::cout << "engine=" << engine << " cells=" << cells << " portables=" << portables
            << " events=" << r.events << " handoffs=" << r.handoffs
            << " admits=" << r.handoff_admitted << " drops=" << r.handoff_dropped
            << " blocked=" << r.new_blocked << " departed=" << r.departures
            << " bytes/portable=" << stats::fmt(r.bytes_per_portable, 1) << '\n';
  return obs.finish("campus_scale", obs.registry.snapshot());
}

/// Shared serve/drive service-shape flags -> ServiceConfig. False = a flag
/// was malformed (already diagnosed); the caller exits 2.
bool parse_service_config(const Flags& flags, ObsSession& obs,
                          serve::ServiceConfig& config) {
  std::size_t cells = 0, queue_cap = 0, adapt_every = 0;
  double slo_p99 = 0.0, retry_after = 0.0, cost = 0.0;
  if (!parse_count(flags, "cells", 16, cells)) return false;
  if (!parse_count(flags, "queue-cap", 512, queue_cap)) return false;
  if (!parse_count(flags, "adapt-every", 0, adapt_every)) return false;
  if (!parse_number(flags, "slo-p99-us", 5000.0, slo_p99)) return false;
  if (!parse_number(flags, "retry-after-us", 5000.0, retry_after)) return false;
  if (!parse_number(flags, "service-cost-us", 200.0, cost)) return false;
  if (cells < 2) {
    std::cerr << "scenario_cli: --cells must be at least 2\n";
    return false;
  }
  if (queue_cap == 0 || slo_p99 <= 0.0 || cost <= 0.0) {
    std::cerr << "scenario_cli: --queue-cap, --slo-p99-us and "
                 "--service-cost-us must be positive\n";
    return false;
  }
  config.cells = cells;
  config.slo.queue_capacity = queue_cap;
  config.slo.p99_target_us = slo_p99;
  config.slo.retry_after_us = retry_after;
  config.virtual_service_cost_us = cost;
  config.adapt_every = adapt_every;
  // serve/drive always record into the session registry: the latency
  // percentiles in the service block come from the serve.latency_us /
  // drive.latency_us histograms whether or not --metrics-json was given.
  config.metrics = &obs.registry;
  config.profiler = obs.profiler_or_null();
  obs.config_echo("cells", fmt_count(double(cells)));
  obs.config_echo("slo-p99-us", stats::fmt(slo_p99, 1));
  obs.config_echo("queue-cap", fmt_count(double(queue_cap)));
  return true;
}

/// Service-side block: exact offered == processed + shed conservation from
/// the service's own counters, latency from serve.latency_us.
obs::ServiceBlock make_service_block(const serve::AdmissionService& service,
                                     const obs::Snapshot& snapshot,
                                     const std::string& transport,
                                     const std::string& pacing, double duration_s) {
  const serve::ServiceStats& s = service.stats();
  obs::ServiceBlock block;
  block.present = true;
  block.transport = transport;
  block.pacing = pacing;
  block.duration_s = duration_s;
  block.offered = s.offered;
  block.processed = s.processed;
  block.shed = s.shed;
  block.errors = s.errors;
  block.admit_accepted = s.admit_accepted;
  block.admit_rejected = s.admit_rejected;
  block.teardowns = s.teardowns;
  block.handoffs = s.handoffs;
  block.handoff_drops = s.handoff_drops;
  block.probes = s.probes;
  block.unanswered = 0;
  block.peak_queue_depth = s.peak_queue_depth;
  if (duration_s > 0.0) {
    block.offered_rps = double(s.offered) / duration_s;
    block.sustained_rps = double(s.processed) / duration_s;
  }
  if (s.offered > 0) block.shed_fraction = double(s.shed) / double(s.offered);
  if (const obs::HistogramSample* h = snapshot.histogram("serve.latency_us")) {
    block.latency_p50_us = h->percentile(0.50);
    block.latency_p90_us = h->percentile(0.90);
    block.latency_p99_us = h->percentile(0.99);
  }
  block.slo_p99_us = service.config().slo.p99_target_us;
  block.slo_met = block.latency_p99_us <= block.slo_p99_us;
  return block;
}

void print_service_summary(const obs::ServiceBlock& b) {
  std::cout << "transport=" << b.transport << " pacing=" << b.pacing
            << " offered=" << b.offered << " processed=" << b.processed
            << " shed=" << b.shed << " errors=" << b.errors
            << " sustained=" << stats::fmt(b.sustained_rps, 0) << "req/s"
            << " p50=" << stats::fmt(b.latency_p50_us, 0) << "us"
            << " p99=" << stats::fmt(b.latency_p99_us, 0) << "us"
            << " slo=" << (b.slo_met ? "met" : "MISSED") << '\n';
}

/// `scenario_cli serve --socket PATH`: the always-on service. Runs until a
/// Shutdown request has been processed (or --deadline wall seconds elapse),
/// then reports what it served.
int run_serve_cmd(const Flags& flags, ObsSession& obs) {
  const std::string path = flags.text("socket", "");
  if (path.empty()) {
    std::cerr << "scenario_cli: serve requires --socket PATH (the AF_UNIX "
                 "listening address)\n";
    return 2;
  }
  double deadline = 0.0;
  if (!parse_number(flags, "deadline", 0.0, deadline)) return 2;
  serve::ServiceConfig config;
  if (!parse_service_config(flags, obs, config)) return 2;
  obs.config_echo("socket", path);

  sim::Simulator simulator;
  serve::AdmissionService service(config, simulator);
  std::unique_ptr<serve::SocketServerTransport> server;
  try {
    server = std::make_unique<serve::SocketServerTransport>(path);
  } catch (const serve::TransportError& e) {
    std::cerr << "scenario_cli: " << e.what() << '\n';
    return 1;
  }
  std::cout << "serving on " << path << " (cells=" << service.cells()
            << " slo-p99=" << stats::fmt(config.slo.p99_target_us, 0)
            << "us queue-cap=" << config.slo.queue_capacity << ")" << std::endl;
  const auto t0 = std::chrono::steady_clock::now();
  service.run_wall(*server, deadline);
  const double duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const obs::Snapshot snapshot = obs.registry.snapshot();
  const obs::ServiceBlock block =
      make_service_block(service, snapshot, "socket", "wall", duration_s);
  print_service_summary(block);
  return obs.finish("serve", snapshot, nullptr, &block);
}

/// `scenario_cli drive`: the open-loop load driver. With --transport ring it
/// hosts the service in-process (deterministic with --pacing virtual); with
/// --transport socket it drives a separately started `serve`.
int run_drive_cmd(const Flags& flags, ObsSession& obs) {
  const std::string transport = flags.text("transport", "ring");
  if (transport != "ring" && transport != "socket") {
    std::cerr << "scenario_cli: invalid --transport '" << transport
              << "' (expected ring or socket)\n";
    return 2;
  }
  const std::string pacing =
      flags.text("pacing", transport == "ring" ? "virtual" : "wall");
  if (pacing != "virtual" && pacing != "wall") {
    std::cerr << "scenario_cli: invalid --pacing '" << pacing
              << "' (expected virtual or wall)\n";
    return 2;
  }
  if (transport == "socket" && pacing == "virtual") {
    std::cerr << "scenario_cli: --pacing virtual needs the in-process ring "
                 "(a socket peer has its own clock); use --transport ring\n";
    return 2;
  }
  const std::string arrivals = flags.text("arrivals", "poisson");
  if (arrivals != "poisson" && arrivals != "trace") {
    std::cerr << "scenario_cli: invalid --arrivals '" << arrivals
              << "' (expected poisson or trace)\n";
    return 2;
  }

  serve::ServiceConfig service_config;
  if (!parse_service_config(flags, obs, service_config)) return 2;

  serve::DriveConfig drive;
  std::size_t seed = 0, portables = 0, shutdown = 0;
  if (!parse_number(flags, "rate", 1000.0, drive.rate)) return 2;
  if (!parse_number(flags, "duration", 10.0, drive.duration_s)) return 2;
  if (!parse_count(flags, "seed", 1, seed)) return 2;
  if (!parse_count(flags, "portables", 64, portables)) return 2;
  if (!parse_count(flags, "shutdown", 0, shutdown)) return 2;
  if (arrivals == "poisson" && (drive.rate <= 0.0 || drive.duration_s <= 0.0)) {
    std::cerr << "scenario_cli: --rate and --duration must be positive\n";
    return 2;
  }
  if (portables == 0) {
    std::cerr << "scenario_cli: --portables must be at least 1\n";
    return 2;
  }
  drive.seed = std::uint64_t(seed);
  drive.portables = std::uint32_t(portables);
  drive.cells = std::uint32_t(service_config.cells);
  drive.shutdown_after = shutdown != 0;
  drive.metrics = &obs.registry;
  if (arrivals == "trace") {
    const std::string trace_path = flags.text("trace-in", "");
    if (trace_path.empty()) {
      std::cerr << "scenario_cli: --arrivals trace requires --trace-in PATH\n";
      return 2;
    }
    try {
      drive.trace = serve::parse_trace(trace_path);
    } catch (const std::runtime_error& e) {
      std::cerr << "scenario_cli: " << e.what() << '\n';
      return 2;
    }
    if (drive.trace.empty()) {
      std::cerr << "scenario_cli: trace '" << trace_path << "' has no events\n";
      return 2;
    }
    obs.config_echo("trace-in", trace_path);
  }
  obs.config_echo("transport", transport);
  obs.config_echo("pacing", pacing);
  obs.config_echo("arrivals", arrivals);
  obs.config_echo("rate", stats::fmt(drive.rate, 1));
  obs.config_echo("duration", stats::fmt(drive.duration_s, 2));
  obs.config_echo("seed", fmt_count(double(drive.seed)));
  obs.config_echo("portables", fmt_count(double(drive.portables)));

  if (transport == "socket") {
    const std::string path = flags.text("socket", "");
    if (path.empty()) {
      std::cerr << "scenario_cli: --transport socket requires --socket PATH\n";
      return 2;
    }
    obs.config_echo("socket", path);
    std::unique_ptr<serve::SocketClientTransport> client;
    try {
      client = std::make_unique<serve::SocketClientTransport>(path);
    } catch (const serve::TransportError& e) {
      std::cerr << "scenario_cli: " << e.what() << '\n';
      return 1;
    }
    serve::LoadDriver driver(drive);
    const serve::DriveStats ds = driver.run_wall(*client);
    // Driver-side view: the service's own conservation lives in its report;
    // here offered = sent, processed = substantively answered.
    obs::ServiceBlock block;
    block.present = true;
    block.transport = "socket";
    block.pacing = "wall";
    block.duration_s = ds.duration_s;
    block.offered = ds.sent;
    block.processed = ds.accepted + ds.rejected + ds.errors;
    block.shed = ds.shed;
    block.errors = ds.errors;
    block.unanswered = ds.unanswered;
    if (ds.duration_s > 0.0) {
      block.offered_rps = double(ds.sent) / ds.duration_s;
      block.sustained_rps = double(block.processed) / ds.duration_s;
    }
    if (ds.sent > 0) block.shed_fraction = double(ds.shed) / double(ds.sent);
    const obs::Snapshot snapshot = obs.registry.snapshot();
    if (const obs::HistogramSample* h = snapshot.histogram("drive.latency_us")) {
      block.latency_p50_us = h->percentile(0.50);
      block.latency_p90_us = h->percentile(0.90);
      block.latency_p99_us = h->percentile(0.99);
    }
    block.slo_p99_us = service_config.slo.p99_target_us;
    block.slo_met = block.latency_p99_us <= block.slo_p99_us;
    print_service_summary(block);
    return obs.finish("drive", snapshot, nullptr, &block);
  }

  // In-process ring: the service lives here too.
  sim::Simulator simulator;
  serve::AdmissionService service(service_config, simulator);
  serve::RingTransport ring;
  serve::LoadDriver driver(drive);
  serve::DriveStats ds;
  if (pacing == "virtual") {
    ds = driver.run_virtual(simulator, ring, service);
  } else {
    // Wall pacing over the ring: service on its own thread, open-loop driver
    // here. The service exits once the driver closes its end and the queue
    // drains; the deadline is a hang backstop only.
    const double backstop_s = drive.duration_s + 30.0;
    std::thread server_thread(
        [&] { service.run_wall(ring.server(), backstop_s); });
    ds = driver.run_wall(ring.client());
    server_thread.join();
  }
  const obs::Snapshot snapshot = obs.registry.snapshot();
  obs::ServiceBlock block =
      make_service_block(service, snapshot, "ring", pacing, ds.duration_s);
  print_service_summary(block);
  return obs.finish("drive", snapshot, nullptr, &block);
}

void usage() {
  std::cout <<
      "usage: scenario_cli [<command>] [--flag value ...]\n"
      "  classroom  --size N --policy meeting-room|brute-force|aggregate|static|none\n"
      "             --passby R --seed S\n"
      "  twocell    --window T --pqos P --rule probabilistic|static|none\n"
      "             --guard G --duration D --seed S\n"
      "  fig4       --hours H --users N --seed S\n"
      "  maxmin     --links L --conns C --seed S\n"
      "  campus     --policy dispatcher|aggregate|brute-force|static|none\n"
      "             --attendees N --squatters M --replications R --seed S\n"
      "             (default command when only flags are given)\n"
      "  campus --shards K   sharded multi-cell corridor (K worker threads;\n"
      "             --cells N --portables P --hours H --hop-ms T --seed S\n"
      "             --batch B windows per barrier dispatch, 0=adaptive;\n"
      "             metrics are byte-identical for any K and B)\n"
      "  campus-scale --cells N --portables M --duration S --tick T --seed S\n"
      "             --engine soa|naive   (grid campus scaling harness; reports\n"
      "             events/s and bytes-per-portable at up to 1000x100k)\n"
      "  campus-scale --shards K   the same grid campus as one sharded-runner\n"
      "             domain per cell (K worker threads, --batch B as above;\n"
      "             soa engine only; byte-identical for any K and B)\n"
      "  faults     --topology twocell|campus --drop P --flaps F --crashes C\n"
      "             --stop T --horizon H --replications R --threads W --seed S\n"
      "             (convergence-under-faults harness: lossy control plane +\n"
      "              random outage/crash timeline, safety + reconvergence check)\n"
      "  serve      --socket PATH [--cells N --slo-p99-us T --queue-cap Q\n"
      "             --retry-after-us T --adapt-every N --deadline S]\n"
      "             (always-on admission service on an AF_UNIX socket; runs\n"
      "              until a Shutdown request or the --deadline backstop)\n"
      "  drive      --transport ring|socket --pacing virtual|wall\n"
      "             --arrivals poisson|trace --rate R --duration S --seed S\n"
      "             --portables N [--socket PATH --trace-in PATH --shutdown 1]\n"
      "             (open-loop load driver; ring+virtual is deterministic,\n"
      "              socket drives a separately started `serve`; the report\n"
      "              gains a schema-v3 `service` block)\n"
      "fault injection (twocell, campus):\n"
      "  --faults P            drop each admission probe with probability P\n"
      "  --fault-retries N     probe attempts before degrading to rejection\n"
      "adaptation loop (campus, not with --shards or checkpoints):\n"
      "  --adapt-loop 1        run N adaptive packet streams in the meeting room\n"
      "                        (source -> dual token-bucket shaper -> VC link ->\n"
      "                        lossy hop); measured loss/delay windows drive\n"
      "                        renegotiation and max-min re-division; the report\n"
      "                        gains a schema-v4 `adaptation` block\n"
      "  --adapt-flows N       adaptive streams (default 4)\n"
      "  --adapt-fault P       Gilbert-Elliott burst loss probability during the\n"
      "                        fault window (default 0.8; 0 disables the fault)\n"
      "  --adapt-fault-start M fault window start, minutes (default 60)\n"
      "  --adapt-fault-stop M  fault window end, minutes (default 100)\n"
      "checkpoint/restore (campus):\n"
      "  --checkpoint-out PATH freeze the day at --checkpoint-at MIN (default 60)\n"
      "  --checkpoint-in PATH  resume a frozen day; same flags -> identical output\n"
      "checkpoint/restore (faults, needs --faults-start T > 0):\n"
      "  --faults-start T      fault-free warm phase until T seconds (--stop and\n"
      "                        --horizon then count from the barrier)\n"
      "  --checkpoint-out PATH write the warm, seed-independent image\n"
      "  --checkpoint-in PATH  run one fault variant from a warm image\n"
      "  --fork 1              sweep replications fork from one shared warm image\n"
      "observability (any command):\n"
      "  --metrics-json PATH   versioned run report with the metrics snapshot\n"
      "  --trace-out PATH      Chrome trace_event JSON (chrome://tracing, Perfetto)\n"
      "  --profile 1           wall-clock profile: phase table on stdout, a\n"
      "                        `profile` block in the v2 report, and (sharded\n"
      "                        runs) per-shard wall lanes in the trace\n"
      "  --progress SECS       stderr heartbeat every SECS wall seconds\n"
      "                        (campus --shards K and campus-scale)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  // Leading flags with no subcommand: default to the campus scenario.
  const bool bare_flags = std::strncmp(argv[1], "--", 2) == 0;
  const std::string command = bare_flags ? "campus" : argv[1];
  const Flags flags(argc, argv, bare_flags ? 1 : 2);
  ObsSession obs(flags);
  if (obs.flag_error) return 2;
  if (command == "classroom") return run_classroom_cmd(flags, obs);
  if (command == "twocell") return run_twocell_cmd(flags, obs);
  if (command == "fig4") return run_fig4_cmd(flags, obs);
  if (command == "maxmin") return run_maxmin_cmd(flags, obs);
  if (command == "campus") return run_campus_cmd(flags, obs);
  if (command == "campus-scale") return run_campus_scale_cmd(flags, obs);
  if (command == "faults") return run_faults_cmd(flags, obs);
  if (command == "serve") return run_serve_cmd(flags, obs);
  if (command == "drive") return run_drive_cmd(flags, obs);
  usage();
  return 2;
}
