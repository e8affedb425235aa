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
// Each command owns one flag table (commands() below): a row holds a flag's
// name, value type, default and config-echo rule. Parsing, the usage text
// (scenario_cli with no arguments) and the report's config block all come
// from that table, so any token it does not accept exits 2 naming the flag.
// Rules that span several flags stay as code in each command's run function.
//
// Every command also takes --metrics-json PATH (a versioned obs::RunReport)
// and --trace-out PATH (a Chrome trace_event JSON). Flags with no command
// run campus:
//   $ ./scenario_cli --metrics-json out.json --trace-out trace.json
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiments/campus_day.h"
#include "experiments/campus_scale.h"
#include "experiments/classroom.h"
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

using namespace imrm;
using namespace imrm::experiments;

namespace {

// ---------------------------------------------------------------------------
// Flag tables

/// The value type of a flag. Each has one strict, whole-token parse.
enum class Kind { kCount, kNumber, kProbability, kChoice, kPath };

class Args;
/// When a row's config echo applies, judged on the parsed flags.
using Condition = bool (*)(const Args&);

/// One row of a command's flag table.
struct Flag {
  std::string name;
  Kind kind;
  std::string fallback;  // the default, as text; "" = none
  std::string choices;   // kChoice: the allowed values, '|'-separated
  int echo = -1;         // config echo: -1 = none, else decimals for numbers
  Condition condition = nullptr;  // echo only when this holds

  /// The same row, echoed into the config block (numbers to `decimals`).
  [[nodiscard]] Flag echoed(int decimals = 0, Condition when = nullptr) const {
    Flag row = *this;
    row.echo = decimals;
    row.condition = when;
    return row;
  }
};

namespace flag {
Flag count(const char* name, const char* fallback) { return {name, Kind::kCount, fallback, {}}; }
Flag number(const char* name, const char* fallback) { return {name, Kind::kNumber, fallback, {}}; }
Flag probability(const char* name, const char* fallback) {
  return {name, Kind::kProbability, fallback, {}};
}
Flag choice(const char* name, std::string choices, const char* fallback) {
  return {name, Kind::kChoice, fallback, std::move(choices)};
}
/// An on/off switch: 0 or 1.
Flag toggle(const char* name) { return choice(name, "0|1", "0"); }
Flag path(const char* name) { return {name, Kind::kPath, "", {}}; }

/// The keys of a name -> enum map, as a choice list.
template <typename E>
std::string choices_of(const std::map<std::string, E>& values) {
  std::string out;
  for (const auto& [name, value] : values) out += (out.empty() ? "" : "|") + name;
  return out;
}
}  // namespace flag

/// A command's parsed flags: every row of its table, defaulted when not given.
class Args {
 public:
  [[nodiscard]] bool has(const std::string& name) const { return values_.count(name) != 0; }
  [[nodiscard]] bool given(const std::string& name) const { return given_.count(name) != 0; }
  [[nodiscard]] const std::string& text(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) throw std::logic_error("no --" + name + " row in this table");
    return it->second;
  }
  // Values were validated on parse, so these conversions cannot fail.
  [[nodiscard]] std::size_t count(const std::string& name) const {
    return std::strtoull(text(name).c_str(), nullptr, 10);
  }
  [[nodiscard]] double number(const std::string& name) const {
    return std::strtod(text(name).c_str(), nullptr);
  }
  [[nodiscard]] bool on(const std::string& name) const { return text(name) == "1"; }
  /// A default that depends on another flag's value.
  void set_default(const std::string& name, std::string value) {
    if (!given(name)) values_.at(name) = std::move(value);
  }
  void set(const std::string& name, std::string value, bool from_argv) {
    values_[name] = std::move(value);
    if (from_argv) given_.insert(name);
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> given_;
};

/// What a valid value of `row` looks like, or "" when `raw` is one.
std::string value_error(const Flag& row, const std::string& raw) {
  errno = 0;
  char* end = nullptr;
  switch (row.kind) {
    case Kind::kCount:
      // Digits only: strtoull alone would take " 5", "+5" and wrap "-5".
      if (raw.empty() || !std::isdigit(static_cast<unsigned char>(raw.front()))) break;
      std::strtoull(raw.c_str(), &end, 10);
      if (*end == '\0' && errno != ERANGE) return "";
      break;
    case Kind::kNumber:
    case Kind::kProbability: {
      const double value = std::strtod(raw.c_str(), &end);
      const bool ok = end != raw.c_str() && *end == '\0' && errno != ERANGE &&
                      std::isfinite(value) && value >= 0.0 &&
                      (row.kind == Kind::kNumber || value <= 1.0);
      if (ok) return "";
      break;
    }
    case Kind::kChoice:
      if (("|" + row.choices + "|").find("|" + raw + "|") != std::string::npos) return "";
      return "one of " + row.choices;
    case Kind::kPath:
      return raw.empty() ? "a path" : "";
  }
  if (row.kind == Kind::kCount) return "a non-negative integer";
  return row.kind == Kind::kProbability ? "a probability in [0, 1]"
                                        : "a finite non-negative number";
}

/// The usage-text name of a row's value type.
std::string type_name(const Flag& row) {
  switch (row.kind) {
    case Kind::kCount: return "count";
    case Kind::kNumber: return "number";
    case Kind::kProbability: return "probability";
    case Kind::kChoice: return row.choices;
    case Kind::kPath: return "path";
  }
  return "";
}

/// The report's config block: every echoed row whose condition holds, in
/// table order. It names the workload a report measured.
std::vector<std::pair<std::string, std::string>> config_echo(const std::vector<Flag>& table,
                                                             const Args& args) {
  std::vector<std::pair<std::string, std::string>> config;
  for (const Flag& row : table) {
    if (row.echo < 0 || (row.condition != nullptr && !row.condition(args))) continue;
    std::string value = args.text(row.name);
    if (row.kind == Kind::kCount) value = stats::fmt(double(args.count(row.name)), 0);
    if (row.kind == Kind::kNumber || row.kind == Kind::kProbability) {
      value = stats::fmt(args.number(row.name), row.echo);
    }
    config.emplace_back(row.name, std::move(value));
  }
  return config;
}

// Echo conditions.
bool batched(const Args& a) { return a.count("batch") > 0; }
bool faulted(const Args& a) { return a.number("faults") > 0.0; }
bool adapting(const Args& a) { return a.on("adapt-loop"); }
bool warm_barrier(const Args& a) { return a.number("faults-start") > 0.0; }
bool trace_arrivals(const Args& a) { return a.text("arrivals") == "trace"; }
bool over_socket(const Args& a) { return a.text("transport") == "socket"; }

int refuse(const std::string& message) {
  std::cerr << "scenario_cli: " << message << '\n';
  return 2;
}
/// refuse() for functions that return an optional.
std::nullopt_t reject(const std::string& message) {
  refuse(message);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Observability session

/// Shared observability state for one CLI run: the registry/tracer/profiler
/// handed to the experiment, the output paths, and the report skeleton.
struct ObsSession {
  ObsSession(const std::vector<Flag>& table, const Args& args)
      : metrics_path(args.text("metrics-json")),
        trace_path(args.text("trace-out")),
        table_(table),
        args_(args) {
    want_profile_ = args.has("profile") && args.on("profile");
    if (want_profile_ && !obs::Profiler::compiled_in()) {
      std::cerr << "scenario_cli: --profile requested but profiling is "
                   "compiled out (IMRM_PROFILING=0); running without it\n";
      want_profile_ = false;
    }
    profiler.set_enabled(want_profile_);
    progress = obs::ProgressMeter(args.has("progress") ? args.number("progress") : 0.0);
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
      report.config = config_echo(table_, args_);
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
  std::chrono::steady_clock::time_point start;

 private:
  const std::vector<Flag>& table_;
  const Args& args_;
  bool want_profile_ = false;
};

// ---------------------------------------------------------------------------
// Commands

const std::map<std::string, PolicyKind> kClassroomPolicies = {
    {"meeting-room", PolicyKind::kMeetingRoom}, {"brute-force", PolicyKind::kBruteForce},
    {"aggregate", PolicyKind::kAggregate},      {"static", PolicyKind::kStatic},
    {"none", PolicyKind::kNone}};
const std::map<std::string, AdmissionRule> kTwoCellRules = {
    {"probabilistic", AdmissionRule::kProbabilistic},
    {"static", AdmissionRule::kStaticGuard},
    {"none", AdmissionRule::kNoReservation}};
const std::map<std::string, CampusPolicy> kCampusPolicies = {
    {"dispatcher", CampusPolicy::kDispatcher}, {"aggregate", CampusPolicy::kAggregate},
    {"brute-force", CampusPolicy::kBruteForce}, {"static", CampusPolicy::kStatic},
    {"none", CampusPolicy::kNone}};

/// Shared --faults / --fault-retries handling for the experiment commands:
/// a positive drop probability turns every admission probe into an
/// UnreliableCall over a Bernoulli-loss channel.
void apply_signaling_faults(const Args& args, fault::SignalingFaults& faults) {
  const double drop = args.number("faults");
  if (drop <= 0.0) return;
  faults.model = fault::LinkFaultModel::bernoulli_loss(drop);
  faults.max_attempts = int(args.count("fault-retries"));
}

int run_classroom_cmd(Args& args, ObsSession& obs) {
  ClassroomConfig config;
  config.class_size = args.count("size");
  config.meeting = {sim::SimTime::minutes(60), sim::SimTime::minutes(110),
                    config.class_size};
  config.seed = std::uint64_t(args.count("seed"));
  config.passby_per_minute = args.number("passby");
  config.policy = kClassroomPolicies.at(args.text("policy"));
  config.metrics = obs.registry_or_null();
  config.tracer = obs.tracer_or_null();

  const ClassroomResult result = run_classroom(config);
  std::cout << "policy=" << result.policy << " size=" << result.attendees
            << " load=" << stats::fmt(result.offered_load * 100, 0) << "%"
            << " drops=" << result.connection_drops << " walkers=" << result.walkers
            << '\n';
  return obs.finish("classroom", obs.registry.snapshot());
}

int run_twocell_cmd(Args& args, ObsSession& obs) {
  TwoCellConfig config;
  config.window = args.number("window");
  config.p_qos = args.number("pqos");
  config.duration = args.number("duration");
  config.guard_fraction = args.number("guard");
  config.seed = std::uint64_t(args.count("seed"));
  const std::string& rule = args.text("rule");
  config.rule = kTwoCellRules.at(rule);
  config.metrics = obs.registry_or_null();
  config.tracer = obs.tracer_or_null();
  apply_signaling_faults(args, config.faults);

  const TwoCellResult r = run_twocell(config);
  std::cout << "rule=" << rule << " T=" << config.window << " Pqos=" << config.p_qos
            << "  Pb=" << stats::fmt(r.p_block(), 5) << " Pd=" << stats::fmt(r.p_drop(), 5)
            << " (" << r.new_attempts << " arrivals, " << r.handoff_attempts
            << " handoffs)\n";
  return obs.finish("twocell", obs.registry.snapshot());
}

int run_fig4_cmd(Args& args, ObsSession& obs) {
  Fig4Config config;
  config.hours = args.number("hours");
  config.background_users = int(args.count("users"));
  config.seed = std::uint64_t(args.count("seed"));
  config.metrics = obs.registry_or_null();
  config.tracer = obs.tracer_or_null();

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

int run_maxmin_cmd(Args& args, ObsSession& obs) {
  if (args.count("links") == 0) return refuse("--links must be at least 1");
  const int n_links = int(args.count("links"));
  const int n_conns = int(args.count("conns"));
  std::mt19937_64 rng{std::uint64_t(args.count("seed"))};
  std::uniform_real_distribution<double> cap(5.0, 50.0);

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

int run_campus_cmd(Args& args, ObsSession& obs) {
  const std::size_t replications = args.count("replications");
  if (replications == 0) {
    // A 0-replication sweep used to fall through to a single run, silently
    // ignoring the flag; fail loudly instead.
    return refuse("--replications must be at least 1");
  }
  const std::string& ckpt_out = args.text("checkpoint-out");
  const std::string& ckpt_in = args.text("checkpoint-in");
  if (!ckpt_out.empty() && !ckpt_in.empty()) {
    return refuse("--checkpoint-out and --checkpoint-in are exclusive");
  }
  if ((!ckpt_out.empty() || !ckpt_in.empty()) && replications > 1) {
    return refuse("checkpoints apply to single runs, not --replications");
  }
  if (!ckpt_out.empty() && args.given("profile")) {
    return refuse("invalid --profile: a --checkpoint-out run stops mid-day and writes "
                  "no report; profile the --checkpoint-in run instead");
  }
  // Flags that only a sub-mode of the day reads are refused, not ignored.
  if (replications == 1 && args.given("threads")) {
    return refuse("--threads applies to a --replications sweep; give --replications > 1 "
                  "or drop --threads");
  }
  if (!adapting(args)) {
    for (const char* flag : {"adapt-flows", "adapt-fault", "adapt-fault-start", "adapt-fault-stop"}) {
      if (args.given(flag)) {
        return refuse("--" + std::string(flag) + " applies only with --adapt-loop 1");
      }
    }
  }

  CampusDayConfig config;
  config.attendees = args.count("attendees");
  config.squatters = args.count("squatters");
  config.seed = std::uint64_t(args.count("seed"));
  config.policy = kCampusPolicies.at(args.text("policy"));
  const double checkpoint_at = args.number("checkpoint-at");
  if (adapting(args)) {
    const double fault_start = args.number("adapt-fault-start");
    const double fault_stop = args.number("adapt-fault-stop");
    if (!ckpt_out.empty() || !ckpt_in.empty()) {
      return refuse("the adaptation loop does not support checkpoint/resume; drop "
                    "--adapt-loop or the --checkpoint-out/--checkpoint-in flag");
    }
    if (args.count("adapt-flows") == 0) return refuse("--adapt-flows must be at least 1");
    if (args.number("adapt-fault") > 0.0 && fault_start >= fault_stop) {
      return refuse("--adapt-fault-start (" + stats::fmt(fault_start, 1) +
                    ") must be before --adapt-fault-stop (" + stats::fmt(fault_stop, 1) +
                    ")");
    }
    config.adapt.enabled = true;
    config.adapt.flows = args.count("adapt-flows");
    config.adapt.fault_loss = args.number("adapt-fault");
    config.adapt.fault_start = sim::SimTime::minutes(fault_start);
    config.adapt.fault_stop = sim::SimTime::minutes(fault_stop);
  }
  apply_signaling_faults(args, config.faults);

  if (replications > 1) {
    // Monte-Carlo sweep: per-replication snapshots merged deterministically;
    // tracing and wall metrics stay off inside the sweep.
    CampusSweepConfig sweep;
    sweep.base = config;
    sweep.replications = replications;
    sweep.threads = args.count("threads");
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
  config.profiler = obs.profiler_or_null();
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
    std::cout << "checkpoint policy=" << args.text("policy")
              << " t=" << stats::fmt(checkpoint_at, 1) << "min written to " << ckpt_out
              << '\n';
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

int run_faults_cmd(Args& args, ObsSession& obs) {
  const std::size_t replications = args.count("replications");
  const std::size_t threads = args.count("threads");
  const bool fork = args.on("fork");
  const double drop = args.number("drop");
  const double faults_start = args.number("faults-start");
  if (fork && threads > replications) {
    // A forked sweep hands each thread a variant to fork from the shared
    // warm image; more threads than variants means idle workers at best and
    // a confusing hang-looking stall at worst. 0 (auto) self-clamps.
    return refuse("--threads (" + std::to_string(threads) + ") exceeds --replications (" +
                  std::to_string(replications) +
                  ") for a forked sweep; lower --threads or raise --replications");
  }
  const std::uint64_t seed = std::uint64_t(args.count("seed"));
  const std::string& topology = args.text("topology");

  fault::ConvergenceConfig base;
  base.problem = topology == "campus"
                     ? fault::campus_problem(args.count("cells"), args.count("conns"), seed)
                     : fault::two_cell_problem();
  base.faults = fault::LinkFaultModel::bernoulli_loss(drop);
  base.faults_start = sim::SimTime::seconds(faults_start);
  base.faults_stop = sim::SimTime::seconds(faults_start + args.number("stop"));
  base.horizon = sim::SimTime::seconds(faults_start + args.number("horizon"));
  base.seed = seed;
  const std::string& ckpt_out = args.text("checkpoint-out");
  const std::string& ckpt_in = args.text("checkpoint-in");
  if ((!ckpt_out.empty() || !ckpt_in.empty() || fork) && faults_start <= 0.0) {
    return refuse("--checkpoint-out/--checkpoint-in/--fork need a positive "
                  "--faults-start barrier (the warm, fault-free phase)");
  }
  if (!ckpt_out.empty() && !ckpt_in.empty()) {
    return refuse("--checkpoint-out and --checkpoint-in are exclusive");
  }

  fault::FaultSchedule::RandomConfig timeline;
  timeline.start = base.faults_start;
  timeline.stop = base.faults_stop;
  timeline.links = std::uint32_t(base.problem.links.size());
  timeline.flaps = args.count("flaps");
  timeline.crashes = args.count("crashes");
  sim::Rng schedule_rng(seed);
  base.schedule = fault::FaultSchedule::random(timeline, schedule_rng);

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
    return refuse("--checkpoint-in applies to single runs; use --fork 1 to share "
                  "one warm checkpoint across a sweep");
  }
  fault::ConvergenceSweepConfig sweep;
  sweep.base = base;
  sweep.replications = replications;
  sweep.threads = threads;
  sweep.fork_from_warm = fork;
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

int run_campus_scale_cmd(Args& args, ObsSession& obs) {
  const std::size_t cells = args.count("cells");
  const std::size_t portables = args.count("portables");
  const std::size_t shards = args.count("shards");
  const double duration = args.number("duration");
  const double tick = args.number("tick");
  if (cells < 2) return refuse("--cells must be at least 2");
  if (tick <= 0.0 || duration <= 0.0) {
    return refuse("--duration and --tick must be positive");
  }
  if (shards == 0) return refuse("--shards must be at least 1");
  if (shards > cells) {
    return refuse("--shards (" + std::to_string(shards) + ") exceeds --cells (" +
                  std::to_string(cells) + "); cells are the unit of parallelism");
  }
  CampusScaleConfig config;
  config.cells = cells;
  config.portables = portables;
  config.seed = std::uint64_t(args.count("seed"));
  config.duration = sim::Duration::seconds(duration);
  config.tick = sim::Duration::seconds(tick);
  config.metrics = obs.registry_or_null();
  config.profiler = obs.profiler_or_null();
  config.progress = obs.progress_or_null();
  config.shards = shards;
  config.batch = args.count("batch");
  config.tracer = obs.tracer_or_null();
  const CampusScaleResult r = run_campus_scale_sharded(config);
  // No dispatch count here: stdout must stay byte-identical across batch
  // sizes (dispatches vary; windows and boundary messages do not).
  std::cout << "engine=sharded cells=" << cells << " portables=" << portables
            << " events=" << r.events << " windows=" << r.windows
            << " boundary=" << r.boundary_messages << " handoffs=" << r.handoffs
            << " admits=" << r.handoff_admitted << " drops=" << r.handoff_dropped
            << " blocked=" << r.new_blocked << " departed=" << r.departures
            << " bytes/portable=" << stats::fmt(r.bytes_per_portable, 1) << '\n';
  return obs.finish("campus_scale", obs.registry.snapshot(),
                    obs.want_profile() ? &r.profile : nullptr);
}

/// Shared serve/drive service-shape flags -> ServiceConfig; nullopt after a
/// refusal (the caller exits 2).
std::optional<serve::ServiceConfig> service_config(const Args& args, ObsSession& obs) {
  serve::ServiceConfig config;
  config.cells = args.count("cells");
  config.slo.queue_capacity = args.count("queue-cap");
  config.slo.p99_target_us = args.number("slo-p99-us");
  config.slo.retry_after_us = args.number("retry-after-us");
  config.virtual_service_cost_us = args.number("service-cost-us");
  config.adapt_every = args.count("adapt-every");
  if (config.cells < 2) return reject("--cells must be at least 2");
  if (config.slo.queue_capacity == 0 || config.slo.p99_target_us <= 0.0 ||
      config.virtual_service_cost_us <= 0.0) {
    return reject("--queue-cap, --slo-p99-us and --service-cost-us must be positive");
  }
  // serve/drive always record into the session registry: the latency
  // percentiles in the service block come from the serve.latency_us /
  // drive.latency_us histograms whether or not --metrics-json was given.
  config.metrics = &obs.registry;
  config.profiler = obs.profiler_or_null();
  return config;
}

/// The block's latency percentiles from `histogram`, judged against the SLO.
void set_latency(obs::ServiceBlock& block, const obs::Snapshot& snapshot,
                 const char* histogram, double slo_p99_us) {
  if (const obs::HistogramSample* h = snapshot.histogram(histogram)) {
    block.latency_p50_us = h->percentile(0.50);
    block.latency_p90_us = h->percentile(0.90);
    block.latency_p99_us = h->percentile(0.99);
  }
  block.slo_p99_us = slo_p99_us;
  block.slo_met = block.latency_p99_us <= block.slo_p99_us;
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
  set_latency(block, snapshot, "serve.latency_us", service.config().slo.p99_target_us);
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
int run_serve_cmd(Args& args, ObsSession& obs) {
  const std::string& path = args.text("socket");
  if (path.empty()) {
    return refuse("serve requires --socket PATH (the AF_UNIX listening address)");
  }
  const std::optional<serve::ServiceConfig> config = service_config(args, obs);
  if (!config) return 2;

  sim::Simulator simulator;
  serve::AdmissionService service(*config, simulator);
  std::unique_ptr<serve::SocketServerTransport> server;
  try {
    server = std::make_unique<serve::SocketServerTransport>(path);
  } catch (const serve::TransportError& e) {
    std::cerr << "scenario_cli: " << e.what() << '\n';
    return 1;
  }
  std::cout << "serving on " << path << " (cells=" << service.cells()
            << " slo-p99=" << stats::fmt(config->slo.p99_target_us, 0)
            << "us queue-cap=" << config->slo.queue_capacity << ")" << std::endl;
  const auto t0 = std::chrono::steady_clock::now();
  service.run_wall(*server, args.number("deadline"));
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
int run_drive_cmd(Args& args, ObsSession& obs) {
  const std::string& transport = args.text("transport");
  args.set_default("pacing", transport == "ring" ? "virtual" : "wall");
  const std::string& pacing = args.text("pacing");
  if (transport == "socket" && pacing == "virtual") {
    return refuse("--pacing virtual needs the in-process ring (a socket peer has "
                  "its own clock); use --transport ring");
  }
  if (transport == "socket" && args.given("profile")) {
    return refuse("invalid --profile: a socket drive hosts no service to profile; "
                  "profile the serve process instead");
  }
  const std::optional<serve::ServiceConfig> service_cfg = service_config(args, obs);
  if (!service_cfg) return 2;

  serve::DriveConfig drive;
  drive.rate = args.number("rate");
  drive.duration_s = args.number("duration");
  const bool poisson = args.text("arrivals") == "poisson";
  if (poisson && (drive.rate <= 0.0 || drive.duration_s <= 0.0)) {
    return refuse("--rate and --duration must be positive");
  }
  if (args.count("portables") == 0) return refuse("--portables must be at least 1");
  drive.seed = std::uint64_t(args.count("seed"));
  drive.portables = std::uint32_t(args.count("portables"));
  drive.cells = std::uint32_t(service_cfg->cells);
  drive.shutdown_after = args.on("shutdown");
  drive.metrics = &obs.registry;
  if (!poisson) {
    const std::string& trace_path = args.text("trace-in");
    if (trace_path.empty()) return refuse("--arrivals trace requires --trace-in PATH");
    try {
      drive.trace = serve::parse_trace(trace_path);
    } catch (const std::runtime_error& e) {
      return refuse(e.what());
    }
    if (drive.trace.empty()) return refuse("trace '" + trace_path + "' has no events");
  }

  if (transport == "socket") {
    const std::string& path = args.text("socket");
    if (path.empty()) return refuse("--transport socket requires --socket PATH");
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
    set_latency(block, snapshot, "drive.latency_us", service_cfg->slo.p99_target_us);
    print_service_summary(block);
    return obs.finish("drive", snapshot, nullptr, &block);
  }

  // In-process ring: the service lives here too.
  sim::Simulator simulator;
  serve::AdmissionService service(*service_cfg, simulator);
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

// ---------------------------------------------------------------------------
// The command tables

struct Command {
  const char* name;
  const char* summary;
  int (*run)(Args&, ObsSession&);
  /// Echoed rows are listed in config-block order.
  std::vector<Flag> flags;
};

/// serve and drive share the service's shape.
std::vector<Flag> with_service_flags(std::vector<Flag> rows) {
  std::vector<Flag> table = {
      flag::count("cells", "16").echoed(),
      flag::number("slo-p99-us", "5000").echoed(1),
      flag::count("queue-cap", "512").echoed(),
      flag::number("retry-after-us", "5000"),
      flag::number("service-cost-us", "200"),
      flag::count("adapt-every", "0"),
      flag::toggle("profile"),
  };
  table.insert(table.end(), rows.begin(), rows.end());
  return table;
}

std::vector<Command> build_commands() {
  using namespace flag;
  std::vector<Command> list = {
      {"classroom", "one classroom meeting day under a reservation policy",
       run_classroom_cmd,
       {
           count("size", "35").echoed(),
           choice("policy", choices_of(kClassroomPolicies), "meeting-room").echoed(),
           count("seed", "7").echoed(),
           number("passby", "18"),
       }},
      {"twocell", "two-cell admission: new-call blocking and handoff dropping",
       run_twocell_cmd,
       {
           probability("faults", "0").echoed(4, faulted),
           count("fault-retries", "3").echoed(0, faulted),
           choice("rule", choices_of(kTwoCellRules), "probabilistic").echoed(),
           number("window", "0.05").echoed(4),
           probability("pqos", "0.01").echoed(4),
           count("seed", "3").echoed(),
           number("duration", "1000"),
           probability("guard", "0.1"),
       }},
      {"fig4", "Fig. 4 office mobility: fan-out and prediction hit rate", run_fig4_cmd,
       {
           number("hours", "100").echoed(1),
           count("users", "12").echoed(),
           count("seed", "1").echoed(),
       }},
      {"maxmin", "distributed max-min protocol against the water-filling optimum",
       run_maxmin_cmd,
       {
           count("links", "6").echoed(),
           count("conns", "12").echoed(),
           count("seed", "1"),
           toggle("profile"),
       }},
      {"campus", "the campus day (the command for bare flags)", run_campus_cmd,
       {
           probability("faults", "0").echoed(4, faulted),
           count("fault-retries", "3").echoed(0, faulted),
           choice("policy", choices_of(kCampusPolicies), "dispatcher").echoed(),
           count("attendees", "40").echoed(),
           count("squatters", "10").echoed(),
           count("seed", "5").echoed(),
           count("replications", "1").echoed(),
           toggle("adapt-loop").echoed(0, adapting),
           count("adapt-flows", "4").echoed(0, adapting),
           probability("adapt-fault", "0.8").echoed(4, adapting),
           number("adapt-fault-start", "60").echoed(1, adapting),
           number("adapt-fault-stop", "100").echoed(1, adapting),
           count("threads", "0"),
           number("checkpoint-at", "60"),
           path("checkpoint-out"),
           path("checkpoint-in"),
           toggle("profile"),
       }},
      {"campus-scale",
       "the grid campus at scale: one sharded-runner domain per cell, --shards workers",
       run_campus_scale_cmd,
       {
           count("cells", "100").echoed(),
           count("portables", "1000").echoed(),
           number("duration", "3600").echoed(1),
           number("tick", "5").echoed(2),
           count("seed", "5").echoed(),
           count("shards", "1").echoed(),
           count("batch", "0").echoed(0, batched),
           toggle("profile"),
           number("progress", "0"),
       }},
      {"faults", "max-min reconvergence under a lossy control plane and outages",
       run_faults_cmd,
       {
           choice("topology", "twocell|campus", "twocell").echoed(),
           probability("drop", "0.1").echoed(4),
           count("flaps", "2").echoed(),
           count("crashes", "1").echoed(),
           count("seed", "1").echoed(),
           count("replications", "8").echoed(),
           number("faults-start", "0").echoed(3, warm_barrier),
           count("threads", "0"),
           count("cells", "8"),
           count("conns", "24"),
           number("stop", "0.5"),
           number("horizon", "30"),
           toggle("fork"),
           path("checkpoint-out"),
           path("checkpoint-in"),
       }},
      {"serve", "the admission service on an AF_UNIX socket, until Shutdown or --deadline",
       run_serve_cmd,
       with_service_flags({
           path("socket").echoed(),
           number("deadline", "0"),
       })},
      {"drive", "open-loop load driver; ring+virtual is deterministic", run_drive_cmd,
       with_service_flags({
           path("trace-in").echoed(0, trace_arrivals),
           choice("transport", "ring|socket", "ring").echoed(),
           choice("pacing", "virtual|wall", "").echoed(),
           choice("arrivals", "poisson|trace", "poisson").echoed(),
           number("rate", "1000").echoed(1),
           number("duration", "10").echoed(2),
           count("seed", "1").echoed(),
           count("portables", "64").echoed(),
           path("socket").echoed(0, over_socket),
           toggle("shutdown"),
       })},
  };
  // Every command writes the report artifacts.
  for (Command& command : list) {
    command.flags.push_back(path("metrics-json"));
    command.flags.push_back(path("trace-out"));
  }
  return list;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> table = build_commands();
  return table;
}

void usage() {
  std::cout << "usage: scenario_cli [<command>] [--flag value ...]\n"
               "Flags alone, with no command, run campus. Each command takes the\n"
               "flags listed under it (value type, default).\n";
  for (const Command& command : commands()) {
    std::cout << '\n' << command.name << "  " << command.summary << '\n';
    for (const Flag& row : command.flags) {
      std::cout << "  --" << std::left << std::setw(18) << row.name << ' ' << type_name(row);
      if (!row.fallback.empty()) std::cout << "  (default " << row.fallback << ')';
      std::cout << '\n';
    }
  }
}

/// Checks argv[first..] against `command`'s table: only `--flag value` pairs
/// of that table, each at most once, each value valid for its type. Returns
/// nullopt after a diagnostic.
std::optional<Args> parse_flags(const Command& command, int argc, char** argv, int first) {
  Args args;
  for (const Flag& row : command.flags) args.set(row.name, row.fallback, false);
  for (int i = first; i < argc; i += 2) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      return reject("invalid argument '" + token + "' (flags are --name value pairs)");
    }
    const std::string name = token.substr(2);
    const auto row = std::find_if(command.flags.begin(), command.flags.end(),
                                  [&](const Flag& f) { return f.name == name; });
    if (row == command.flags.end()) {
      return reject("invalid " + token + " (not a " + command.name +
                    " flag; scenario_cli with no arguments lists them)");
    }
    if (args.given(name)) return reject("invalid " + token + " (given twice)");
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      return reject("invalid " + token + " (no value)");
    }
    const std::string value = argv[i + 1];
    if (const std::string expected = value_error(*row, value); !expected.empty()) {
      return reject("invalid " + token + " value '" + value + "' (expected " + expected + ")");
    }
    args.set(name, value, true);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  // Leading flags with no command: default to the campus scenario.
  const bool bare_flags = argc > 1 && std::strncmp(argv[1], "--", 2) == 0;
  const std::string name = bare_flags ? "campus" : argc > 1 ? argv[1] : "";
  for (const Command& command : commands()) {
    if (command.name != name) continue;
    std::optional<Args> args = parse_flags(command, argc, argv, bare_flags ? 1 : 2);
    if (!args) return 2;
    ObsSession obs(command.flags, *args);
    return command.run(*args, obs);
  }
  if (!name.empty()) std::cerr << "scenario_cli: unknown command '" << name << "'\n";
  usage();
  return 2;
}
