#include "serve/load_driver.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "serve/ring_transport.h"

namespace imrm::serve {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

[[noreturn]] void trace_error(const std::string& path, std::size_t line,
                              const std::string& what) {
  throw std::runtime_error(path + ":" + std::to_string(line) + ": " + what);
}

}  // namespace

std::vector<TraceEvent> parse_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file '" + path + "'");
  std::vector<TraceEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream fields(line);
    double at = 0.0;
    std::string kind;
    if (!(fields >> at)) continue;  // blank / comment-only line
    if (!(fields >> kind)) trace_error(path, lineno, "missing event kind");
    TraceEvent event;
    event.at_seconds = at;
    if (at < 0.0) trace_error(path, lineno, "negative timestamp");
    if (!events.empty() && at < events.back().at_seconds) {
      trace_error(path, lineno, "events not sorted by time");
    }
    bool wants_cell = false;
    if (kind == "admit") {
      event.kind = MsgType::kAdmit;
      wants_cell = true;
    } else if (kind == "teardown") {
      event.kind = MsgType::kTeardown;
    } else if (kind == "handoff") {
      event.kind = MsgType::kHandoff;
      wants_cell = true;
    } else if (kind == "probe") {
      event.kind = MsgType::kProbe;
    } else {
      trace_error(path, lineno, "unknown event kind '" + kind +
                                    "' (want admit|teardown|handoff|probe)");
    }
    if (event.kind != MsgType::kProbe) {
      if (!(fields >> event.portable)) {
        trace_error(path, lineno, "missing portable id");
      }
    }
    if (wants_cell && !(fields >> event.cell)) {
      trace_error(path, lineno, "missing cell for '" + kind + "'");
    }
    std::string extra;
    if (fields >> extra) {
      trace_error(path, lineno, "trailing token '" + extra + "'");
    }
    events.push_back(event);
  }
  return events;
}

LoadDriver::LoadDriver(const DriveConfig& config)
    : config_(config),
      cell_of_(config.portables, 0),
      admitted_(config.portables, false),
      seen_(config.portables, false) {
  if (config_.portables == 0) config_.portables = 1;
  if (config_.cells < 2) config_.cells = 2;
  cell_of_.resize(config_.portables);
  admitted_.resize(config_.portables, false);
  seen_.resize(config_.portables, false);
  for (std::uint32_t p = 0; p < config_.portables; ++p) {
    cell_of_[p] = p % config_.cells;
  }
  if (config_.metrics != nullptr) {
    h_latency_us_ =
        &config_.metrics->histogram("drive.latency_us", latency_histogram_spec());
    c_sent_ = &config_.metrics->counter("drive.sent");
    c_shed_ = &config_.metrics->counter("drive.shed");
  }
}

void LoadDriver::record_latency(double us) {
  if (h_latency_us_ != nullptr) h_latency_us_->record(std::max(0.0, us));
}

Request LoadDriver::next_request(sim::Rng& rng) {
  const auto p =
      std::uint32_t(rng.uniform_int(0, int(config_.portables) - 1));
  const std::array<double, 4> weights{config_.admit_weight, config_.teardown_weight,
                                      config_.handoff_weight, config_.probe_weight};
  std::size_t kind = rng.discrete(weights);
  // Keep the mix well-formed per portable: an admit for a portable the
  // driver believes holds a session becomes a teardown; a teardown/handoff
  // for a portable the service has never met becomes an admit.
  if (kind == 0 && admitted_[p]) kind = 1;
  if ((kind == 1 || kind == 2) && !seen_[p]) kind = 0;
  last_intent_ = Intent{};
  switch (kind) {
    case 0: {
      AdmitRequest req;
      req.portable = p;
      req.cell = cell_of_[p];
      req.uplink = rng.bernoulli(0.5);
      req.qos = config_.qos;
      seen_[p] = true;
      admitted_[p] = true;  // optimistic; rolled back if shed
      last_intent_ = Intent{1, p, 0, 0};
      return req;
    }
    case 1: {
      admitted_[p] = false;
      last_intent_ = Intent{2, p, 0, 0};
      return TeardownRequest{p};
    }
    case 2: {
      // Corridor-chain neighbor: one step left or right, clamped at ends.
      const std::uint32_t cur = cell_of_[p];
      std::uint32_t to;
      if (cur == 0) {
        to = 1;
      } else if (cur == config_.cells - 1) {
        to = cur - 1;
      } else {
        to = rng.bernoulli(0.5) ? cur + 1 : cur - 1;
      }
      cell_of_[p] = to;
      last_intent_ = Intent{3, p, cur, to};
      return HandoffRequest{p, to};
    }
    default:
      return ProbeRequest{};
  }
}

void LoadDriver::reset_outstanding() {
  std::fill(outstanding_.begin(), outstanding_.end(), Outstanding{});
  outstanding_count_ = 0;
}

void LoadDriver::grow_outstanding() {
  // Two live ids share a slot of the doubled ring only if they already
  // shared one, so the moves below never collide.
  std::vector<Outstanding> grown(std::max<std::size_t>(64, 2 * outstanding_.size()));
  for (const Outstanding& o : outstanding_) {
    if (o.id != 0) grown[o.id & (grown.size() - 1)] = o;
  }
  outstanding_.swap(grown);
}

void LoadDriver::note_sent(std::uint64_t request_id, double sent_at_us) {
  while (outstanding_.empty() ||
         outstanding_[request_id & (outstanding_.size() - 1)].id != 0) {
    grow_outstanding();
  }
  outstanding_[request_id & (outstanding_.size() - 1)] =
      Outstanding{request_id, sent_at_us, last_intent_};
  ++outstanding_count_;
  last_intent_ = Intent{};
}

void LoadDriver::account_reply(const ReplyFrame& frame, double now_us, DriveStats& stats) {
  const bool executed = !std::holds_alternative<ShedReply>(frame.body) &&
                        !std::holds_alternative<ErrorReply>(frame.body);
  Outstanding* sent = nullptr;
  if (frame.request_id != 0 && !outstanding_.empty()) {
    Outstanding& slot = outstanding_[frame.request_id & (outstanding_.size() - 1)];
    if (slot.id == frame.request_id) sent = &slot;
  }
  if (sent != nullptr) {
    if (!executed) {
      // The service never ran this request: undo the optimistic belief
      // update unless a later request already moved the same state on.
      const Intent& intent = sent->intent;
      const std::uint32_t p = intent.portable;
      if (intent.kind == 1) {
        admitted_[p] = false;
      } else if (intent.kind == 2) {
        admitted_[p] = true;
      } else if (intent.kind == 3 && cell_of_[p] == intent.new_cell) {
        cell_of_[p] = intent.prev_cell;
      }
    }
    record_latency(now_us - sent->sent_at_us);
    *sent = Outstanding{};
    --outstanding_count_;
  }
  std::visit(Overloaded{
                 [&](const AdmitReply& r) {
                   if (r.accepted) {
                     ++stats.accepted;
                   } else {
                     ++stats.rejected;
                   }
                 },
                 [&](const TeardownReply&) { ++stats.accepted; },
                 [&](const HandoffReply& r) {
                   if (r.completed) {
                     ++stats.accepted;
                   } else {
                     ++stats.rejected;
                   }
                 },
                 [&](const ProbeReply&) { ++stats.accepted; },
                 [&](const ShutdownReply&) { ++stats.accepted; },
                 [&](const ShedReply&) {
                   ++stats.shed;
                   if (c_shed_ != nullptr) c_shed_->add();
                 },
                 [&](const ErrorReply&) { ++stats.errors; },
             },
             frame.body);
}

namespace {

Request trace_to_request(const TraceEvent& event, const DriveConfig& config) {
  switch (event.kind) {
    case MsgType::kAdmit: {
      AdmitRequest req;
      req.portable = event.portable;
      req.cell = event.cell;
      req.qos = config.qos;
      return req;
    }
    case MsgType::kTeardown:
      return TeardownRequest{event.portable};
    case MsgType::kHandoff:
      return HandoffRequest{event.portable, event.cell};
    default:
      return ProbeRequest{};
  }
}

}  // namespace

DriveStats LoadDriver::run_virtual(sim::Simulator& simulator, RingTransport& transport,
                                   AdmissionService& service) {
  DriveStats stats;
  reset_outstanding();
  sim::Rng rng(config_.seed);
  auto& client = transport.client();
  std::uint64_t next_id = 1;
  const double t0_s = simulator.now().to_seconds();
  obs::Profiler* profiler = service.config().profiler;
  const obs::PhaseId ph_send =
      profiler != nullptr ? profiler->intern("serve.drive.send") : obs::kInvalidPhase;
  const obs::PhaseId ph_drain =
      profiler != nullptr ? profiler->intern("serve.drive.drain") : obs::kInvalidPhase;

  const auto now_us = [&simulator] { return simulator.now().to_seconds() * 1e6; };
  const auto drain = [&] {
    obs::Profiler::Scope scope(profiler, ph_drain);
    while (client.next_reply(reply_frame_, std::chrono::microseconds(0))) {
      try {
        account_reply(decode_reply(reply_frame_), now_us(), stats);
      } catch (const CodecError&) {
        ++stats.errors;
      }
    }
  };
  // One arrival: the trace's next event, or the mix's next request when
  // `event` is null.
  const auto arrive = [&](const TraceEvent* event) {
    {
      obs::Profiler::Scope scope(profiler, ph_send);
      const Request request =
          event != nullptr ? trace_to_request(*event, config_) : next_request(rng);
      const std::uint64_t id = next_id++;
      note_sent(id, now_us());
      ++stats.sent;
      if (c_sent_ != nullptr) c_sent_->add();
      encode_request(id, request, request_frame_);
      client.send_request(request_frame_);
    }
    service.pump_virtual(transport.server());
    drain();
  };

  // Self-perpetuating Poisson arrival: each firing schedules the next gap
  // until the driven window closes. `fire` outlives every scheduled copy
  // because run() completes before this function returns.
  std::function<void()> fire;
  if (!config_.trace.empty()) {
    for (const TraceEvent& event : config_.trace) {
      simulator.at(sim::SimTime::seconds(t0_s + event.at_seconds),
                   [&arrive, &event] { arrive(&event); });
    }
  } else {
    const double t_end_s = t0_s + config_.duration_s;
    fire = [&, t_end_s] {
      if (simulator.now().to_seconds() >= t_end_s) return;
      arrive(nullptr);
      simulator.after(sim::Duration::seconds(rng.exponential_rate(config_.rate)),
                      [&fire] { fire(); });
    };
    simulator.after(sim::Duration::seconds(rng.exponential_rate(config_.rate)),
                    [&fire] { fire(); });
  }

  simulator.run();
  drain();
  stats.unanswered = outstanding_count_;
  stats.duration_s = simulator.now().to_seconds() - t0_s;
  return stats;
}

DriveStats LoadDriver::run_wall(ClientTransport& client, double drain_wait_s) {
  using clock = std::chrono::steady_clock;
  DriveStats stats;
  reset_outstanding();
  sim::Rng rng(config_.seed);
  std::uint64_t next_id = 1;
  const auto start = clock::now();
  const auto elapsed_us = [&start] {
    return std::chrono::duration<double, std::micro>(clock::now() - start).count();
  };

  const auto handle_replies = [&](std::chrono::microseconds wait) {
    while (client.next_reply(reply_frame_, wait)) {
      try {
        account_reply(decode_reply(reply_frame_), elapsed_us(), stats);
      } catch (const CodecError&) {
        ++stats.errors;
      }
      wait = std::chrono::microseconds(0);
    }
  };
  const auto send_one = [&](const Request& request) {
    const std::uint64_t id = next_id++;
    ++stats.sent;
    if (c_sent_ != nullptr) c_sent_->add();
    encode_request(id, request, request_frame_);
    if (client.send_request(request_frame_)) {
      note_sent(id, elapsed_us());
    } else {
      // Transport full or closed. Open loop: count it and keep the pace.
      ++stats.unanswered;
      last_intent_ = Intent{};
    }
  };

  const bool use_trace = !config_.trace.empty();
  std::size_t trace_index = 0;
  double next_at_us = use_trace ? config_.trace[0].at_seconds * 1e6
                                : rng.exponential_rate(config_.rate) * 1e6;
  while (true) {
    if (use_trace) {
      if (trace_index >= config_.trace.size()) break;
    } else if (next_at_us > config_.duration_s * 1e6) {
      break;
    }
    // Hold to the open-loop schedule, draining replies while we wait.
    while (elapsed_us() < next_at_us) {
      const double slack_us = next_at_us - elapsed_us();
      handle_replies(std::chrono::microseconds(
          std::int64_t(std::min(slack_us, 1000.0))));
    }
    if (use_trace) {
      send_one(trace_to_request(config_.trace[trace_index], config_));
      ++trace_index;
      if (trace_index < config_.trace.size()) {
        next_at_us = config_.trace[trace_index].at_seconds * 1e6;
      }
    } else {
      send_one(next_request(rng));
      next_at_us += rng.exponential_rate(config_.rate) * 1e6;
    }
    handle_replies(std::chrono::microseconds(0));
  }

  if (config_.shutdown_after) send_one(ShutdownRequest{});

  const auto drain_deadline =
      clock::now() + std::chrono::microseconds(std::int64_t(drain_wait_s * 1e6));
  while (outstanding_count_ != 0 && clock::now() < drain_deadline) {
    handle_replies(std::chrono::microseconds(10000));
  }
  stats.unanswered += outstanding_count_;
  stats.duration_s = elapsed_us() * 1e-6;
  client.close();
  return stats;
}

}  // namespace imrm::serve
