#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "qos/admission.h"

namespace imrm::serve {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

// Index of the p99 sample among `filled` sorted ones.
std::size_t p99_rank(std::size_t filled) {
  return std::min(filled - 1, std::size_t(double(filled) * 0.99));
}

}  // namespace

obs::HistogramSpec latency_histogram_spec() {
  // 1 µs .. 2^20 µs (~1.05 s), 8 sub-buckets per octave: <=12.5% relative
  // error at every scale a request latency can plausibly land in.
  return obs::HistogramSpec::log2(1.0, 1048576.0, 8);
}

mobility::CellMap service_cell_map(std::size_t cells) {
  mobility::CellMap map;
  std::vector<mobility::CellId> ids;
  ids.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    ids.push_back(
        map.add_cell(mobility::CellClass::kOffice, std::string("s").append(std::to_string(i))));
  }
  for (std::size_t i = 1; i < cells; ++i) map.connect(ids[i - 1], ids[i]);
  return map;
}

// ---- OverloadGovernor ----------------------------------------------------

OverloadGovernor::OverloadGovernor(const SloConfig& slo)
    : slo_(slo), window_(std::max<std::size_t>(slo.latency_window, 8), 0.0) {}

bool OverloadGovernor::admit(std::size_t queue_depth) {
  if (shedding_) {
    // Exit on depth alone. Shed mode stops latency observations, so the p99
    // estimate is frozen at its overloaded value — gating recovery on it
    // would shed forever. A drained queue is the live signal that the
    // server caught up; fresh samples then re-judge the latency SLO.
    if (queue_depth > slo_.queue_capacity / 2) return false;
    shedding_ = false;
    fresh_ = 0;  // the p99 trigger re-arms only on post-recovery evidence
  }
  if (queue_depth >= slo_.queue_capacity) {
    shedding_ = true;
    return false;
  }
  if (fresh_ >= kMinFreshSamples && over_target_) {
    shedding_ = true;
    return false;
  }
  return true;
}

void OverloadGovernor::observe_latency(double us) {
  if (filled_ == window_.size() && window_[next_] > slo_.p99_target_us) --above_;
  if (us > slo_.p99_target_us) ++above_;
  window_[next_] = us;
  next_ = (next_ + 1) % window_.size();
  filled_ = std::min(filled_ + 1, window_.size());
  ++fresh_;
  if (++since_refresh_ >= kRefreshInterval) {
    since_refresh_ = 0;
    over_target_ = above_ >= filled_ - p99_rank(filled_);
  }
}

double OverloadGovernor::window_p99_us() const {
  if (filled_ == 0) return 0.0;
  std::vector<double> samples(window_.begin(), window_.begin() + std::ptrdiff_t(filled_));
  const std::size_t rank = p99_rank(filled_);
  std::nth_element(samples.begin(), samples.begin() + std::ptrdiff_t(rank), samples.end());
  return samples[rank];
}

// ---- AdmissionService ----------------------------------------------------

AdmissionService::AdmissionService(const ServiceConfig& config, sim::Simulator& simulator)
    : config_(config),
      simulator_(&simulator),
      map_size_(std::max<std::size_t>(config.cells, 2)),
      governor_(config.slo) {
  env_.emplace(service_cell_map(map_size_), simulator, config_.backbone);
  bind_metrics();
  if (config_.profiler != nullptr) {
    ph_decode_ = config_.profiler->intern("serve.decode");
    ph_admit_ = config_.profiler->intern("serve.admit");
    ph_reply_ = config_.profiler->intern("serve.reply");
  }
}

void AdmissionService::bind_metrics() {
  obs::Registry* r = config_.metrics;
  if (r == nullptr) return;
  c_offered_ = &r->counter("serve.offered");
  c_processed_ = &r->counter("serve.processed");
  c_shed_ = &r->counter("serve.shed");
  c_errors_ = &r->counter("serve.errors");
  c_admit_accepted_ = &r->counter("serve.admit_accepted");
  c_admit_rejected_ = &r->counter("serve.admit_rejected");
  c_teardowns_ = &r->counter("serve.teardowns");
  c_handoffs_ = &r->counter("serve.handoffs");
  c_handoff_drops_ = &r->counter("serve.handoff_drops");
  c_probes_ = &r->counter("serve.probes");
  g_queue_depth_ = &r->gauge("serve.queue_depth");
  h_latency_us_ = &r->histogram("serve.latency_us", latency_histogram_spec());
}

double AdmissionService::sim_now_us() const {
  return simulator_->now().to_seconds() * 1e6;
}

void AdmissionService::set_depth_gauge() {
  if (g_queue_depth_ != nullptr) g_queue_depth_->set(double(queue_depth()));
}

AdmissionService::Pending& AdmissionService::enqueue() {
  if (queued_ == queue_.size()) {
    std::vector<Pending> grown(std::max<std::size_t>(16, 2 * queue_.size()));
    for (std::size_t i = 0; i < queued_; ++i) {
      grown[i] = std::move(queue_[(queue_head_ + i) & (queue_.size() - 1)]);
    }
    queue_.swap(grown);
    queue_head_ = 0;
  }
  return queue_[(queue_head_ + queued_++) & (queue_.size() - 1)];
}

const AdmissionService::Pending& AdmissionService::dequeue() {
  const Pending& head = queue_[queue_head_];
  queue_head_ = (queue_head_ + 1) & (queue_.size() - 1);
  --queued_;
  return head;
}

void AdmissionService::ingest(ServerTransport& transport, Envelope& env,
                              double now_us) {
  ++stats_.offered;
  if (c_offered_ != nullptr) c_offered_->add();
  if (!governor_.admit(queue_depth())) {
    ++stats_.shed;
    if (c_shed_ != nullptr) c_shed_->add();
    const std::uint64_t id = peek_request_id(env.frame);
    encode_reply(id, ShedReply{governor_.slo().retry_after_us}, reply_frame_);
    transport.send_reply(env.client, reply_frame_);
    return;
  }
  Pending& slot = enqueue();
  slot.client = env.client;
  slot.frame.swap(env.frame);
  slot.arrival_us = now_us;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queue_depth());
  set_depth_gauge();
}

void AdmissionService::process(ServerTransport& transport, const Pending& pending,
                               double now_us) {
  std::optional<RequestFrame> frame;
  {
    obs::Profiler::Scope scope(config_.profiler, ph_decode_);
    try {
      frame = decode_request(pending.frame);
    } catch (const CodecError& e) {
      ++stats_.errors;
      if (c_errors_ != nullptr) c_errors_->add();
      const std::uint64_t id = peek_request_id(pending.frame);
      encode_reply(id, ErrorReply{ServiceError::kMalformedFrame, e.what()}, reply_frame_);
      transport.send_reply(pending.client, reply_frame_);
    }
  }
  if (frame.has_value()) {
    Reply reply;
    {
      obs::Profiler::Scope scope(config_.profiler, ph_admit_);
      reply = execute(frame->body);
    }
    if (std::holds_alternative<ErrorReply>(reply)) {
      ++stats_.errors;
      if (c_errors_ != nullptr) c_errors_->add();
    }
    obs::Profiler::Scope scope(config_.profiler, ph_reply_);
    encode_reply(frame->request_id, reply, reply_frame_);
    transport.send_reply(pending.client, reply_frame_);
  }
  ++stats_.processed;
  if (c_processed_ != nullptr) c_processed_->add();
  const double latency_us = std::max(0.0, now_us - pending.arrival_us);
  governor_.observe_latency(latency_us);
  if (h_latency_us_ != nullptr) h_latency_us_->record(latency_us);
  set_depth_gauge();

  if (config_.adapt_every > 0 && ++processed_since_adapt_ >= config_.adapt_every) {
    processed_since_adapt_ = 0;
    obs::Profiler::Scope scope(config_.profiler, ph_admit_);
    env_->adapt();
  }
}

void AdmissionService::schedule_virtual_completion() {
  if (virtual_busy_ || queued_ == 0) return;
  virtual_busy_ = true;
  simulator_->after(
      sim::Duration::seconds(config_.virtual_service_cost_us * 1e-6), [this] {
        process(*virtual_transport_, dequeue(), sim_now_us());
        virtual_busy_ = false;
        schedule_virtual_completion();
      });
}

void AdmissionService::pump_virtual(ServerTransport& transport) {
  virtual_transport_ = &transport;
  const double now_us = sim_now_us();
  while (transport.next_request(envelope_, std::chrono::microseconds(0))) {
    ingest(transport, envelope_, now_us);
  }
  schedule_virtual_completion();
}

void AdmissionService::run_wall(ServerTransport& transport, double deadline_seconds) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const auto now_us = [&start] {
    return std::chrono::duration<double, std::micro>(clock::now() - start).count();
  };
  while (true) {
    // Ingest a burst: block briefly only when there is nothing to do.
    auto wait = queued_ == 0 ? std::chrono::microseconds(1000)
                             : std::chrono::microseconds(0);
    while (queued_ <= governor_.slo().queue_capacity &&
           transport.next_request(envelope_, wait)) {
      ingest(transport, envelope_, now_us());
      wait = std::chrono::microseconds(0);
    }
    if (queued_ != 0) {
      // Advance simulated time alongside the wall clock so environment-side
      // time (static/mobile classification, reservations) keeps moving.
      simulator_->run_until(sim::SimTime::seconds(now_us() * 1e-6));
      process(transport, dequeue(), now_us());
    }
    if (shutdown_ && queued_ == 0) return;
    if (queued_ == 0 && transport.finished()) return;
    if (deadline_seconds > 0.0 && now_us() * 1e-6 >= deadline_seconds) return;
  }
}

Reply AdmissionService::execute(const Request& request) {
  if (shutdown_) {
    return ErrorReply{ServiceError::kShuttingDown, "service is shutting down"};
  }
  return std::visit(
      Overloaded{
          [this](const AdmitRequest& r) { return do_admit(r); },
          [this](const TeardownRequest& r) { return do_teardown(r); },
          [this](const HandoffRequest& r) { return do_handoff(r); },
          [this](const ProbeRequest&) -> Reply {
            ++stats_.probes;
            if (c_probes_ != nullptr) c_probes_->add();
            ProbeReply reply;
            reply.offered = stats_.offered;
            reply.processed = stats_.processed;
            reply.shed = stats_.shed;
            reply.errors = stats_.errors;
            reply.queue_depth = std::uint32_t(queue_depth());
            reply.cells = std::uint32_t(map_size_);
            return reply;
          },
          [this](const ShutdownRequest&) -> Reply {
            shutdown_ = true;
            return ShutdownReply{};
          },
      },
      request);
}

Reply AdmissionService::do_admit(const AdmitRequest& request) {
  if (request.cell >= map_size_) {
    return ErrorReply{ServiceError::kUnknownCell,
                      "cell " + std::to_string(request.cell) + " out of range (" +
                          std::to_string(map_size_) + " cells)"};
  }
  const mobility::CellId cell{request.cell};
  const auto [it, inserted] = portable_of_.try_emplace(request.portable,
                                                      net::PortableId::invalid());
  if (inserted) it->second = env_->add_portable(cell);
  const net::PortableId portable = it->second;
  if (env_->has_connection(portable)) {
    return ErrorReply{ServiceError::kAlreadyAdmitted,
                      "portable " + std::to_string(request.portable) +
                          " already has an open connection"};
  }
  const mobility::CellId current = env_->mobility().portable(portable).current_cell;
  if (current != cell) {
    // A session-less portable re-admitting from elsewhere: relocate it, but
    // only along the neighbor relation the mobility model enforces.
    if (!env_->map().cell(current).is_neighbor(cell)) {
      return ErrorReply{ServiceError::kNotAdjacent,
                        "portable " + std::to_string(request.portable) + " is in cell " +
                            std::to_string(current.value()) + ", not adjacent to " +
                            std::to_string(request.cell)};
    }
    env_->handoff(portable, cell);
  }
  if (!request.qos.valid()) {
    AdmitReply reply;
    reply.accepted = false;
    reply.reason = std::uint8_t(qos::RejectReason::kInvalidRequest);
    ++stats_.admit_rejected;
    if (c_admit_rejected_ != nullptr) c_admit_rejected_->add();
    return reply;
  }
  const bool accepted = env_->open_connection(
      portable, request.qos,
      request.uplink ? core::Direction::kUplink : core::Direction::kDownlink);
  AdmitReply reply;
  reply.accepted = accepted;
  reply.allocated_bps = accepted ? env_->allocated(portable) : 0.0;
  if (accepted) {
    ++stats_.admit_accepted;
    if (c_admit_accepted_ != nullptr) c_admit_accepted_->add();
  } else {
    ++stats_.admit_rejected;
    if (c_admit_rejected_ != nullptr) c_admit_rejected_->add();
  }
  return reply;
}

Reply AdmissionService::do_teardown(const TeardownRequest& request) {
  ++stats_.teardowns;
  if (c_teardowns_ != nullptr) c_teardowns_->add();
  const auto it = portable_of_.find(request.portable);
  TeardownReply reply;  // idempotent: unknown portable / no session => false
  if (it != portable_of_.end() && env_->has_connection(it->second)) {
    env_->close_connection(it->second);
    reply.had_session = true;
  }
  return reply;
}

Reply AdmissionService::do_handoff(const HandoffRequest& request) {
  const auto it = portable_of_.find(request.portable);
  if (it == portable_of_.end()) {
    return ErrorReply{ServiceError::kUnknownPortable,
                      "portable " + std::to_string(request.portable) + " was never admitted"};
  }
  if (request.to_cell >= map_size_) {
    return ErrorReply{ServiceError::kUnknownCell,
                      "cell " + std::to_string(request.to_cell) + " out of range (" +
                          std::to_string(map_size_) + " cells)"};
  }
  const mobility::CellId to{request.to_cell};
  const mobility::CellId current = env_->mobility().portable(it->second).current_cell;
  if (current == to || !env_->map().cell(current).is_neighbor(to)) {
    return ErrorReply{ServiceError::kNotAdjacent,
                      "cell " + std::to_string(request.to_cell) + " is not a neighbor of " +
                          std::to_string(current.value())};
  }
  const bool completed = env_->handoff(it->second, to);
  HandoffReply reply;
  reply.completed = completed;
  ++stats_.handoffs;
  if (c_handoffs_ != nullptr) c_handoffs_->add();
  if (!completed) {
    ++stats_.handoff_drops;
    if (c_handoff_drops_ != nullptr) c_handoff_drops_->add();
  }
  return reply;
}

}  // namespace imrm::serve
