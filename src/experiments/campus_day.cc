#include "experiments/campus_day.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault_model.h"
#include "maxmin/waterfill.h"
#include "mobility/floorplan.h"
#include "mobility/manager.h"
#include "obs/profiler.h"
#include "qos/adaptation.h"
#include "qos/packet_sim.h"
#include "qos/shaper.h"
#include "prediction/predictor.h"
#include "profiles/profile_server.h"
#include "reservation/dispatcher.h"
#include "sim/random.h"
#include "sim/replication.h"
#include "sim/simulator.h"
#include "workload/connection_mix.h"

namespace imrm::experiments {

using mobility::CellId;
using net::PortableId;
using qos::kbps;
using sim::Duration;
using sim::SimTime;

std::string to_string(CampusPolicy policy) {
  switch (policy) {
    case CampusPolicy::kNone: return "none";
    case CampusPolicy::kStatic: return "static";
    case CampusPolicy::kBruteForce: return "brute-force";
    case CampusPolicy::kAggregate: return "aggregate";
    case CampusPolicy::kDispatcher: return "dispatcher (Sec. 6.4)";
  }
  return "unknown";
}

namespace {

class CampusDay {
 public:
  explicit CampusDay(const CampusDayConfig& config)
      : config_(config), map_(mobility::campus_environment()),
        manager_(map_, simulator_, Duration::minutes(3)), server_(net::ZoneId{0}),
        predictor_(map_, server_), rng_(config.seed),
        horizon_(config.meeting_stop + Duration::minutes(40)) {
    directory_.reserve(map_.size());
    for (const auto& cell : map_.cells()) {
      directory_.add_cell(cell.id, config_.cell_capacity);
    }
    room_ = *map_.find("meeting-room");
    corridor_ = *map_.find("corridor-0");
    far_corridor_ = *map_.find("corridor-3");
    server_.calendar(room_).book(
        {config_.meeting_start, config_.meeting_stop, config_.attendees});

    manager_.on_handoff([this](const mobility::HandoffEvent& e) {
      server_.record_handoff(e);
      if (policy_) policy_->on_handoff(e);
    });
    build_policy();

    // Only fork a probe stream when faults are on, so fault-free days keep
    // drawing exactly the pre-fault sequence from rng_.
    if (config_.faults.enabled()) probe_.emplace(config_.faults, rng_.fork());

    // The adaptation loop is likewise gated: a disabled loop builds no
    // packet pipeline and forks no RNG, so loop-off days stay byte-identical.
    if (config_.adapt.enabled) setup_adapt_loop();

    if (config_.tracer) simulator_.set_tracer(config_.tracer);
    if (config_.profiler != nullptr && config_.profiler->enabled()) {
      profiler_ = config_.profiler;
      ph_day_ = profiler_->intern("campus.day");
      ph_refresh_ = profiler_->intern("campus.refresh");
      ph_handoff_ = profiler_->intern("campus.handoff");
      ph_admission_ = profiler_->intern("campus.admission");
      if (adapt_) ph_adapt_ = profiler_->intern("campus.adapt");
    }
    if (config_.metrics) {
      directory_.bind_metrics(*config_.metrics);
      manager_.bind_metrics(*config_.metrics);
      if (config_.wall_metrics) manager_.bind_latency_metrics(*config_.metrics);
      if (probe_) probe_->bind_metrics(config_.metrics);
    }
  }

  CampusDayResult run() {
    start();
    run_events();
    return finish();
  }

  /// Runs up to (not including) the first event at or after `at`, then
  /// snapshots everything a resume needs. The quiescence rule holds by
  /// construction: every pending event is a live record in pending_.
  sim::Checkpoint checkpoint(SimTime at) {
    if (config_.adapt.enabled) {
      // The packet pipeline schedules raw lambdas (source ticks, link
      // serves), not tagged PendingEvent records — there is nothing to
      // re-arm on the other side, so refuse instead of silently dropping
      // the in-flight packets.
      throw sim::CheckpointError(
          "campus: the adaptation loop does not support checkpoint/resume");
    }
    start();
    {
      const obs::Profiler::Scope scope(profiler_, ph_day_);
      while (simulator_.next_event_time() < at && simulator_.step()) {
      }
    }
    sim::Checkpoint ckpt;
    {
      sim::CheckpointWriter w;
      sim::save_simulator_core(w, simulator_);
      ckpt.set("sim.core", std::move(w));
    }
    {
      sim::CheckpointWriter w;
      save_harness(w);
      ckpt.set("experiment.campus", std::move(w));
    }
    if (config_.metrics) {
      sim::CheckpointWriter w;
      sim::save_registry(w, *config_.metrics);
      ckpt.set("obs.registry", std::move(w));
    }
    return ckpt;
  }

  CampusDayResult resume(const sim::Checkpoint& ckpt) {
    if (config_.adapt.enabled) {
      throw sim::CheckpointError(
          "campus: the adaptation loop does not support checkpoint/resume");
    }
    sim::CheckpointReader h = ckpt.reader("experiment.campus");
    restore_harness(h);
    if (!h.done()) {
      throw sim::CheckpointError("campus: trailing bytes in experiment section");
    }
    // Driver core last: re-arming above inflated the queue counters; the
    // saved totals already account for every live event.
    sim::CheckpointReader core = ckpt.reader("sim.core");
    sim::restore_simulator_core(core, simulator_);
    if (config_.metrics) {
      // A metered resume needs the warm-phase instrument totals; silently
      // continuing from zeros would report a day missing its first half.
      if (!ckpt.has("obs.registry")) {
        throw sim::CheckpointError(
            "campus: resume wants metrics but the checkpoint has no "
            "obs.registry section (re-take it with metrics enabled)");
      }
      sim::CheckpointReader reg = ckpt.reader("obs.registry");
      sim::restore_registry(reg, *config_.metrics);
    }
    run_events();
    return finish();
  }

 private:
  // Every scheduled occurrence is one of these tags plus plain data — no
  // captured lambdas — so a checkpoint can re-arm the exact schedule.
  enum class EventKind : std::uint8_t {
    kAttendeeAppear = 0,  // portable, bandwidth
    kHandoff = 1,         // portable, cell (target), attendee flag
    kSquatterTry = 2,     // portable
    kRoamerStep = 3,      // portable
    kRefresh = 4,         // self-re-arming 30 s periodic
    kRoomSample = 5,      // self-re-arming 1 min periodic
  };
  static constexpr std::uint8_t kLastEventKind = std::uint8_t(EventKind::kRoomSample);

  // The day's fixed population shape: each attendee appears, walks three
  // corridor hops and the room, and leaves; six roamers take 30 steps each.
  static constexpr std::size_t kEventsPerAttendee = 6;
  static constexpr std::size_t kRoamers = 6;
  static constexpr std::size_t kRoamerSteps = 30;

  /// A record's serial (global scheduling order, FIFO-tie preserving) is its
  /// index in pending_; `live` until the event fires.
  /// Fields ordered widest first, so a record packs into 32 bytes.
  struct PendingEvent {
    SimTime at = SimTime::zero();
    qos::BitsPerSecond bandwidth = 0.0;
    PortableId portable = PortableId::invalid();
    CellId cell = CellId::invalid();
    EventKind kind = EventKind::kRefresh;
    bool attendee = false;
    bool live = false;
  };

  void run_events() {
    const obs::Profiler::Scope scope(profiler_, ph_day_);
    simulator_.run();
  }

  void start() {
    // The schedule is known before anything is drawn: size the roster, the
    // event table and the queue for it once rather than growing them as
    // the events are scheduled. Only squatter retries come on top.
    manager_.reserve(config_.attendees + config_.squatters + kRoamers);
    const std::size_t initial = config_.attendees * kEventsPerAttendee + config_.squatters +
                                kRoamers * kRoamerSteps + 2;
    simulator_.reserve(initial);
    pending_.reserve(initial + periodic_events());
    schedule_attendees();
    schedule_squatters();
    schedule_roamers();
    demand_.assign(manager_.portable_count(), 0.0);
    if (adapt_) start_adapt_loop();
    PendingEvent refresh_tick;
    refresh_tick.at = simulator_.now() + Duration::seconds(30);
    refresh_tick.kind = EventKind::kRefresh;
    schedule_event(refresh_tick);
    PendingEvent sample_tick;
    sample_tick.at = simulator_.now() + Duration::minutes(1);
    sample_tick.kind = EventKind::kRoomSample;
    schedule_event(sample_tick);
  }

  CampusDayResult finish() {
    result_.policy = to_string(config_.policy);
    if (adapt_) {
      result_.renegotiations =
          std::size_t(adapt_->controller->renegotiations_accepted());
      result_.adapt_granted_prefault_bps = adapt_->prefault_total;
      result_.adapt_granted_min_bps =
          adapt_->min_total == std::numeric_limits<double>::infinity()
              ? total_granted()
              : adapt_->min_total;
      result_.adapt_granted_final_bps = total_granted();
    }
    if (config_.metrics) export_metrics(*config_.metrics);
    return result_;
  }

  void schedule_event(PendingEvent e) {
    e.live = true;
    pending_.push_back(e);
    arm(next_serial_++);
  }

  void arm(std::uint64_t serial) {
    simulator_.at(pending_[serial].at, [this, serial] { fire(serial); });
  }

  void fire(std::uint64_t serial) {
    PendingEvent& slot = pending_[serial];
    assert(slot.live && "fired event is not pending");
    slot.live = false;
    // A copy: dispatch() schedules follow-ups, which may grow pending_.
    const PendingEvent e = slot;
    dispatch(e);
  }

  void dispatch(const PendingEvent& e) {
    switch (e.kind) {
      case EventKind::kAttendeeAppear:
        if (admit_new(far_corridor_, e.portable, e.bandwidth)) {
          demand_[e.portable.value()] = e.bandwidth;
        }
        refresh();
        break;
      case EventKind::kHandoff:
        do_handoff(e.portable, e.cell, e.attendee);
        break;
      case EventKind::kSquatterTry:
        squat(e.portable);
        break;
      case EventKind::kRoamerStep:
        roam_step(e.portable);
        break;
      case EventKind::kRefresh:
        refresh();
        if (adapt_) adapt_tick();
        rearm_periodic(e, Duration::seconds(30));
        break;
      case EventKind::kRoomSample:
        result_.room_peak_allocated =
            std::max(result_.room_peak_allocated, directory_.at(room_).allocated());
        rearm_periodic(e, Duration::minutes(1));
        break;
    }
  }

  /// Refresh and room-sample ticks from now to the horizon.
  [[nodiscard]] std::size_t periodic_events() const {
    const double horizon_s = (horizon_ - simulator_.now()).to_seconds();
    return std::size_t(horizon_s / 30.0) + std::size_t(horizon_s / 60.0);
  }

  void rearm_periodic(const PendingEvent& e, Duration period) {
    const SimTime next = simulator_.now() + period;
    if (next > horizon_) return;
    PendingEvent tick;
    tick.at = next;
    tick.kind = e.kind;
    schedule_event(tick);
  }

  reservation::PolicyEnv env() {
    reservation::PolicyEnv e;
    e.map = &map_;
    e.directory = &directory_;
    e.profiles = &server_;
    e.mobility = &manager_;
    e.demand = &demand_;
    return e;
  }

  void build_policy() {
    switch (config_.policy) {
      case CampusPolicy::kNone:
        policy_ = std::make_unique<reservation::NoReservationPolicy>(env());
        break;
      case CampusPolicy::kStatic:
        policy_ = std::make_unique<reservation::StaticPolicy>(env(), 0.10);
        break;
      case CampusPolicy::kBruteForce:
        policy_ = std::make_unique<reservation::BruteForcePolicy>(env());
        break;
      case CampusPolicy::kAggregate:
        policy_ = std::make_unique<reservation::AggregatePolicy>(env());
        break;
      case CampusPolicy::kDispatcher:
        policy_ = std::make_unique<reservation::PolicyDispatcher>(
            env(), predictor_, server_, reservation::PolicyDispatcher::Params{});
        break;
    }
  }

  void refresh() {
    const obs::Profiler::Scope scope(profiler_, ph_refresh_);
    policy_->refresh(simulator_.now());
  }

  /// Table 2 admission of a new connection, behind the signaling probe.
  bool admit_new(CellId cell, PortableId p, qos::BitsPerSecond bandwidth) {
    const obs::Profiler::Scope scope(profiler_, ph_admission_);
    return probe_signaling() && directory_.at(cell).admit_new(p, bandwidth);
  }

  /// Table 2 admission of a handed-off connection, behind the signaling probe.
  bool admit_handoff(CellId cell, PortableId p, qos::BitsPerSecond bandwidth) {
    const obs::Profiler::Scope scope(profiler_, ph_admission_);
    return probe_signaling() && directory_.at(cell).admit_handoff(p, bandwidth);
  }

  // ---- adaptation loop (ISSUE 9) ----------------------------------------
  //
  // A handful of adaptive packet streams live in the meeting room, admitted
  // into the room's bandwidth account at b_min like any connection. Each
  // stream is source -> shaper -> Virtual Clock link -> lossy hop -> sink.
  // Every refresh tick the controller harvests the hop's per-flow loss
  // window and the sinks' delay-bound violations; sustained breach
  // renegotiates the requested range down, sustained clean ramps it back,
  // and every grant change is pushed into the shaper so the delivered rate
  // IS the granted rate.

  /// Packet payload: large enough to keep the event count tractable over a
  /// full day, small enough for >= min_samples packets per 30 s window even
  /// when a flow is throttled to b_min.
  static constexpr qos::Bits kAdaptPacketBits = 32000.0;  // 4000 bytes

  struct AdaptRuntime {
    qos::DelaySink sink;
    std::optional<qos::LossyHop> hop;
    std::optional<qos::ScheduledLink> link;
    std::optional<qos::DualTokenBucketShaper> shaper;
    std::optional<qos::AdaptationController> controller;
    std::vector<std::unique_ptr<qos::TokenBucketSource>> sources;
    std::vector<qos::QosRequest> requests;  // current requested ranges
    std::vector<PortableId> ids;            // room-account identities
    double prefault_total = 0.0;
    double min_total = std::numeric_limits<double>::infinity();
    bool fault_seen = false;
  };

  [[nodiscard]] PortableId adapt_id(std::size_t i) const {
    // Outside the mobility roster's id range: the streams are room fixtures
    // (no mobility, no policy interaction), only their bandwidth is real.
    return PortableId{std::uint32_t(1000000 + i)};
  }

  void setup_adapt_loop() {
    adapt_ = std::make_unique<AdaptRuntime>();
    adapt_->hop.emplace(fault::LinkFaultModel{}, rng_.fork(),
                        [this](qos::Packet p) {
                          const qos::Seconds delay =
                              (simulator_.now() - p.created).to_seconds();
                          adapt_->sink(p, simulator_.now());
                          adapt_->controller->on_delivered(p.flow, delay);
                        });
    adapt_->link.emplace(simulator_, config_.cell_capacity,
                         [this](qos::Packet p) { adapt_->hop->offer(std::move(p)); });
    adapt_->shaper.emplace(simulator_,
                           [this](qos::Packet p) { adapt_->link->enqueue(std::move(p)); });
    adapt_->controller.emplace(
        qos::AdaptationConfig{}, *adapt_->hop,
        [this](qos::FlowId flow, qos::BandwidthRange range) {
          return adapt_renegotiate(flow, range);
        });
    if (config_.metrics) {
      adapt_->controller->set_window_observer(
          [this](qos::FlowId, const qos::LossyHop::LossWindow& w,
                 qos::AdaptationController::WindowVerdict v) {
            if (v == qos::AdaptationController::WindowVerdict::kInsufficient) return;
            config_.metrics
                ->histogram("adapt.window_loss_rate",
                            obs::HistogramSpec::linear(0.0, 1.0, 20))
                .record(w.loss_rate());
          });
    }

    reservation::CellBandwidth& account = directory_.at(room_);
    for (std::size_t i = 0; i < config_.adapt.flows; ++i) {
      const qos::FlowId flow = qos::FlowId(i);
      qos::QosRequest request;
      request.bandwidth = {config_.adapt.b_min, config_.adapt.b_max};
      request.delay_bound = 0.25;    // generous: the room link is unloaded
      request.jitter_bound = 0.25;
      request.loss_bound = 0.02;     // p_e the fault window must breach
      request.traffic = {2.0 * kAdaptPacketBits, kAdaptPacketBits};
      assert(request.valid());
      adapt_->requests.push_back(request);
      adapt_->ids.push_back(adapt_id(i));
      const bool admitted = account.admit_new(adapt_->ids[i], config_.adapt.b_min);
      assert(admitted && "adaptive streams are admitted into an empty room");
      (void)admitted;
      adapt_->link->add_flow(flow, config_.adapt.b_min);
      adapt_->shaper->add_flow(
          flow, qos::DualTokenBucketShaper::Shape{
                    config_.adapt.b_min, 0.0,
                    /*bg_depth=*/2.0 * kAdaptPacketBits,
                    /*wc_depth=*/2.0 * kAdaptPacketBits});
      adapt_->controller->add_flow(flow, request, config_.adapt.b_min);
      // Greedy at b_max: the stream always wants its ceiling; what it gets
      // on the wire is whatever the shaper currently enforces.
      qos::TokenBucketSource::Config source;
      source.flow = flow;
      source.sigma = 2.0 * kAdaptPacketBits;
      source.rho = config_.adapt.b_max;
      source.packet_size = kAdaptPacketBits;
      source.greedy = true;
      adapt_->sources.push_back(std::make_unique<qos::TokenBucketSource>(
          simulator_, source, rng_.fork(),
          [this](qos::Packet p) { adapt_->shaper->offer(std::move(p)); }));
    }
    redivide_adaptive();
  }

  void start_adapt_loop() {
    for (auto& source : adapt_->sources) source->start(horizon_);
    const auto& cfg = config_.adapt;
    if (cfg.fault_loss > 0.0 && cfg.fault_start < cfg.fault_stop &&
        cfg.fault_start < horizon_) {
      // Raw lambdas, not PendingEvents: fine, the loop refuses checkpoints.
      simulator_.at(cfg.fault_start, [this] {
        adapt_->prefault_total = total_granted();
        adapt_->fault_seen = true;
        adapt_->hop->set_model(fault::LinkFaultModel::gilbert_elliott(
            0.2, config_.adapt.fault_loss, 20.0));
      });
      simulator_.at(cfg.fault_stop, [this] {
        adapt_->hop->set_model(fault::LinkFaultModel{});
      });
    }
  }

  /// The controller asks for a new range: record it and re-divide. The
  /// grant itself comes out of the max-min division, not the request.
  bool adapt_renegotiate(qos::FlowId flow, qos::BandwidthRange range) {
    adapt_->requests[flow].bandwidth = range;
    redivide_adaptive();
    return true;
  }

  /// Max-min re-division of the room's excess among the adaptive streams'
  /// current headrooms (requested - b_min), pushed into the account, the
  /// link's reserved rates, the shaper and the controller — one shared
  /// split for control plane and data plane.
  void redivide_adaptive() {
    reservation::CellBandwidth& account = directory_.at(room_);
    for (std::size_t i = 0; i < adapt_->ids.size(); ++i) {
      account.set_allocation(adapt_->ids[i], adapt_->requests[i].bandwidth.b_min);
    }
    const double excess = std::max(
        account.capacity() - account.allocated() - account.reserved_total(), 0.0);
    std::vector<double> headrooms;
    headrooms.reserve(adapt_->ids.size());
    for (const qos::QosRequest& r : adapt_->requests) {
      headrooms.push_back(r.bandwidth.headroom());
    }
    const std::vector<double> shares = maxmin::divide_excess(excess, headrooms);
    for (std::size_t i = 0; i < adapt_->ids.size(); ++i) {
      const qos::FlowId flow = qos::FlowId(i);
      const qos::BitsPerSecond b_min = adapt_->requests[i].bandwidth.b_min;
      account.set_allocation(adapt_->ids[i], b_min + shares[i]);
      adapt_->link->set_rate(flow, b_min + shares[i]);
      adapt_->shaper->set_shape(flow, b_min, shares[i]);
      adapt_->controller->on_granted(flow, b_min + shares[i]);
    }
  }

  /// The adaptation step; the controller's renegotiations (adapt_renegotiate)
  /// run inside its tick.
  void adapt_tick() {
    const obs::Profiler::Scope scope(profiler_, ph_adapt_);
    adapt_->controller->tick();
    // Re-divide unconditionally: reservations and meeting traffic move the
    // room's excess even between renegotiations.
    redivide_adaptive();
    if (adapt_->fault_seen) {
      adapt_->min_total = std::min(adapt_->min_total, total_granted());
    }
  }

  [[nodiscard]] double total_granted() const {
    double total = 0.0;
    for (std::size_t i = 0; i < adapt_->ids.size(); ++i) {
      total += adapt_->controller->granted(qos::FlowId(i));
    }
    return total;
  }

  [[nodiscard]] double total_enforced() const {
    double total = 0.0;
    for (std::size_t i = 0; i < adapt_->ids.size(); ++i) {
      total += adapt_->shaper->enforced_rate(qos::FlowId(i));
    }
    return total;
  }

  void export_metrics(obs::Registry& m) const {
    simulator_.collect_metrics(m);
    m.counter("campus.attendee_drops").add(result_.attendee_drops);
    m.counter("campus.squatter_blocks").add(result_.squatter_blocks);
    m.counter("campus.squatter_admits").add(result_.squatter_admits);
    m.counter("campus.other_drops").add(result_.other_drops);
    m.gauge("campus.room_peak_allocated_bps").set(result_.room_peak_allocated);
    if (adapt_) {
      const qos::AdaptationController& c = *adapt_->controller;
      m.counter("adapt.renegotiations_triggered").add(c.renegotiations_triggered());
      m.counter("adapt.renegotiations_accepted").add(c.renegotiations_accepted());
      m.counter("adapt.windows_breached").add(c.windows_breached());
      m.counter("adapt.windows_clean").add(c.windows_clean());
      m.counter("adapt.windows_insufficient").add(c.windows_insufficient());
      const qos::DualTokenBucketShaper::Counters& t = adapt_->shaper->totals();
      m.counter("adapt.shaper_offered_packets").add(t.offered_packets);
      m.counter("adapt.shaper_bg_packets").add(t.bg_packets);
      m.counter("adapt.shaper_wc_packets").add(t.wc_packets);
      m.counter("adapt.shaper_nonconforming_packets").add(t.nonconforming_packets);
      m.counter("adapt.shaper_offered_bits").add(std::uint64_t(t.offered_bits));
      m.counter("adapt.shaper_bg_bits").add(std::uint64_t(t.bg_bits));
      m.counter("adapt.shaper_wc_bits").add(std::uint64_t(t.wc_bits));
      m.counter("adapt.shaper_nonconforming_bits")
          .add(std::uint64_t(t.nonconforming_bits));
      m.counter("adapt.hop_offered_packets").add(adapt_->hop->offered());
      m.counter("adapt.hop_delivered_packets").add(adapt_->hop->delivered());
      m.counter("adapt.hop_dropped_packets").add(adapt_->hop->dropped());
      m.gauge("adapt.granted_bps").set(total_granted());
      m.gauge("adapt.enforced_bps").set(total_enforced());
    }
  }

  void do_handoff(PortableId p, CellId to, bool is_attendee) {
    const CellId from = manager_.portable(p).current_cell;
    if (from == to || !map_.cell(from).is_neighbor(to)) return;
    const qos::BitsPerSecond bandwidth = demand_[p.value()];
    const bool connected = bandwidth > 0.0;
    if (connected) directory_.at(from).release(p);
    {
      const obs::Profiler::Scope scope(profiler_, ph_handoff_);
      manager_.move(p, to);
    }
    ++result_.handoffs;
    if (connected && !admit_handoff(to, p, bandwidth)) {
      if (is_attendee) {
        ++result_.attendee_drops;
      } else {
        ++result_.other_drops;
      }
      demand_[p.value()] = 0.0;
    }
    refresh();
  }

  void schedule_attendee_handoff(SimTime at, PortableId p, CellId to) {
    PendingEvent e;
    e.at = at;
    e.kind = EventKind::kHandoff;
    e.portable = p;
    e.cell = to;
    e.attendee = true;
    schedule_event(e);
  }

  void schedule_attendees() {
    const workload::ConnectionMix mix = workload::paper_fig5_mix();
    // The corridor chain from the far end to the room's corridor.
    const std::vector<CellId> chain{*map_.find("corridor-3"), *map_.find("corridor-2"),
                                    *map_.find("corridor-1"), *map_.find("corridor-0")};
    for (std::size_t i = 0; i < config_.attendees; ++i) {
      const PortableId p = manager_.add_portable(far_corridor_);
      const qos::BitsPerSecond b = mix.sample(rng_);
      // Appear in the far corridor with a connection well before the
      // meeting, walk the corridor chain to the room around the start,
      // leave after.
      const double appear = rng_.uniform(5.0, 30.0);
      PendingEvent appear_event;
      appear_event.at = SimTime::minutes(appear);
      appear_event.kind = EventKind::kAttendeeAppear;
      appear_event.portable = p;
      appear_event.bandwidth = b;
      schedule_event(appear_event);
      const double arrive =
          config_.meeting_start.to_minutes() + rng_.truncated_normal(-2.0, 3.0, -8.0, 2.0);
      for (std::size_t hop = 1; hop < chain.size(); ++hop) {
        const double at = arrive - double(chain.size() - hop) * 0.7;
        schedule_attendee_handoff(SimTime::minutes(at), p, chain[hop]);
      }
      schedule_attendee_handoff(SimTime::minutes(arrive), p, room_);
      const double leave = config_.meeting_stop.to_minutes() + rng_.uniform(0.0, 5.0);
      schedule_attendee_handoff(SimTime::minutes(leave), p, corridor_);
    }
  }

  void schedule_squatters() {
    // Attempts spread from well before the meeting into the reservation
    // window (T_s - 10 min onward): reservation-aware policies block the
    // late ones; with no reservations they all land.
    for (std::size_t i = 0; i < config_.squatters; ++i) {
      const PortableId p = manager_.add_portable(room_);
      retry_squat(p, rng_.uniform(40.0, config_.meeting_start.to_minutes() - 1.0));
    }
  }

  void retry_squat(PortableId p, double at_minutes) {
    PendingEvent e;
    e.at = SimTime::minutes(at_minutes);
    // A squatter still blocked when the day ends gives up: past the horizon
    // nothing frees the room, so the retries would never stop.
    if (e.at > horizon_) return;
    e.kind = EventKind::kSquatterTry;
    e.portable = p;
    schedule_event(e);
  }

  /// A squatter repeatedly tries to open a bulk connection; once admitted it
  /// holds it for the rest of the day (the adversarial case for the meeting).
  void squat(PortableId p) {
    if (demand_[p.value()] > 0.0) return;
    if (admit_new(room_, p, config_.squatter_bandwidth)) {
      demand_[p.value()] = config_.squatter_bandwidth;
      ++result_.squatter_admits;
    } else {
      ++result_.squatter_blocks;
      retry_squat(p, simulator_.now().to_minutes() + 5.0);
    }
    refresh();
  }

  void schedule_roamers() {
    // Light corridor background so profiles have something to aggregate.
    for (std::size_t i = 0; i < kRoamers; ++i) {
      const PortableId p = manager_.add_portable(corridor_);
      double t = rng_.uniform(1.0, 10.0);
      for (std::size_t hop = 0; hop < kRoamerSteps; ++hop) {
        // Ping-pong along the corridor chain.
        t += rng_.exponential_mean(6.0);
        PendingEvent e;
        e.at = SimTime::minutes(t);
        e.kind = EventKind::kRoamerStep;
        e.portable = p;
        schedule_event(e);
      }
    }
  }

  void roam_step(PortableId p) {
    // Walk one step along the corridor backbone.
    const auto& me = manager_.portable(p);
    for (CellId n : map_.cell(me.current_cell).neighbors) {
      if (map_.cell(n).cell_class == mobility::CellClass::kCorridor) {
        do_handoff(p, n, false);
        break;
      }
    }
  }

  // ---- checkpoint plumbing ----------------------------------------------

  void save_harness(sim::CheckpointWriter& w) const {
    // Config fingerprint: resume must be given the same day.
    w.u8(std::uint8_t(config_.policy));
    w.f64(config_.cell_capacity);
    w.u64(config_.attendees);
    w.u64(config_.squatters);
    w.f64(config_.squatter_bandwidth);
    w.u64(config_.seed);
    w.time(config_.meeting_start);
    w.time(config_.meeting_stop);
    w.boolean(config_.faults.enabled());

    w.rng(rng_.engine());
    w.boolean(probe_.has_value());
    if (probe_) probe_->save_state(w);

    // The connected portables, ascending id: (u32 portable, f64 b_min).
    w.u64(std::uint64_t(
        std::count_if(demand_.begin(), demand_.end(), [](double b) { return b > 0.0; })));
    for (std::size_t p = 0; p < demand_.size(); ++p) {
      if (demand_[p] <= 0.0) continue;
      w.u32(std::uint32_t(p));
      w.f64(demand_[p]);
    }

    w.u64(result_.attendee_drops);
    w.u64(result_.squatter_blocks);
    w.u64(result_.squatter_admits);
    w.u64(result_.other_drops);
    w.u64(result_.handoffs);
    w.f64(result_.room_peak_allocated);

    manager_.save_state(w);
    server_.save_state(w);
    directory_.save_state(w);
    policy_->save_state(w);

    w.u64(next_serial_);
    w.u64(std::uint64_t(std::count_if(pending_.begin(), pending_.end(),
                                      [](const PendingEvent& e) { return e.live; })));
    for (std::uint64_t serial = 0; serial < next_serial_; ++serial) {
      const PendingEvent& e = pending_[serial];
      if (!e.live) continue;
      w.u64(serial);
      w.time(e.at);
      w.u8(std::uint8_t(e.kind));
      w.u32(e.portable.value());
      w.u32(e.cell.value());
      w.f64(e.bandwidth);
      w.boolean(e.attendee);
    }
  }

  void restore_harness(sim::CheckpointReader& r) {
    const bool config_matches =
        r.u8() == std::uint8_t(config_.policy) && r.f64() == config_.cell_capacity &&
        r.u64() == config_.attendees && r.u64() == config_.squatters &&
        r.f64() == config_.squatter_bandwidth && r.u64() == config_.seed &&
        r.time() == config_.meeting_start && r.time() == config_.meeting_stop &&
        r.boolean() == config_.faults.enabled();
    if (!config_matches) {
      throw sim::CheckpointError("campus: checkpoint was taken with a different config");
    }

    r.rng(rng_.engine());
    if (r.boolean() != probe_.has_value()) {
      throw sim::CheckpointError("campus: checkpoint probe state mismatch");
    }
    if (probe_) probe_->restore_state(r);

    // Validated against the roster once it is restored below.
    std::vector<std::pair<std::uint32_t, qos::BitsPerSecond>> demand_entries;
    for (std::uint64_t n = r.u64(); n-- > 0;) {
      const std::uint32_t p = r.u32();
      const qos::BitsPerSecond b = r.f64();
      if (!demand_entries.empty() && p <= demand_entries.back().first) {
        throw sim::CheckpointError("campus: demand entries not strictly ascending");
      }
      if (!(b > 0.0)) {
        throw sim::CheckpointError("campus: demand entry is not a positive bandwidth");
      }
      demand_entries.emplace_back(p, b);
    }

    result_.attendee_drops = std::size_t(r.u64());
    result_.squatter_blocks = std::size_t(r.u64());
    result_.squatter_admits = std::size_t(r.u64());
    result_.other_drops = std::size_t(r.u64());
    result_.handoffs = std::size_t(r.u64());
    result_.room_peak_allocated = r.f64();

    manager_.restore_state(r);
    demand_.assign(manager_.portable_count(), 0.0);
    for (const auto& [p, b] : demand_entries) {
      if (p >= demand_.size()) {
        throw sim::CheckpointError("campus: demand entry names an unknown portable");
      }
      demand_[p] = b;
    }
    server_.restore_state(r);
    directory_.restore_state(r);
    policy_->restore_state(r);

    next_serial_ = r.u64();
    if (next_serial_ > kMaxSerials) {
      throw sim::CheckpointError("campus: checkpoint schedules implausibly many events");
    }
    // Re-arm in saved (= original scheduling) order: fresh queue sequence
    // numbers then rise in the same relative order as the originals, so
    // equal-timestamp ties keep breaking identically.
    pending_.assign(std::size_t(next_serial_), PendingEvent{});
    std::uint64_t min_serial = 0;  // saved serials strictly ascend
    for (std::uint64_t n = r.u64(); n-- > 0;) {
      const std::uint64_t serial = r.u64();
      if (serial >= next_serial_) {
        throw sim::CheckpointError("campus: pending event serial beyond next_serial");
      }
      if (serial < min_serial) {
        throw sim::CheckpointError("campus: pending event serials not strictly ascending");
      }
      min_serial = serial + 1;
      PendingEvent& e = pending_[serial];
      e.live = true;
      e.at = r.time();
      const std::uint8_t kind = r.u8();
      if (kind > kLastEventKind) {
        throw sim::CheckpointError("campus: unknown pending event kind");
      }
      e.kind = EventKind(kind);
      e.portable = PortableId{r.u32()};
      e.cell = CellId{r.u32()};
      e.bandwidth = r.f64();
      e.attendee = r.boolean();
      check_ids(e);
      arm(serial);
    }
  }

  /// A restored record may name only the ids its kind uses, each in range;
  /// every other id field must hold the invalid sentinel save_harness wrote.
  void check_ids(const PendingEvent& e) const {
    const bool uses_portable =
        e.kind != EventKind::kRefresh && e.kind != EventKind::kRoomSample;
    const bool uses_cell = e.kind == EventKind::kHandoff;
    const bool portable_ok = uses_portable
                                 ? e.portable.value() < manager_.portable_count()
                                 : e.portable == PortableId::invalid();
    const bool cell_ok = uses_cell ? e.cell.value() < map_.size()
                                   : e.cell == CellId::invalid();
    if (!portable_ok || !cell_ok) {
      throw sim::CheckpointError("campus: pending event names an unknown portable or cell");
    }
  }

  /// True when the admission probe got through (or faults are off). A false
  /// return is a timed-out probe: the caller must treat it as a rejection.
  [[nodiscard]] bool probe_signaling() { return !probe_ || probe_->attempt(); }

  CampusDayConfig config_;
  mobility::CellMap map_;
  sim::Simulator simulator_;
  std::optional<fault::UnreliableCall> probe_;
  mobility::MobilityManager manager_;
  profiles::ProfileServer server_;
  prediction::ThreeLevelPredictor predictor_;
  reservation::ReservationDirectory directory_;
  std::vector<qos::BitsPerSecond> demand_;  // by PortableId::value(); 0 = no connection
  std::unique_ptr<reservation::AdvanceReservationPolicy> policy_;
  sim::Rng rng_;
  CellId room_, corridor_, far_corridor_;
  std::unique_ptr<AdaptRuntime> adapt_;  // null unless config_.adapt.enabled
  // Phase attribution; null unless config_.profiler is enabled.
  obs::Profiler* profiler_ = nullptr;
  obs::PhaseId ph_day_ = obs::kInvalidPhase;
  obs::PhaseId ph_refresh_ = obs::kInvalidPhase;
  obs::PhaseId ph_handoff_ = obs::kInvalidPhase;
  obs::PhaseId ph_admission_ = obs::kInvalidPhase;
  obs::PhaseId ph_adapt_ = obs::kInvalidPhase;
  CampusDayResult result_;
  SimTime horizon_;
  // Every event ever scheduled, indexed by serial: fire() is O(1), and a
  // checkpoint lists the live ones in serial order.
  std::vector<PendingEvent> pending_;
  std::uint64_t next_serial_ = 0;  // == pending_.size()
  /// Restore refuses a larger table: a day schedules a few thousand events.
  static constexpr std::uint64_t kMaxSerials = std::uint64_t(1) << 24;
};

}  // namespace

CampusDayResult run_campus_day(const CampusDayConfig& config) {
  return CampusDay(config).run();
}

sim::Checkpoint checkpoint_campus_day(const CampusDayConfig& config, sim::SimTime at) {
  return CampusDay(config).checkpoint(at);
}

CampusDayResult resume_campus_day(const CampusDayConfig& config,
                                  const sim::Checkpoint& checkpoint) {
  return CampusDay(config).resume(checkpoint);
}

CampusSweepResult run_campus_day_sweep(const CampusSweepConfig& config) {
  struct Replication {
    CampusDayResult day;
    obs::Snapshot metrics;
  };
  const sim::ReplicationRunner runner(config.threads);
  const bool profiled = config.profiler != nullptr && config.profiler->enabled();
  std::vector<std::uint64_t> replication_ns;
  const std::vector<Replication> replications =
      runner.run(
          config.replications, config.base_seed,
          [&](std::uint64_t seed, std::size_t) {
            // Each replication collects into its own registry; wall
            // metrics and tracing stay off so every snapshot is a
            // pure function of the seed.
            obs::Registry registry;
            CampusDayConfig day = config.base;
            day.seed = seed;
            day.metrics = &registry;
            day.tracer = nullptr;
            day.profiler = nullptr;
            day.wall_metrics = false;
            Replication r;
            r.day = run_campus_day(day);
            r.metrics = registry.snapshot();
            return r;
          },
          profiled ? &replication_ns : nullptr);
  if (profiled) {
    // Fold timings in replication order on the caller's thread — the
    // Profiler is single-threaded by design.
    const obs::PhaseId phase = config.profiler->intern("campus.replication");
    for (const std::uint64_t ns : replication_ns) {
      config.profiler->record(phase, ns);
    }
  }

  // Fold in replication order: byte-identical at any thread count.
  CampusSweepResult sweep;
  sweep.policy = to_string(config.base.policy);
  sweep.replications = replications.size();
  for (const Replication& rep : replications) {
    const CampusDayResult& r = rep.day;
    sweep.attendee_drops += r.attendee_drops;
    sweep.squatter_blocks += r.squatter_blocks;
    sweep.squatter_admits += r.squatter_admits;
    sweep.other_drops += r.other_drops;
    sweep.handoffs += r.handoffs;
    sweep.renegotiations += r.renegotiations;
    sweep.mean_room_peak_allocated += r.room_peak_allocated;
    sweep.max_room_peak_allocated =
        std::max(sweep.max_room_peak_allocated, r.room_peak_allocated);
    sweep.metrics.merge(rep.metrics);
  }
  if (!replications.empty()) {
    sweep.mean_room_peak_allocated /= double(replications.size());
  }
  return sweep;
}

}  // namespace imrm::experiments
