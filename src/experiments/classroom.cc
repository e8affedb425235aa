#include "experiments/classroom.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

#include "mobility/manager.h"
#include "obs/metrics.h"
#include "reservation/policy.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/connection_mix.h"

namespace imrm::experiments {

using mobility::CellClass;
using mobility::CellId;
using net::PortableId;
using qos::kbps;
using sim::Duration;
using sim::SimTime;

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNone: return "none";
    case PolicyKind::kBruteForce: return "brute-force";
    case PolicyKind::kAggregate: return "aggregate";
    case PolicyKind::kMeetingRoom: return "meeting-room";
    case PolicyKind::kStatic: return "static";
  }
  return "unknown";
}

ClassroomResult::ClassroomResult()
    : into_room(SimTime::zero(), Duration::minutes(1)),
      outside_room(SimTime::zero(), Duration::minutes(1)),
      out_of_room(SimTime::zero(), Duration::minutes(1)),
      outside_at_end(SimTime::zero(), Duration::minutes(1)) {}

namespace {

struct Cells {
  CellId o1, o2, o3, room;
};

mobility::CellMap classroom_map(Cells& cells) {
  mobility::CellMap map;
  cells.o1 = map.add_cell(CellClass::kCorridor, "O1");
  cells.o2 = map.add_cell(CellClass::kCorridor, "O2");
  cells.o3 = map.add_cell(CellClass::kCorridor, "O3");
  cells.room = map.add_cell(CellClass::kMeetingRoom, "R");
  map.connect(cells.o1, cells.o2);
  map.connect(cells.o2, cells.o3);
  map.connect(cells.o2, cells.room);
  return map;
}

/// Deterministic bandwidth assignment reproducing the paper's offered loads:
/// floor(N/4) connections at 64 kbps, the rest at 16 kbps.
std::vector<qos::BitsPerSecond> attendee_bandwidths(std::size_t n, sim::Rng& rng) {
  std::vector<qos::BitsPerSecond> out(n, kbps(16));
  for (std::size_t i = 0; i < n / 4; ++i) out[i] = kbps(64);
  rng.shuffle(out);
  return out;
}

/// One simulation pass: returns drop count; fills series when `result` set.
struct Pass {
  Pass(const ClassroomConfig& config_in, const mobility::CellMap& map_in, Cells cells_in,
       profiles::ProfileServer& server_in, ClassroomResult* result_in)
      : config(&config_in), map(&map_in), cells(cells_in), server(&server_in),
        result(result_in) {}

  const ClassroomConfig* config;
  const mobility::CellMap* map;
  Cells cells;
  profiles::ProfileServer* server;
  ClassroomResult* result;  // nullptr during the warmup pass

  sim::Simulator simulator;
  std::unique_ptr<mobility::MobilityManager> manager;
  reservation::ReservationDirectory directory;
  std::vector<qos::BitsPerSecond> demand;  // by PortableId::value(); 0 = no connection
  std::unique_ptr<reservation::AdvanceReservationPolicy> policy;
  std::size_t drops = 0;
  std::size_t blocked = 0;

  void run(const workload::ClassWorkload& work,
           const std::vector<qos::BitsPerSecond>& attendee_bw, sim::Rng mix_rng) {
    manager = std::make_unique<mobility::MobilityManager>(*map, simulator,
                                                          config->static_threshold);
    for (const auto& cell : map->cells()) {
      directory.add_cell(cell.id, config->cell_capacity);
    }
    build_policy();

    // Observability applies to the measured pass only (the warmup rehearsal
    // runs with a nulled-out config either way).
    if (result != nullptr && config->tracer) simulator.set_tracer(config->tracer);
    if (result != nullptr && config->metrics) {
      directory.bind_metrics(*config->metrics);
      manager->bind_metrics(*config->metrics);
    }

    manager->on_handoff([this](const mobility::HandoffEvent& event) {
      server->record_handoff(event);
      if (policy) policy->on_handoff(event);
      if (result != nullptr) {
        if (event.to == cells.room) result->into_room.add(event.time);
        if (event.from == cells.room) result->out_of_room.add(event.time);
        if (event.to == cells.o2) {
          result->outside_room.add(event.time);
          result->outside_at_end.add(event.time);
        }
      }
    });

    const workload::ConnectionMix mix = workload::paper_fig5_mix();

    // Attendees: O1 -> O2 -> R -> O2 -> gone.
    for (std::size_t i = 0; i < work.attendees.size(); ++i) {
      const auto& plan = work.attendees[i];
      const qos::BitsPerSecond b = attendee_bw[i];
      schedule_user(plan.arrive_corridor, b,
                    {{mid(plan.arrive_corridor, plan.enter_room), cells.o2},
                     {plan.enter_room, cells.room},
                     {plan.leave_room, cells.o2},
                     {plan.depart, cells.o1}},
                    plan.depart + Duration::seconds(30));
    }
    // Walkers: O1 -> O2 -> O3 -> gone.
    for (const auto& plan : work.passers) {
      const qos::BitsPerSecond b = mix.sample(mix_rng);
      const Duration third = Duration::seconds((plan.leave - plan.appear).to_seconds() / 3.0);
      schedule_user(plan.appear, b,
                    {{plan.appear + third, cells.o2},
                     {plan.appear + third + third, cells.o3}},
                    plan.leave + Duration::seconds(30));
    }

    // Periodic policy refresh on top of the per-event refreshes.
    const SimTime horizon = config->meeting.stop + Duration::minutes(30);
    simulator.every(config->refresh_period, horizon, [this] { refresh(); });
    simulator.run();
  }

 private:
  static SimTime mid(SimTime a, SimTime b) {
    return SimTime::seconds((a.to_seconds() + b.to_seconds()) / 2.0);
  }

  void build_policy() {
    reservation::PolicyEnv env;
    env.map = map;
    env.directory = &directory;
    env.profiles = server;
    env.mobility = manager.get();
    env.demand = &demand;

    switch (config->policy) {
      case PolicyKind::kNone:
        policy = std::make_unique<reservation::NoReservationPolicy>(std::move(env));
        break;
      case PolicyKind::kBruteForce:
        policy = std::make_unique<reservation::BruteForcePolicy>(std::move(env));
        break;
      case PolicyKind::kAggregate:
        policy = std::make_unique<reservation::AggregatePolicy>(std::move(env));
        break;
      case PolicyKind::kStatic:
        policy = std::make_unique<reservation::StaticPolicy>(std::move(env), 0.10);
        break;
      case PolicyKind::kMeetingRoom: {
        profiles::BookingCalendar calendar;
        calendar.book(config->meeting);
        reservation::MeetingRoomPolicy::Params params;
        params.per_user_bandwidth = workload::paper_fig5_mix().mean();
        policy = std::make_unique<reservation::MeetingRoomPolicy>(
            std::move(env), cells.room, std::move(calendar), params);
        break;
      }
    }
  }

  void refresh() { policy->refresh(simulator.now()); }

  struct Hop {
    SimTime at;
    CellId to;
  };

  void schedule_user(SimTime appear, qos::BitsPerSecond b, std::vector<Hop> hops,
                     SimTime vanish) {
    // Create the portable eagerly (parked in O1); movements reference it by
    // id, and ids are allocated in scheduling order for determinism.
    const PortableId p = manager_add_deferred();
    simulator.at(appear, [this, p, b] {
      spawn_at(p, b);
      refresh();
    });
    for (const Hop& hop : hops) {
      simulator.at(hop.at, [this, p, to = hop.to] {
        do_handoff(p, to);
        refresh();
      });
    }
    simulator.at(vanish, [this, p] {
      depart(p);
      refresh();
    });
  }

  // Portables must exist before their first event fires; park them in O1.
  PortableId manager_add_deferred() {
    demand.push_back(0.0);
    return manager->add_portable(cells.o1);
  }

  void spawn_at(PortableId p, qos::BitsPerSecond b) {
    // The portable was parked in O1 at creation; opening the connection is
    // the "appears" moment.
    if (directory.at(cells.o1).admit_new(p, b)) {
      demand[p.value()] = b;
    } else {
      ++blocked;
    }
  }

  void do_handoff(PortableId p, CellId to) {
    const CellId from = manager->portable(p).current_cell;
    if (from == to) return;  // dropped users may have stale itineraries
    const qos::BitsPerSecond b = demand[p.value()];
    if (b > 0.0) directory.at(from).release(p);
    manager->move(p, to);
    if (b > 0.0 && !directory.at(to).admit_handoff(p, b)) {
      ++drops;
      demand[p.value()] = 0.0;
    }
  }

  void depart(PortableId p) {
    if (demand[p.value()] > 0.0) {
      directory.at(manager->portable(p).current_cell).release(p);
      demand[p.value()] = 0.0;
    }
  }
};

}  // namespace

ClassroomResult run_classroom(const ClassroomConfig& config) {
  Cells cells;
  const mobility::CellMap map = classroom_map(cells);
  profiles::ProfileServer server(net::ZoneId{0},
                                 profiles::ProfileServer::Config{16, config.cell_profile_window});

  sim::Rng rng(config.seed);

  workload::ClassScheduleConfig schedule;
  schedule.meeting = config.meeting;
  schedule.passby_per_minute = config.passby_per_minute;
  schedule.passby_dwell = config.passby_dwell;

  ClassroomResult result;
  result.policy = to_string(config.policy);
  result.attendees = config.class_size;

  // Warmup pass: rehearse the same kind of day with no reservations so the
  // profile server learns the corridor/room handoff statistics.
  if (config.warmup_pass) {
    sim::Rng warm_rng = rng.fork();
    auto warm_work = schedule;
    warm_work.meeting.attendees = config.class_size;
    const workload::ClassWorkload work = generate_class_workload(warm_work, warm_rng);
    auto bw = attendee_bandwidths(config.class_size, warm_rng);
    ClassroomConfig warm_config = config;
    warm_config.policy = PolicyKind::kNone;
    warm_config.metrics = nullptr;
    warm_config.tracer = nullptr;
    Pass pass(warm_config, map, cells, server, nullptr);
    pass.run(work, bw, warm_rng.fork());
  }

  // Measured pass.
  sim::Rng measured_rng = rng.fork();
  auto measured_schedule = schedule;
  measured_schedule.meeting.attendees = config.class_size;
  const workload::ClassWorkload work = generate_class_workload(measured_schedule, measured_rng);
  const auto bw = attendee_bandwidths(config.class_size, measured_rng);

  double offered = 0.0;
  for (qos::BitsPerSecond b : bw) offered += b;
  result.offered_load = offered / config.cell_capacity;
  result.walkers = work.passers.size();

  Pass pass(config, map, cells, server, &result);
  pass.run(work, bw, measured_rng.fork());
  result.connection_drops = pass.drops;
  if (config.metrics) {
    obs::Registry& m = *config.metrics;
    pass.simulator.collect_metrics(m);
    m.counter("classroom.connection_drops").add(pass.drops);
    m.counter("classroom.new_blocked").add(pass.blocked);
    m.gauge("classroom.offered_load").set(result.offered_load);
  }
  return result;
}

}  // namespace imrm::experiments
