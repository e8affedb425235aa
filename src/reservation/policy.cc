#include "reservation/policy.h"

#include <cassert>
#include <stdexcept>

namespace imrm::reservation {

void PolicyEnv::require_workload(const std::string& policy) const {
  if (map == nullptr || directory == nullptr || mobility == nullptr) {
    throw std::invalid_argument(policy +
                                ": PolicyEnv needs map, directory and mobility set");
  }
}

BruteForcePolicy::BruteForcePolicy(PolicyEnv env)
    : AdvanceReservationPolicy(std::move(env)) {
  env_.require_workload(name());
}

AggregatePolicy::AggregatePolicy(PolicyEnv env) : AdvanceReservationPolicy(std::move(env)) {
  env_.require_workload(name());
}

void BruteForcePolicy::refresh(sim::SimTime now) {
  env_.directory->clear_reservations();
  // Every mobile portable with an active connection claims its bandwidth in
  // every neighbor of its current cell.
  for (const mobility::Cell& cell : env_.map->cells()) {
    for (PortableId p : env_.mobility->portables_in(cell.id)) {
      if (env_.mobility->classify(p) != qos::MobilityClass::kMobile) continue;
      const qos::BitsPerSecond b = env_.demand(p);
      if (b <= 0.0) continue;
      for (CellId neighbor : cell.neighbors) {
        if (env_.directory->has(neighbor)) {
          env_.directory->at(neighbor).reserve_for(p, b);
        }
      }
    }
  }
  (void)now;
}

void AggregatePolicy::refresh(sim::SimTime now) {
  env_.directory->clear_reservations();
  // Each mobile portable's bandwidth is reserved in every neighbor, scaled
  // by the cell profile's aggregate probability of handing off there — the
  // per-connection reservation model of Section 3.3 informed by aggregate
  // history instead of the brute-force "everything everywhere".
  for (const mobility::Cell& cell : env_.map->cells()) {
    const profiles::CellProfile* profile = env_.profiles->cell_profile(cell.id);
    if (profile == nullptr) continue;
    const auto dist = profile->aggregate_distribution();
    if (dist.empty()) continue;
    for (PortableId p : env_.mobility->portables_in(cell.id)) {
      if (env_.mobility->classify(p) != qos::MobilityClass::kMobile) continue;
      const qos::BitsPerSecond b = env_.demand(p);
      if (b <= 0.0) continue;
      for (const auto& share : dist) {
        if (share.probability <= 0.0) continue;
        if (!env_.directory->has(share.neighbor)) continue;
        env_.directory->at(share.neighbor).reserve_for(p, b * share.probability);
      }
    }
  }
  (void)now;
}

void StaticPolicy::refresh(sim::SimTime) {
  env_.directory->clear_reservations();
  env_.directory->for_each_cell([this](CellId, CellBandwidth& cell) {
    cell.set_anonymous_reservation(guard_fraction_ * cell.capacity());
  });
}

MeetingRoomPolicy::MeetingRoomPolicy(PolicyEnv env, CellId room,
                                     profiles::BookingCalendar calendar, Params params)
    : AdvanceReservationPolicy(std::move(env)), room_(room),
      calendar_(std::move(calendar)), params_(params) {
  assert(params_.per_user_bandwidth > 0.0);
}

void MeetingRoomPolicy::on_handoff(const mobility::HandoffEvent& event) {
  if (event.to == room_) ++arrived_;
  if (event.from == room_) ++left_;
}

void MeetingRoomPolicy::refresh(sim::SimTime now) {
  if (standalone_) env_.directory->clear_reservations();

  // Find the meeting whose reservation windows cover `now`. Windows extend
  // Delta_s before the start and end_release after the stop.
  const profiles::Meeting* current = nullptr;
  std::size_t index = 0;
  for (std::size_t i = 0; i < calendar_.meetings().size(); ++i) {
    const profiles::Meeting& m = calendar_.meetings()[i];
    if (now >= m.start - params_.before_start && now <= m.stop + params_.end_release) {
      current = &m;
      index = i;
      break;
    }
  }
  if (current == nullptr) return;

  // Reset the arrival/departure counters when a new meeting's window opens.
  if (index != meeting_epoch_) {
    meeting_epoch_ = index;
    arrived_ = 0;
    left_ = 0;
  }

  const auto expected = double(current->attendees);

  // (a) Inbound window: from T_s - Delta_s, reserve for the attendees still
  // expected: N_m - N_arrived. The reservation is released by a timer 5
  // minutes after T_s.
  if (now >= current->start - params_.before_start &&
      now < current->start + params_.start_release) {
    const double missing = std::max(expected - double(arrived_), 0.0);
    env_.directory->at(room_).add_anonymous_reservation(missing *
                                                        params_.per_user_bandwidth);
  }

  // (b) Outbound window: from T_a - Delta_a, ask the neighbors to reserve
  // for the leavers: N_m - N_left, split by the room's profile distribution
  // (uniform when no profile data exists). Released 15 minutes after T_a.
  if (now >= current->stop - params_.before_end &&
      now < current->stop + params_.end_release) {
    const double leaving = std::max(expected - double(left_), 0.0);
    const qos::BitsPerSecond total = leaving * params_.per_user_bandwidth;
    const auto& neighbors = env_.map->cell(room_).neighbors;
    if (!neighbors.empty() && total > 0.0) {
      std::vector<double> split(neighbors.size(), 1.0 / double(neighbors.size()));
      if (const profiles::CellProfile* profile = env_.profiles->cell_profile(room_)) {
        const auto dist = profile->aggregate_distribution();
        if (!dist.empty()) {
          for (std::size_t i = 0; i < neighbors.size(); ++i) {
            split[i] = 0.0;
            for (const auto& share : dist) {
              if (share.neighbor == neighbors[i]) split[i] = share.probability;
            }
          }
        }
      }
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (env_.directory->has(neighbors[i]) && split[i] > 0.0) {
          env_.directory->at(neighbors[i]).add_anonymous_reservation(total * split[i]);
        }
      }
    }
  }
}

}  // namespace imrm::reservation
