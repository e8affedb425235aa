#include "reservation/dispatcher.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace imrm::reservation {

PolicyDispatcher::PolicyDispatcher(PolicyEnv env,
                                   const prediction::ThreeLevelPredictor& predictor,
                                   const profiles::ProfileServer& server, Params params)
    : RosterPolicy(std::move(env), true), predictor_(&predictor), params_(params) {
  env_.require_workload(name());
  if (&predictor.source() != env_.profiles) {
    throw std::invalid_argument(name() + ": the predictor must read env.profiles");
  }
  // Instantiate the collective lounge policies from the cell classes; they
  // contribute into the shared directory (non-standalone).
  for (const mobility::Cell& cell : env_.map->cells()) {
    std::unique_ptr<AdvanceReservationPolicy> policy;
    switch (cell.cell_class) {
      case mobility::CellClass::kMeetingRoom: {
        profiles::BookingCalendar calendar;
        if (const profiles::BookingCalendar* booked = server.calendar_if(cell.id)) {
          calendar = *booked;
        }
        MeetingRoomPolicy::Params room_params;
        room_params.per_user_bandwidth = params_.per_user_bandwidth;
        meeting_policies_.push_back(std::make_unique<MeetingRoomPolicy>(
            env_, cell.id, std::move(calendar), room_params));
        meeting_policies_.back()->set_standalone(false);
        break;
      }
      case mobility::CellClass::kCafeteria:
        lounge_policies_.push_back(std::make_unique<CafeteriaPolicy>(
            env_, cell.id, params_.lounge_slot, params_.per_user_bandwidth));
        lounge_policies_.back()->set_standalone(false);
        break;
      case mobility::CellClass::kLounge:
        lounge_policies_.push_back(std::make_unique<DefaultLoungePolicy>(
            env_, cell.id, params_.lounge_slot, params_.per_user_bandwidth));
        lounge_policies_.back()->set_standalone(false);
        break;
      default:
        break;  // offices and corridors are handled per portable below
    }
  }
}

void PolicyDispatcher::on_handoff(const mobility::HandoffEvent& event) {
  for (auto& policy : lounge_policies_) policy->on_handoff(event);
  for (auto& policy : meeting_policies_) policy->on_handoff(event);
}

void PolicyDispatcher::shares_of(PortableId p, const Inputs& in, std::vector<Share>& out) {
  const mobility::Cell& cell = env_.map->cell(in.cell);
  // Lounges are collective (hosted policies below). A regular occupant AT
  // HOME gets no reservation anywhere (the summary's office No_Resv case):
  // they are expected to stay.
  if (mobility::is_lounge(cell.cell_class)) return;
  if (cell.cell_class == mobility::CellClass::kOffice && cell.is_occupant(p)) return;
  // Step 1 + level-2a/2b: delegate to the three-level predictor, which
  // implements exactly the portable-profile -> office-occupancy -> cell
  // aggregate ladder.
  const prediction::Prediction prediction = predictor_->predict(p, in.previous, in.cell);
  if (prediction.next_cell.has_value() && env_.directory->has(*prediction.next_cell)) {
    out.push_back({*prediction.next_cell, in.demand});
  }
}

void PolicyDispatcher::shares_changed(PortableId p, std::span<const Share> shares) {
  last_reserved_.erase(p.value());
  if (!shares.empty()) last_reserved_[p.value()] = shares.front().cell.value();
}

void PolicyDispatcher::refresh(sim::SimTime now) {
  env_.directory->clear_anonymous_reservations();
  if (rebuild_pending()) last_reserved_.clear();
  // Per-portable reservations for offices and corridors (and any mobile
  // portable with a usable prediction).
  refresh_specific();

  // Collective lounge policies contribute additively.
  for (auto& policy : lounge_policies_) policy->refresh(now);
  for (auto& policy : meeting_policies_) policy->refresh(now);
}

std::optional<CellId> PolicyDispatcher::reserved_cell(PortableId portable) const {
  const std::uint32_t* cell = last_reserved_.find(portable.value());
  if (cell == nullptr) return std::nullopt;
  return CellId{*cell};
}

void PolicyDispatcher::save_state(sim::CheckpointWriter& w) const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  entries.reserve(last_reserved_.size());
  last_reserved_.for_each([&entries](std::uint32_t portable, std::uint32_t cell) {
    entries.emplace_back(portable, cell);
  });
  std::sort(entries.begin(), entries.end());
  w.u64(entries.size());
  for (const auto& [portable, cell] : entries) {
    w.u32(portable);
    w.u32(cell);
  }
  w.u64(lounge_policies_.size());
  for (const auto& policy : lounge_policies_) policy->save_state(w);
  w.u64(meeting_policies_.size());
  for (const auto& policy : meeting_policies_) policy->save_state(w);
}

void PolicyDispatcher::restore_state(sim::CheckpointReader& r) {
  RosterPolicy::restore_state(r);
  last_reserved_.clear();
  for (std::uint64_t n = r.u64(); n-- > 0;) {
    const std::uint32_t portable = r.u32();
    last_reserved_[portable] = r.u32();
  }
  if (r.u64() != lounge_policies_.size()) {
    throw sim::CheckpointError("dispatcher: checkpoint lounge-policy count mismatch");
  }
  for (const auto& policy : lounge_policies_) policy->restore_state(r);
  if (r.u64() != meeting_policies_.size()) {
    throw sim::CheckpointError("dispatcher: checkpoint meeting-policy count mismatch");
  }
  for (const auto& policy : meeting_policies_) policy->restore_state(r);
}

}  // namespace imrm::reservation
