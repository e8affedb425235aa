#include "reservation/lounge_policy.h"

#include <array>
#include <stdexcept>
#include <string>
#include <utility>

namespace imrm::reservation {

LoungePolicyBase::LoungePolicyBase(PolicyEnv env, CellId cell, sim::Duration slot,
                                   qos::BitsPerSecond per_user_bandwidth)
    : AdvanceReservationPolicy(std::move(env)), cell_(cell), slot_(slot),
      per_user_bandwidth_(per_user_bandwidth) {
  if (!(slot_ > sim::Duration::zero())) {
    throw std::invalid_argument("lounge: slot must be > 0");
  }
  if (!(per_user_bandwidth_ > 0.0)) {
    throw std::invalid_argument("lounge: per_user_bandwidth must be > 0");
  }
}

bool LoungePolicyBase::has_default_neighbor() const {
  for (CellId n : env_.map->cell(cell_).neighbors) {
    if (env_.map->cell(n).cell_class == mobility::CellClass::kLounge) return true;
  }
  return false;
}

void LoungePolicyBase::on_handoff(const mobility::HandoffEvent& event) {
  if (event.from == cell_) outgoing_this_slot_ += 1.0;
  if (event.to == cell_) incoming_this_slot_ += 1.0;
}

void LoungePolicyBase::close_slot(sim::SimTime now) {
  const auto slot_index = std::size_t(now.to_seconds() / slot_.to_seconds());
  while (current_slot_ < slot_index) {
    slot_closed(outgoing_this_slot_, incoming_this_slot_);
    outgoing_this_slot_ = 0.0;
    incoming_this_slot_ = 0.0;
    ++current_slot_;
    // Only the just-finished slot carries real counts; older skipped slots
    // (no refresh during them) observe zero, which is accurate: no handoff
    // listener fired.
  }
}

qos::BitsPerSecond LoungePolicyBase::self_reservation() const {
  return predict_incoming() * per_user_bandwidth_;
}

void LoungePolicyBase::refresh(sim::SimTime now) {
  close_slot(now);
  if (standalone_) env_.directory->clear_reservations();

  // Ask the neighbors to reserve for the predicted outgoing handoffs, split
  // by the cell-profile handoff distribution (uniform without data).
  const double outgoing = predict_outgoing();
  const auto& neighbors = env_.map->cell(cell_).neighbors;
  if (outgoing > 0.0 && !neighbors.empty()) {
    const std::vector<double>& split = split_.compute(env_, cell_);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (env_.directory->has(neighbors[i]) && split[i] > 0.0) {
        env_.directory->at(neighbors[i])
            .add_anonymous_reservation(outgoing * per_user_bandwidth_ * split[i]);
      }
    }
  }

  // With a default (poorly predicting) neighbor, also reserve locally for
  // the self-predicted incoming handoffs.
  if (has_default_neighbor() && env_.directory->has(cell_)) {
    env_.directory->at(cell_).add_anonymous_reservation(self_reservation());
  }
}

void LoungePolicyBase::save_state(sim::CheckpointWriter& w) const {
  w.f64(outgoing_this_slot_);
  w.f64(incoming_this_slot_);
  w.u64(current_slot_);
  save_predictors(w);
}

void LoungePolicyBase::restore_state(sim::CheckpointReader& r) {
  outgoing_this_slot_ = r.f64();
  incoming_this_slot_ = r.f64();
  current_slot_ = std::size_t(r.u64());
  restore_predictors(r);
}

void CafeteriaPolicy::save_predictors(sim::CheckpointWriter& w) const {
  for (const CafeteriaPredictor* p : {&outgoing_, &incoming_}) {
    w.u64(p->history().size());
    for (const double count : p->history()) w.f64(count);
    w.u64(p->latest_slot());
  }
}

void CafeteriaPolicy::restore_predictors(sim::CheckpointReader& r) {
  for (CafeteriaPredictor* p : {&outgoing_, &incoming_}) {
    const std::uint64_t samples = r.u64();
    if (samples > CafeteriaPredictor::kWindow) {
      throw sim::CheckpointError("cafeteria policy: predictor window of " +
                                 std::to_string(samples) + " samples exceeds 3");
    }
    std::array<double, CafeteriaPredictor::kWindow> window;
    for (std::size_t i = 0; i < samples; ++i) window[i] = r.f64();
    p->restore({window.data(), std::size_t(samples)}, std::size_t(r.u64()));
  }
}

DefaultLoungePolicy::DefaultLoungePolicy(PolicyEnv env, CellId cell, sim::Duration slot,
                                         qos::BitsPerSecond per_user_bandwidth,
                                         std::optional<ProbabilisticReservation> probabilistic)
    : LoungePolicyBase(std::move(env), cell, slot, per_user_bandwidth),
      probabilistic_(std::move(probabilistic)) {
  // Only the probabilistic bound reads the roster.
  if (probabilistic_.has_value()) env_.require_roster(name());
}

qos::BitsPerSecond DefaultLoungePolicy::self_reservation() const {
  if (!probabilistic_.has_value()) return LoungePolicyBase::self_reservation();
  // Section 6.4: with a default neighbor, apply the probabilistic algorithm
  // — reserve at least the eq. 7 quantity. Counts are approximated by the
  // portables currently holding connections here and in the neighbors.
  std::vector<int> here(probabilistic_->type_count(), 0);
  std::vector<int> neighbor(probabilistic_->type_count(), 0);
  here[0] = int(env_.mobility->resident_count(cell_));
  for (CellId n : env_.map->cell(cell_).neighbors) {
    neighbor[0] += int(env_.mobility->resident_count(n));
  }
  const int units = probabilistic_->reserved_units(here, neighbor);
  return double(units) * per_user_bandwidth_;
}

}  // namespace imrm::reservation
