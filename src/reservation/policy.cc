#include "reservation/policy.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace imrm::reservation {

void PolicyEnv::require_roster(const std::string& policy) const {
  if (map == nullptr || directory == nullptr || mobility == nullptr) {
    throw std::invalid_argument(policy +
                                ": PolicyEnv needs map, directory and mobility set");
  }
}

void PolicyEnv::require_workload(const std::string& policy) const {
  require_roster(policy);
  if (demand == nullptr) {
    throw std::invalid_argument(policy + ": PolicyEnv needs the demand table set");
  }
}

const std::vector<double>& NeighborSplit::compute(const PolicyEnv& env, CellId cell) {
  const auto& neighbors = env.map->cell(cell).neighbors;
  split_.assign(neighbors.size(), 1.0 / double(neighbors.size()));
  const profiles::CellProfile* profile = env.profiles->cell_profile(cell);
  if (profile == nullptr) return split_;
  profile->aggregate_distribution(dist_);
  if (dist_.empty()) return split_;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    split_[i] = 0.0;
    for (const auto& share : dist_) {
      if (share.neighbor == neighbors[i]) split_[i] = share.probability;
    }
  }
  return split_;
}

void RosterPolicy::mark_dirty(std::span<const Share> shares) {
  for (const Share& share : shares) {
    const std::size_t i = share.cell.value();
    if (i >= dirty_.size()) dirty_.resize(i + 1, 0);
    dirty_[i] = 1;
  }
  any_dirty_ |= !shares.empty();
}

RosterPolicy::Inputs RosterPolicy::inputs_now(PortableId p) const {
  const mobility::MobilityManager& roster = *env_.mobility;
  Inputs in;
  const qos::BitsPerSecond b = env_.demand_of(p);
  if (b <= 0.0 || roster.classify(p) != qos::MobilityClass::kMobile) return in;
  const mobility::Portable& record = roster.portable(p);
  in.cell = record.current_cell;
  in.previous = record.previous_cell;
  in.demand = b;
  if (reads_profiles_) {
    in.portable_revision = env_.profiles->portable_revision(p);
    in.cell_revision = env_.profiles->cell_revision(in.cell);
  }
  return in;
}

void RosterPolicy::diff(PortableId p, bool everything) {
  const Inputs in = inputs_now(p);
  Entry& entry = entries_[p.value()];
  if (!everything && in == entry.inputs) return;

  const Inputs none;
  shares_.clear();
  if (in != none) shares_of(p, in, shares_);
  const bool moved = in.cell != entry.inputs.cell;
  const std::span<const Share> held = shares_held(p.value());
  if (!everything && !moved &&
      std::equal(shares_.begin(), shares_.end(), held.begin(), held.end())) {
    entry.inputs = in;
    return;
  }
  // A portable that moved dirties its old and new shares' cells even when
  // they look alike: its arrival consumed its reservation in the new cell.
  if (moved && entry.inputs != none) {
    const Holder old{entry.inputs.cell.value(), p.value()};
    holders_.erase(std::lower_bound(holders_.begin(), holders_.end(), old));
  }
  if (moved && in != none) {
    const Holder now{in.cell.value(), p.value()};
    holders_.insert(std::lower_bound(holders_.begin(), holders_.end(), now), now);
  }
  holders_changed_ |= moved;
  mark_dirty(held);
  mark_dirty(shares_);
  entry.inputs = in;
  hold_shares(p.value());
  shares_changed(p, shares_held(p.value()));
}

void RosterPolicy::hold_shares(std::uint32_t p) {
  if (shares_.size() > stride_) {
    std::vector<Share> pool(entries_.size() * shares_.size());
    for (std::uint32_t q = 0; q < entries_.size(); ++q) {
      const std::span<const Share> held = shares_held(q);
      std::copy(held.begin(), held.end(), pool.begin() + std::ptrdiff_t(q * shares_.size()));
    }
    pool_.swap(pool);
    stride_ = shares_.size();
  }
  std::copy(shares_.begin(), shares_.end(), pool_.begin() + std::ptrdiff_t(p * stride_));
  entries_[p].share_count = std::uint32_t(shares_.size());
}

void RosterPolicy::rebuild_dirty_cells(bool everything) {
  // Clear, then re-apply every share aimed at a dirty cell in the full
  // rebuild's order (ascending source cell, then ascending portable).
  const auto dirty = [this, everything](CellId id) {
    return everything || (id.value() < dirty_.size() && dirty_[id.value()] != 0);
  };
  ReservationDirectory& directory = *env_.directory;
  directory.for_each_cell([&dirty](CellId id, CellBandwidth& account) {
    if (dirty(id)) account.clear_specific_reservations();
  });
  for (const Holder& holder : holders_) {
    for (const Share& share : shares_held(holder.second)) {
      if (dirty(share.cell)) directory.at(share.cell).reserve_for(PortableId{holder.second},
                                                                  share.bandwidth);
    }
  }
  std::fill(dirty_.begin(), dirty_.end(), 0);
  any_dirty_ = false;
}

void RosterPolicy::refresh_specific() {
  const mobility::MobilityManager& roster = *env_.mobility;
  const std::vector<qos::BitsPerSecond>& demand = *env_.demand;
  const std::size_t count = roster.portable_count();
  // The roster's changes since the last refresh: one names its portable.
  // Several could hide a round trip that left a portable's inputs as they
  // were while its arrival consumed one of its reservations, so they
  // rebuild everything, as does a roster smaller than the cache (restored).
  const std::uint64_t changes = roster.revision() - roster_revision_;
  const bool everything = rebuild_ || count < entries_.size() || changes > 1 ||
                          (changes == 1 && !roster.last_changed().is_valid());
  // Bitwise, which is stricter than ==: at worst a needless diff.
  const bool demand_same =
      demand.size() == demand_.size() &&
      (demand.empty() ||
       std::memcmp(demand.data(), demand_.data(), demand.size() * sizeof(double)) == 0);
  const bool profiles_same =
      !reads_profiles_ || env_.profiles->revision() == profile_revision_;
  // Time alone can only turn a mobile portable static (T_th), and the
  // holder that entered its cell first turns first -- unless it just moved.
  const auto turned_static = [&roster](PortableId p) {
    return roster.classify(p) != qos::MobilityClass::kMobile;
  };
  const bool first_moved = changes == 1 && roster.last_changed() == first_to_turn_;
  const bool any_static = !everything && first_to_turn_.is_valid() &&
                          (first_moved || turned_static(first_to_turn_));
  if (!everything && changes == 0 && demand_same && profiles_same && !any_static) return;

  visit_.clear();
  if (everything) {
    entries_.assign(count, Entry{});
    holders_.clear();
    holders_changed_ = true;
    for (std::size_t i = 0; i < count; ++i) visit_.push_back(std::uint32_t(i));
  } else {
    if (changes == 1) visit_.push_back(roster.last_changed().value());
    for (std::size_t i = 0; !demand_same && i < count; ++i) {
      const double now = i < demand.size() ? demand[i] : 0.0;
      const double then = i < demand_.size() ? demand_[i] : 0.0;
      if (now != then) visit_.push_back(std::uint32_t(i));
    }
    for (std::size_t i = 0; (any_static || !profiles_same) && i < holders_.size(); ++i) {
      const PortableId p{holders_[i].second};
      const Inputs& in = entries_[p.value()].inputs;
      const bool profile_moved =
          !profiles_same && (env_.profiles->portable_revision(p) != in.portable_revision ||
                             env_.profiles->cell_revision(in.cell) != in.cell_revision);
      if (profile_moved || (any_static && turned_static(p))) visit_.push_back(p.value());
    }
  }
  entries_.resize(count);
  pool_.resize(count * stride_);
  for (const std::uint32_t p : visit_) diff(PortableId{p}, everything);
  if (holders_changed_) {
    first_to_turn_ = PortableId::invalid();
    sim::SimTime first_entered = sim::SimTime::zero();
    for (const Holder& holder : holders_) {
      const PortableId p{holder.second};
      const sim::SimTime entered = roster.portable(p).entered_cell;
      if (!first_to_turn_.is_valid() || entered < first_entered) {
        first_to_turn_ = p;
        first_entered = entered;
      }
    }
    holders_changed_ = false;
  }
  roster_revision_ = roster.revision();
  if (reads_profiles_) profile_revision_ = env_.profiles->revision();
  if (!demand_same) demand_ = demand;
  rebuild_ = false;
  if (everything || any_dirty_) rebuild_dirty_cells(everything);
}

BruteForcePolicy::BruteForcePolicy(PolicyEnv env) : RosterPolicy(std::move(env), false) {
  env_.require_workload(name());
}

// Every mobile portable with an active connection claims its bandwidth in
// every neighbor of its current cell.
void BruteForcePolicy::shares_of(PortableId, const Inputs& in, std::vector<Share>& out) {
  for (CellId neighbor : env_.map->cell(in.cell).neighbors) {
    if (env_.directory->has(neighbor)) out.push_back({neighbor, in.demand});
  }
}

void BruteForcePolicy::refresh(sim::SimTime) {
  env_.directory->clear_anonymous_reservations();
  refresh_specific();
}

AggregatePolicy::AggregatePolicy(PolicyEnv env) : RosterPolicy(std::move(env), true) {
  env_.require_workload(name());
  if (env_.profiles == nullptr) {
    throw std::invalid_argument(name() + ": PolicyEnv needs profiles set");
  }
}

// Each mobile portable's bandwidth is reserved in every neighbor, scaled by
// the cell profile's aggregate probability of handing off there — the
// per-connection reservation model of Section 3.3 informed by aggregate
// history instead of the brute-force "everything everywhere".
void AggregatePolicy::shares_of(PortableId, const Inputs& in, std::vector<Share>& out) {
  if (in.cell.value() >= distributions_.size()) distributions_.resize(in.cell.value() + 1);
  Distribution& dist = distributions_[in.cell.value()];
  if (!dist.valid || dist.revision != in.cell_revision) {
    // Refilled in place: a cell's buffer is allocated once, not per revision.
    if (const profiles::CellProfile* profile = env_.profiles->cell_profile(in.cell)) {
      profile->aggregate_distribution(dist.shares);
    } else {
      dist.shares.clear();
    }
    dist.revision = in.cell_revision;
    dist.valid = true;
  }
  for (const auto& share : dist.shares) {
    if (share.probability <= 0.0) continue;
    if (!env_.directory->has(share.neighbor)) continue;
    out.push_back({share.neighbor, in.demand * share.probability});
  }
}

void AggregatePolicy::refresh(sim::SimTime) {
  env_.directory->clear_anonymous_reservations();
  refresh_specific();
}

StaticPolicy::StaticPolicy(PolicyEnv env, double guard_fraction)
    : AdvanceReservationPolicy(std::move(env)), guard_fraction_(guard_fraction) {
  if (!(guard_fraction_ >= 0.0 && guard_fraction_ <= 1.0)) {
    throw std::invalid_argument("static: guard_fraction must lie in [0, 1]");
  }
}

void StaticPolicy::refresh(sim::SimTime) {
  env_.directory->for_each_cell([this](CellId, CellBandwidth& cell) {
    cell.clear_specific_reservations();
    cell.set_anonymous_reservation(guard_fraction_ * cell.capacity());
  });
}

MeetingRoomPolicy::MeetingRoomPolicy(PolicyEnv env, CellId room,
                                     profiles::BookingCalendar calendar, Params params)
    : AdvanceReservationPolicy(std::move(env)), room_(room),
      calendar_(std::move(calendar)), params_(params) {
  if (!(params_.per_user_bandwidth > 0.0)) {
    throw std::invalid_argument("meeting-room: per_user_bandwidth must be > 0");
  }
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
      const std::vector<double>& split = split_.compute(env_, room_);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (env_.directory->has(neighbors[i]) && split[i] > 0.0) {
          env_.directory->at(neighbors[i]).add_anonymous_reservation(total * split[i]);
        }
      }
    }
  }
}

}  // namespace imrm::reservation
