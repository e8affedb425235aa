#include "reservation/policy.h"

#include <algorithm>
#include <cassert>
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

RosterPolicy::Target& RosterPolicy::mark_dirty(CellId cell) {
  Target& target = targets_[cell.value()];
  if (!target.dirty) {
    target.dirty = true;
    dirty_.push_back(cell.value());
  }
  return target;
}

// The per-cell lists hold a few holders each: a linear scan beats a binary
// search's mispredicted branches.
void RosterPolicy::unaim(std::uint64_t key, const Share& share) {
  Aimed* const list = aimed_at(share.cell.value()).data();
  Target& target = mark_dirty(share.cell);
  std::uint32_t i = 0;
  while (list[i].key != key) {
    ++i;
    assert(i < target.count);
  }
  for (--target.count; i < target.count; ++i) list[i] = list[i + 1];
  env_.directory->at(share.cell).cancel_reservation(PortableId{std::uint32_t(key)});
}

void RosterPolicy::aim(std::uint64_t key, const Share& share) {
  if (targets_[share.cell.value()].count == aimed_stride_) {
    const std::size_t stride = std::max<std::size_t>(2 * aimed_stride_, 4);
    std::vector<Aimed> aimed(targets_.size() * stride);
    for (std::uint32_t c = 0; c < targets_.size(); ++c) {
      const std::span<const Aimed> list = aimed_at(c);
      std::copy(list.begin(), list.end(), aimed.begin() + std::ptrdiff_t(c * stride));
    }
    aimed_.swap(aimed);
    aimed_stride_ = stride;
  }
  Aimed* const list = aimed_at(share.cell.value()).data();
  std::uint32_t i = mark_dirty(share.cell).count++;
  for (; i > 0 && list[i - 1].key > key; --i) list[i] = list[i - 1];
  list[i] = {key, share.bandwidth};
  env_.directory->at(share.cell).reserve_for(PortableId{std::uint32_t(key)}, share.bandwidth);
}

void RosterPolicy::reaim(std::uint64_t key, std::span<const Share> held) {
  const auto aimed_at_cell = [](std::span<const Share> shares, CellId cell) {
    return std::find_if(shares.begin(), shares.end(),
                        [cell](const Share& share) { return share.cell == cell; });
  };
  const std::span<const Share> now = shares_;
  for (const Share& share : held) {
    if (aimed_at_cell(now, share.cell) == now.end()) unaim(key, share);
  }
  for (const Share& share : now) {
    const auto was = aimed_at_cell(held, share.cell);
    if (was == held.end()) {
      aim(key, share);
    } else if (was->bandwidth != share.bandwidth) {
      const std::span<Aimed> list = aimed_at(share.cell.value());
      const auto aimed = std::find_if(list.begin(), list.end(),
                                      [key](const Aimed& a) { return a.key == key; });
      assert(aimed != list.end());
      aimed->bandwidth = share.bandwidth;
      mark_dirty(share.cell);
      env_.directory->at(share.cell).reserve_for(PortableId{std::uint32_t(key)},
                                                 share.bandwidth);
    }
  }
}

void RosterPolicy::leave_holders(PortableId p) {
  const std::uint32_t slot = entries_[p.value()].slot;
  holders_[slot] = holders_.back();
  entries_[holders_[slot]].slot = slot;
  holders_.pop_back();
  if (p == first_to_turn_) {
    first_to_turn_ = PortableId::invalid();
    first_stale_ = true;
  }
}

void RosterPolicy::join_holders(PortableId p) {
  entries_[p.value()].slot = std::uint32_t(holders_.size());
  holders_.push_back(p.value());
  // A mover is the newest entrant; only a holder that has sat in its cell
  // for a while (a connection opening) can enter ahead of the first.
  if (first_stale_) return;
  const sim::SimTime entered = env_.mobility->portable(p).entered_cell;
  if (!first_to_turn_.is_valid() || entered < first_entered_) {
    first_to_turn_ = p;
    first_entered_ = entered;
  }
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
  if (moved && entry.inputs != none) leave_holders(p);
  if (moved && in != none) join_holders(p);
  const std::uint64_t key = aimed_key(in.cell.value(), p.value());
  if (moved) {
    // A portable that moved re-reserves even shares that look alike: its
    // arrival consumed its reservation in the new cell.
    const std::uint64_t old_key = aimed_key(entry.inputs.cell.value(), p.value());
    for (const Share& share : held) unaim(old_key, share);
    for (const Share& share : shares_) aim(key, share);
  } else {
    reaim(key, held);
  }
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

void RosterPolicy::restate_dirty_cells() {
  for (const std::uint32_t cell : dirty_) {
    // The left fold a full rebuild's reserve_for calls accumulate: from 0,
    // in ascending source cell, then portable order.
    qos::BitsPerSecond total = 0.0;
    for (const Aimed& aimed : aimed_at(cell)) total += aimed.bandwidth;
    env_.directory->at(CellId{cell}).restate_specific_total(total);
    targets_[cell].dirty = false;
  }
  dirty_.clear();
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
  const std::uint64_t profile_changes =
      reads_profiles_ ? env_.profiles->revision() - profile_revision_ : 0;
  // A handoff's record_handoff bumps two revisions: the mover's portable
  // profile and the cell it left. When they are the whole profile change,
  // the portables they can concern are named.
  const profiles::ProfileServer::HandoffMark* handoff =
      profile_changes == 2 && env_.profiles->last_handoff().revision == env_.profiles->revision()
          ? &env_.profiles->last_handoff()
          : nullptr;
  // Time alone can only turn a mobile portable static (T_th), and the
  // holder that entered its cell first turns first -- unless it just moved.
  const auto turned_static = [&roster](PortableId p) {
    return roster.classify(p) != qos::MobilityClass::kMobile;
  };
  const bool first_moved = changes == 1 && roster.last_changed() == first_to_turn_;
  const bool any_static = !everything && first_to_turn_.is_valid() &&
                          (first_moved || turned_static(first_to_turn_));
  if (!everything && changes == 0 && demand_same && profile_changes == 0 && !any_static) {
    return;
  }

  visit_.clear();
  if (everything) {
    // Every cell dirty, and emptied: the diffs below re-aim every share.
    entries_.assign(count, Entry{});
    holders_.clear();
    first_to_turn_ = PortableId::invalid();
    first_stale_ = false;
    dirty_.reserve(env_.directory->size());
    env_.directory->for_each_cell([this](CellId id, CellBandwidth& account) {
      if (id.value() >= targets_.size()) targets_.resize(id.value() + 1);
      account.clear_specific_reservations();
      mark_dirty(id).count = 0;
    });
    aimed_.resize(targets_.size() * aimed_stride_);
    for (std::size_t i = 0; i < count; ++i) visit_.push_back(std::uint32_t(i));
  } else {
    if (changes == 1) visit_.push_back(roster.last_changed().value());
    for (std::size_t i = 0; !demand_same && i < count; ++i) {
      const double now = i < demand.size() ? demand[i] : 0.0;
      const double then = i < demand_.size() ? demand_[i] : 0.0;
      if (now != then) visit_.push_back(std::uint32_t(i));
    }
    if (handoff != nullptr) {
      const bool mover_named = changes == 1 && roster.last_changed() == handoff->portable;
      if (!mover_named && handoff->portable.value() < count) {
        visit_.push_back(handoff->portable.value());
      }
      // The holders of the cell it left are still its residents: only the
      // roster's one change can have moved one, and that one is visited.
      for (const PortableId q : roster.portables_in(handoff->from)) {
        if (q.value() < entries_.size() && entries_[q.value()].inputs.cell == handoff->from) {
          visit_.push_back(q.value());
        }
      }
    }
    // Any other profile change: whichever holder's revisions moved.
    const bool profiles_unnamed = profile_changes > 0 && handoff == nullptr;
    for (std::size_t i = 0; (any_static || profiles_unnamed) && i < holders_.size(); ++i) {
      const PortableId p{holders_[i]};
      const Inputs& in = entries_[p.value()].inputs;
      const bool profile_moved =
          profiles_unnamed && (env_.profiles->portable_revision(p) != in.portable_revision ||
                               env_.profiles->cell_revision(in.cell) != in.cell_revision);
      if (profile_moved || (any_static && turned_static(p))) visit_.push_back(p.value());
    }
  }
  entries_.resize(count);
  pool_.resize(count * stride_);
  for (const std::uint32_t p : visit_) diff(PortableId{p}, everything);
  if (first_stale_) {
    for (const std::uint32_t holder : holders_) {
      const PortableId p{holder};
      const sim::SimTime entered = roster.portable(p).entered_cell;
      if (!first_to_turn_.is_valid() || entered < first_entered_) {
        first_to_turn_ = p;
        first_entered_ = entered;
      }
    }
    first_stale_ = false;
  }
  roster_revision_ = roster.revision();
  if (reads_profiles_) profile_revision_ = env_.profiles->revision();
  if (!demand_same) demand_ = demand;
  rebuild_ = false;
  restate_dirty_cells();
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
