#include "profiles/profile_server.h"

#include <utility>

namespace imrm::profiles {

namespace {

// Grows `slots` so index `i` is addressable (still disengaged).
template <typename T>
void ensure_slot(std::vector<std::optional<T>>& slots, std::size_t i) {
  if (i >= slots.size()) slots.resize(i + 1);
}

template <typename T>
const T* slot_get(const std::vector<std::optional<T>>& slots, std::size_t i) {
  if (i >= slots.size() || !slots[i].has_value()) return nullptr;
  return &*slots[i];
}

}  // namespace

void ProfileServer::bump(std::vector<std::uint64_t>& revisions, std::size_t i) {
  if (i >= revisions.size()) revisions.resize(i + 1, 0);
  ++revisions[i];
  ++revision_;
}

void ProfileServer::record_handoff(const mobility::HandoffEvent& event) {
  record_handoff(event.portable, event.prev_of_from, event.from, event.to);
}

void ProfileServer::record_handoff(net::PortableId portable, CellId prev, CellId from,
                                   CellId to) {
  // <portable id, current cell, previous cell, next cell>: the portable was
  // in `from` (having come from `prev`) and handed off to `to`.
  portable_profile_mut(portable).record(prev, from, to);
  // Cell profile of the departed cell: <previous cell, next cell>.
  cell_profile_mut(from).record(prev, to);
  last_handoff_ = {portable, from, revision_};
  ++traffic_.handoff_updates;    // old BS notifies the server
  ++traffic_.profile_transfers;  // old BS forwards the cached profile
}

const PortableProfile* ProfileServer::portable_profile(net::PortableId id) const {
  return slot_get(portables_, id.value());
}

const CellProfile* ProfileServer::cell_profile(CellId id) const {
  return slot_get(cells_, id.value());
}

PortableProfile& ProfileServer::portable_profile_mut(net::PortableId id) {
  bump(portable_revisions_, id.value());
  ensure_slot(portables_, id.value());
  auto& slot = portables_[id.value()];
  if (!slot.has_value()) slot.emplace(id, config_.portable_window);
  return *slot;
}

CellProfile& ProfileServer::cell_profile_mut(CellId id) {
  bump(cell_revisions_, id.value());
  ensure_slot(cells_, id.value());
  auto& slot = cells_[id.value()];
  if (!slot.has_value()) slot.emplace(id, config_.cell_window);
  return *slot;
}

BookingCalendar& ProfileServer::calendar(CellId id) {
  ensure_slot(calendars_, id.value());
  auto& slot = calendars_[id.value()];
  if (!slot.has_value()) slot.emplace();
  return *slot;
}

const BookingCalendar* ProfileServer::calendar_if(CellId id) const {
  return slot_get(calendars_, id.value());
}

std::optional<PortableProfile> ProfileServer::extract_portable(net::PortableId id) {
  if (id.value() >= portables_.size() || !portables_[id.value()].has_value()) {
    return std::nullopt;
  }
  std::optional<PortableProfile> profile = std::move(portables_[id.value()]);
  portables_[id.value()].reset();
  bump(portable_revisions_, id.value());
  return profile;
}

void ProfileServer::adopt_portable(PortableProfile profile) {
  const net::PortableId id = profile.id();
  bump(portable_revisions_, id.value());
  ensure_slot(portables_, id.value());
  portables_[id.value()] = std::move(profile);
}

void ProfileServer::refresh_on_static(net::PortableId id) {
  (void)id;
  ++traffic_.refreshes;
}

void ProfileServer::save_state(sim::CheckpointWriter& w) const {
  std::uint64_t portable_count = 0;
  for (const auto& slot : portables_) portable_count += slot.has_value();
  w.u64(portable_count);
  for (const auto& slot : portables_) {
    if (slot.has_value()) slot->save_state(w);
  }

  std::uint64_t cell_count = 0;
  for (const auto& slot : cells_) cell_count += slot.has_value();
  w.u64(cell_count);
  for (const auto& slot : cells_) {
    if (slot.has_value()) slot->save_state(w);
  }

  w.u64(traffic_.handoff_updates);
  w.u64(traffic_.profile_transfers);
  w.u64(traffic_.refreshes);
}

void ProfileServer::restore_state(sim::CheckpointReader& r) {
  // Every profile may change: bump the ones about to be dropped here, the
  // restored ones as they arrive.
  for (std::uint64_t& revision : portable_revisions_) ++revision;
  for (std::uint64_t& revision : cell_revisions_) ++revision;
  ++revision_;
  portables_.clear();
  for (std::uint64_t n = r.u64(); n-- > 0;) {
    adopt_portable(PortableProfile::restore_state(r));
  }
  cells_.clear();
  for (std::uint64_t n = r.u64(); n-- > 0;) {
    CellProfile profile = CellProfile::restore_state(r);
    const CellId id = profile.id();
    bump(cell_revisions_, id.value());
    ensure_slot(cells_, id.value());
    cells_[id.value()] = std::move(profile);
  }
  traffic_.handoff_updates = r.u64();
  traffic_.profile_transfers = r.u64();
  traffic_.refreshes = r.u64();
}

}  // namespace imrm::profiles
