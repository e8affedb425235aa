#include "core/environment.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "maxmin/waterfill.h"

namespace imrm::core {

Environment::Environment(mobility::CellMap map, sim::Simulator& simulator,
                         EnvironmentConfig config)
    : map_(std::move(map)), simulator_(&simulator), config_(config),
      mobility_(map_, simulator, config.static_threshold),
      profiles_(net::ZoneId{0}),
      predictor_(map_, profiles_) {
  for (const mobility::Cell& cell : map_.cells()) {
    directory_.add_cell(cell.id, config_.cell_capacity);
    directory_.at(cell.id).set_anonymous_reservation(config_.b_dyn_fraction *
                                                     config_.cell_capacity);
  }
  mobility_.on_handoff([this](const mobility::HandoffEvent& event) {
    profiles_.record_handoff(event);
    ++stats_.handoffs;
  });
}

PortableId Environment::add_portable(CellId start, std::optional<CellId> home_office) {
  const PortableId id = mobility_.add_portable(start);
  if (home_office.has_value()) {
    mobility_.portable(id).home_office = home_office;
    map_.add_occupant(*home_office, id);
  }
  return id;
}

bool Environment::open_connection(PortableId portable, qos::BandwidthRange bounds) {
  assert(bounds.valid());
  assert(!connections_.contains(portable));
  const CellId cell = mobility_.portable(portable).current_cell;
  reservation::CellBandwidth& account = directory_.at(cell);

  bool admitted = account.admit_new(portable, bounds.b_min);
  if (!admitted) {
    // Resource conflict (Section 5.2): squeeze ongoing connections back to
    // their guaranteed minima and retry before rejecting.
    squeeze_cell(cell);
    admitted = account.admit_new(portable, bounds.b_min);
  }
  if (!admitted) {
    ++stats_.connections_blocked;
    return false;
  }
  connections_.emplace(portable, ConnectionState{bounds, bounds.b_min, CellId::invalid()});
  ++stats_.connections_opened;

  if (mobility_.classify(portable) == qos::MobilityClass::kMobile) {
    place_advance_reservation(portable);
  }
  adapt_cell(cell);
  return true;
}

void Environment::close_connection(PortableId portable) {
  const auto it = connections_.find(portable);
  assert(it != connections_.end());
  const CellId cell = mobility_.portable(portable).current_cell;
  directory_.at(cell).release(portable);
  cancel_advance_reservation(portable);
  connections_.erase(it);
  adapt_cell(cell);
}

bool Environment::handoff(PortableId portable, CellId to) {
  const CellId from = mobility_.portable(portable).current_cell;
  const auto it = connections_.find(portable);

  if (it == connections_.end()) {
    mobility_.move(portable, to);  // connectionless portables just move
    return true;
  }

  ConnectionState& state = it->second;

  // Old base station releases the connection's bandwidth.
  directory_.at(from).release(portable);
  mobility_.move(portable, to);

  // New base station runs handoff admission at the guaranteed minimum. The
  // reservation made for this portable (if the prediction was right) and the
  // anonymous pool are usable.
  reservation::CellBandwidth& target = directory_.at(to);
  const bool prediction_hit = target.reservation_for(portable) > 0.0;
  bool admitted = target.admit_handoff(portable, state.bounds.b_min);
  if (!admitted) {
    // Conflict resolution: squeeze the target cell's connections to their
    // minima and retry before giving up.
    squeeze_cell(to);
    admitted = target.admit_handoff(portable, state.bounds.b_min);
  }
  if (state.reserved_in == to) state.reserved_in = CellId::invalid();

  if (!admitted) {
    ++stats_.handoff_drops;
    cancel_advance_reservation(portable);
    connections_.erase(it);
    adapt_cell(from);
    return false;
  }
  if (prediction_hit) ++stats_.predictions_correct;
  state.allocated = state.bounds.b_min;

  // A portable that just moved is mobile by definition: advance-reserve in
  // its next predicted cell.
  place_advance_reservation(portable);

  adapt_cell(from);
  adapt_cell(to);
  update_b_dyn(to);
  return true;
}

bool Environment::renegotiate(PortableId portable, qos::BandwidthRange bounds) {
  assert(bounds.valid());
  const auto it = connections_.find(portable);
  assert(it != connections_.end());
  const CellId cell = mobility_.portable(portable).current_cell;
  reservation::CellBandwidth& account = directory_.at(cell);

  // Treated as a new connection request: release, try the new bounds (with
  // conflict resolution), and roll back on failure.
  const qos::BandwidthRange old_bounds = it->second.bounds;
  account.release(portable);
  bool admitted = account.admit_new(portable, bounds.b_min);
  if (!admitted) {
    squeeze_cell(cell);
    admitted = account.admit_new(portable, bounds.b_min);
  }
  if (!admitted) {
    const bool restored = account.admit_new(portable, old_bounds.b_min);
    assert(restored && "the old minimum fit a moment ago");
    (void)restored;
    adapt_cell(cell);
    return false;
  }
  it->second.bounds = bounds;
  it->second.allocated = bounds.b_min;
  // The reservation in the predicted next cell tracks the new minimum.
  if (mobility_.classify(portable) == qos::MobilityClass::kMobile) {
    place_advance_reservation(portable);
  }
  adapt_cell(cell);
  return true;
}

void Environment::place_advance_reservation(PortableId portable) {
  const auto it = connections_.find(portable);
  if (it == connections_.end()) return;
  cancel_advance_reservation(portable);

  const prediction::Prediction p = predictor_.predict(mobility_.portable(portable));
  if (!p.next_cell.has_value()) return;  // level 3: default algorithm territory
  reservation::CellBandwidth& target = directory_.at(*p.next_cell);
  target.reserve_for(portable, it->second.bounds.b_min);
  it->second.reserved_in = *p.next_cell;
  ++stats_.reservations_placed;
}

void Environment::cancel_advance_reservation(PortableId portable) {
  const auto it = connections_.find(portable);
  if (it == connections_.end() || !it->second.reserved_in.is_valid()) return;
  directory_.at(it->second.reserved_in).cancel_reservation(portable);
  it->second.reserved_in = CellId::invalid();
}

std::vector<PortableId> Environment::squeeze_cell(CellId cell) {
  // Conflict resolution (Section 5.2 case b): push every ongoing connection
  // back to its guaranteed minimum, freeing the adaptable excess.
  reservation::CellBandwidth& account = directory_.at(cell);
  std::vector<PortableId> holders;
  for (PortableId p : mobility_.portables_in(cell)) {
    if (connections_.contains(p) && account.has_connection(p)) holders.push_back(p);
  }
  for (PortableId p : holders) {
    account.set_allocation(p, connections_.at(p).bounds.b_min);
    connections_.at(p).allocated = connections_.at(p).bounds.b_min;
  }
  return holders;
}

void Environment::adapt_cell(CellId cell) {
  reservation::CellBandwidth& account = directory_.at(cell);
  const std::vector<PortableId> holders = squeeze_cell(cell);
  if (holders.empty()) return;

  // Redistribute the excess among static portables' connections with the
  // max-min criterion (a single link: water-filling with headroom demands).
  std::vector<PortableId> statics;
  for (PortableId p : holders) {
    if (mobility_.classify(p) == qos::MobilityClass::kStatic) statics.push_back(p);
  }
  ++stats_.adaptations;
  if (statics.empty()) return;

  const qos::BitsPerSecond excess =
      std::max(account.capacity() - account.allocated() - account.reserved_total(), 0.0);
  if (excess <= 0.0) return;

  std::vector<double> headrooms;
  headrooms.reserve(statics.size());
  for (PortableId p : statics) {
    headrooms.push_back(connections_.at(p).bounds.headroom());
  }
  const std::vector<double> shares = maxmin::divide_excess(excess, headrooms);
  for (std::size_t i = 0; i < statics.size(); ++i) {
    const PortableId p = statics[i];
    const qos::BitsPerSecond b = connections_.at(p).bounds.b_min + shares[i];
    account.set_allocation(p, b);
    connections_.at(p).allocated = b;
  }
}

void Environment::update_b_dyn(CellId cell) {
  // Section 5.3: the pool must cover at least one connection (with the
  // maximum allocated bandwidth) from a static portable residing in a
  // neighboring cell — sudden movement of a static portable has no advance
  // reservation to fall back on.
  qos::BitsPerSecond max_static_neighbor = 0.0;
  for (CellId n : map_.cell(cell).neighbors) {
    for (PortableId p : mobility_.portables_in(n)) {
      const auto it = connections_.find(p);
      if (it == connections_.end()) continue;
      if (mobility_.classify(p) != qos::MobilityClass::kStatic) continue;
      max_static_neighbor = std::max(max_static_neighbor, it->second.allocated);
    }
  }
  reservation::CellBandwidth& account = directory_.at(cell);
  const qos::BitsPerSecond target =
      std::max(config_.b_dyn_fraction * account.capacity(), max_static_neighbor);
  // Never reserve more than is actually free right now.
  const qos::BitsPerSecond ceiling =
      std::max(account.capacity() - account.allocated(), 0.0);
  account.set_anonymous_reservation(std::min(target, ceiling));
}

void Environment::refresh() {
  for (const mobility::Cell& cell : map_.cells()) {
    for (PortableId p : mobility_.portables_in(cell.id)) {
      const auto it = connections_.find(p);
      if (it == connections_.end()) continue;
      if (mobility_.classify(p) == qos::MobilityClass::kStatic) {
        // Static portables hold no advance reservations (Section 3.4.2);
        // the base station refreshes their cached profile from the server.
        if (it->second.reserved_in.is_valid()) {
          cancel_advance_reservation(p);
          profiles_.refresh_on_static(p);
        }
      } else if (!it->second.reserved_in.is_valid()) {
        place_advance_reservation(p);
      }
    }
  }
  for (const mobility::Cell& cell : map_.cells()) {
    adapt_cell(cell.id);
    update_b_dyn(cell.id);
  }
}

qos::BitsPerSecond Environment::allocated(PortableId portable) const {
  const auto it = connections_.find(portable);
  return it == connections_.end() ? 0.0 : it->second.allocated;
}

}  // namespace imrm::core
