#include "core/network_environment.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "maxmin/bridge.h"

namespace imrm::core {

NetworkEnvironment::NetworkEnvironment(mobility::CellMap map, sim::Simulator& simulator,
                                       BackboneConfig config)
    : map_(std::move(map)), simulator_(&simulator), config_(config),
      mobility_(map_, simulator, config.static_threshold) {
  assert(config_.zones >= 1);
  if (config_.zones > 1) {
    profiles::assign_zones_round_robin(map_, config_.zones);
  }
  universe_.emplace(map_, config_.zones);
  predictor_.emplace(map_, *universe_);
  build_topology();
  network_.emplace(topology_);
  router_.emplace(topology_);
  mobility_.on_handoff([this](const mobility::HandoffEvent& event) {
    universe_->record_handoff(event);
    stats_.profile_migrations = universe_->migrations();
    ++stats_.handoffs;
  });
}

void NetworkEnvironment::build_topology() {
  // Two-level backbone: server - core switch - area switches - base
  // stations - (wireless link) - the cell's radio side.
  constexpr std::size_t kCellsPerArea = 4;
  const std::size_t n_areas = (map_.size() + kCellsPerArea - 1) / kCellsPerArea;
  // One duplex pair per node below the server.
  const std::size_t nodes = 2 + n_areas + 2 * map_.size();
  topology_.reserve(nodes, 2 * (nodes - 1));
  server_ = topology_.add_node(net::NodeKind::kHost, "server");
  const net::NodeId core = topology_.add_node(net::NodeKind::kSwitch, "core");
  topology_.add_duplex(server_, core, config_.wired_capacity, config_.wired_buffer);

  std::vector<net::NodeId> areas;
  areas.reserve(n_areas);
  for (std::size_t a = 0; a < n_areas; ++a) {
    const net::NodeId sw =
        topology_.add_node(net::NodeKind::kSwitch, "area-" + std::to_string(a));
    topology_.add_duplex(core, sw, config_.wired_capacity, config_.wired_buffer);
    areas.push_back(sw);
  }

  bs_of_.resize(map_.size());
  air_of_.resize(map_.size());
  wireless_link_of_.resize(map_.size());
  for (const mobility::Cell& cell : map_.cells()) {
    const std::size_t i = cell.id.value();
    const net::NodeId bs =
        topology_.add_node(net::NodeKind::kBaseStation, "bs-" + cell.name);
    topology_.add_duplex(areas[i / kCellsPerArea], bs, config_.wired_capacity,
                         config_.wired_buffer);
    const net::NodeId air = topology_.add_node(net::NodeKind::kHost, "air-" + cell.name);
    const net::LinkId down =
        topology_.add_duplex(bs, air, config_.wireless_capacity, config_.wireless_buffer,
                             config_.wireless_error_prob, /*wireless=*/true);
    bs_of_[i] = bs;
    air_of_[i] = air;
    wireless_link_of_[i] = down;
  }
}

bool NetworkEnvironment::route_for(CellId cell, Direction direction,
                                   net::Route& route) const {
  return direction == Direction::kDownlink
             ? router_->shortest_path(server_, air_of_.at(cell.value()), route)
             : router_->shortest_path(air_of_.at(cell.value()), server_, route);
}

PortableId NetworkEnvironment::add_portable(CellId start,
                                            std::optional<CellId> home_office) {
  const PortableId id = mobility_.add_portable(start);
  if (home_office.has_value()) {
    mobility_.portable(id).home_office = home_office;
    map_.add_occupant(*home_office, id);
  }
  return id;
}

bool NetworkEnvironment::open_connection(PortableId portable,
                                         const qos::QosRequest& request,
                                         Direction direction) {
  if (has_connection(portable)) {
    throw std::invalid_argument("open_connection: portable already has a connection");
  }
  const CellId cell = mobility_.portable(portable).current_cell;
  if (!route_for(cell, direction, route_)) {
    ++stats_.connections_blocked;
    return false;
  }
  const net::NodeId src = direction == Direction::kDownlink ? server_
                                                            : air_of_[cell.value()];
  const net::NodeId dst = direction == Direction::kDownlink ? air_of_[cell.value()]
                                                            : server_;
  auto admitted = network_->admit(src, dst, route_, request,
                                  mobility_.classify(portable), config_.scheduler);
  if (!admitted) {
    // Conflict resolution (Section 5.2): squeeze static portables'
    // connections back toward their minima and retry once.
    adapt();
    admitted = network_->admit(src, dst, route_, request,
                               mobility_.classify(portable), config_.scheduler);
  }
  if (!admitted) {
    ++stats_.connections_blocked;
    return false;
  }
  if (portable.value() >= sessions_.size()) sessions_.resize(portable.value() + 1);
  // A closed session holds no connection, branch or reservation; its
  // multicast tree keeps its storage for the rebuild below.
  Session& session = sessions_[portable.value()];
  session.open = true;
  session.connection = *admitted;
  session.request = request;
  session.direction = direction;
  session.reserved_bps = 0.0;
  ++stats_.connections_opened;

  note_session_dwell(portable);
  if (mobility_.classify(portable) == qos::MobilityClass::kMobile) {
    place_advance_reservation(portable, session);
  }
  rebuild_multicast(portable, session);
  adapt();
  return true;
}

void NetworkEnvironment::teardown_session(Session& session) {
  if (session.connection.is_valid()) {
    network_->teardown(session.connection);
    session.connection = net::ConnectionId::invalid();
  }
  net::teardown_multicast(*network_, session.multicast);
  cancel_advance_reservation(session);
}

void NetworkEnvironment::close_connection(PortableId portable) {
  Session* session = open_session(portable);
  if (session == nullptr) {
    throw std::invalid_argument("close_connection: portable has no connection");
  }
  teardown_session(*session);
  session->open = false;
  adapt();
}

bool NetworkEnvironment::handoff(PortableId portable, CellId to) {
  Session* open = open_session(portable);
  if (open == nullptr) {
    mobility_.move(portable, to);
    return true;
  }
  Session& session = *open;

  // Was the multicast branch to the new base station warm?
  const net::NodeId new_bs = bs_of_[to.value()];
  for (const net::MulticastBranch& branch : session.multicast.branches) {
    if (branch.target_base_station == new_bs && branch.admitted) {
      ++stats_.warm_handoffs;
      break;
    }
  }

  // Tear the old path down and move. The session's own advance reservation
  // goes back to its pool first, whatever the outcome: a handoff may use the
  // resources reserved for it (Section 5.1), and no other session's.
  const bool predicted_here = session.reserved_in == to;
  cancel_advance_reservation(session);
  if (session.connection.is_valid()) {
    network_->teardown(session.connection);
    session.connection = net::ConnectionId::invalid();
  }
  net::teardown_multicast(*network_, session.multicast);
  mobility_.move(portable, to);

  const bool route = route_for(to, session.direction, route_);
  const net::NodeId src = session.direction == Direction::kDownlink
                              ? server_ : air_of_[to.value()];
  const net::NodeId dst = session.direction == Direction::kDownlink
                              ? air_of_[to.value()] : server_;
  auto admitted = route ? network_->admit(src, dst, route_, session.request,
                                          qos::MobilityClass::kMobile, config_.scheduler)
                        : std::nullopt;
  if (!admitted && route) {
    adapt();  // squeeze and retry
    admitted = network_->admit(src, dst, route_, session.request,
                               qos::MobilityClass::kMobile, config_.scheduler);
  }
  if (predicted_here && admitted) ++stats_.reservations_consumed;

  // Signaling latency (footnote 5): with the reservation in place only the
  // local base station exchange is needed; otherwise the admission control
  // packet makes a full round trip over the new path.
  if (route) {
    const double hop = config_.signaling_hop_latency.to_seconds();
    if (predicted_here) {
      stats_.total_handoff_latency_s += 2.0 * hop;
      ++stats_.local_handoffs;
    } else {
      stats_.total_handoff_latency_s += 2.0 * hop * double(route_.size());
      ++stats_.e2e_handoffs;
    }
  }

  if (!admitted) {
    ++stats_.handoff_drops;
    session.open = false;
    adapt();
    return false;
  }
  session.connection = *admitted;
  note_session_dwell(portable);
  place_advance_reservation(portable, session);
  rebuild_multicast(portable, session);
  adapt();
  return true;
}

void NetworkEnvironment::place_advance_reservation(PortableId portable, Session& session) {
  cancel_advance_reservation(session);
  const prediction::Prediction p = predictor_->predict(mobility_.portable(portable));
  if (!p.next_cell.has_value()) return;
  session.reserved_bps = session.request.bandwidth.b_min;
  network_->link(wireless_link_of_[p.next_cell->value()]).reserve_advance(session.reserved_bps);
  session.reserved_in = *p.next_cell;
  ++stats_.reservations_placed;
}

void NetworkEnvironment::cancel_advance_reservation(Session& session) {
  if (!session.reserved_in.is_valid()) return;
  network_->link(wireless_link_of_[session.reserved_in.value()])
      .release_advance(session.reserved_bps);
  session.reserved_in = CellId::invalid();
}

void NetworkEnvironment::rebuild_multicast(PortableId portable, Session& session) {
  net::teardown_multicast(*network_, session.multicast);
  if (!config_.enable_multicast) {
    session.multicast.branches.clear();
    session.multicast.shared_links.clear();
    return;
  }
  const CellId cell = mobility_.portable(portable).current_cell;
  neighbor_bs_.clear();
  for (CellId n : map_.cell(cell).neighbors) {
    neighbor_bs_.push_back(bs_of_[n.value()]);
  }
  net::setup_neighbor_multicast(*network_, *router_, server_, neighbor_bs_, session.request,
                                session.multicast, config_.scheduler);
  stats_.multicast_branches_admitted += session.multicast.admitted_count();
  stats_.multicast_branches_rejected +=
      session.multicast.branches.size() - session.multicast.admitted_count();
}

void NetworkEnvironment::adapt() {
  // Refresh static/mobile classes on the live connections (portables that
  // sat still past T_th join the adaptable set and, being static, hold no
  // advance reservation — Section 3.4.2), then solve max-min. The scan is
  // skipped while even the longest dwell is short of T_th: then every
  // session classifies mobile and every connection already is.
  if (simulator_->now() - min_entered_ >= mobility_.classifier().threshold()) {
    min_entered_ = sim::SimTime::infinity();
    for (std::size_t p = 0; p < sessions_.size(); ++p) {
      Session& session = sessions_[p];
      if (!session.open || !session.connection.is_valid()) continue;
      const PortableId portable{PortableId::underlying(p)};
      const mobility::Portable& record = mobility_.portable(portable);
      const qos::MobilityClass mobility = mobility_.classify(portable);
      const qos::MobilityClass was = network_->set_mobility(session.connection, mobility);
      if (mobility == qos::MobilityClass::kStatic) {
        cancel_advance_reservation(session);
        // Sec. 3.4.2: a portable that turns static has its cached profile
        // refreshed from the server.
        if (was == qos::MobilityClass::kMobile) {
          universe_->server_for_cell(record.current_cell).refresh_on_static(portable);
        }
      }
      min_entered_ = std::min(min_entered_, record.entered_cell);
    }
  }
  maxmin::resolve_conflicts(*network_, /*static_only=*/true);
  ++stats_.conflict_resolutions;
}

void NetworkEnvironment::note_session_dwell(PortableId portable) {
  min_entered_ = std::min(min_entered_, mobility_.portable(portable).entered_cell);
}

bool NetworkEnvironment::renegotiate(PortableId portable, const qos::QosRequest& request) {
  Session* open = open_session(portable);
  if (open == nullptr) {
    throw std::invalid_argument("renegotiate: portable has no connection");
  }
  Session& session = *open;
  const CellId cell = mobility_.portable(portable).current_cell;
  if (!route_for(cell, session.direction, route_)) return false;

  // Treated as a new connection request: release the old reservation first,
  // then admit the new one; on failure restore the old connection.
  const qos::QosRequest old_request = session.request;
  network_->teardown(session.connection);
  session.connection = net::ConnectionId::invalid();

  const net::NodeId src = session.direction == Direction::kDownlink
                              ? server_ : air_of_[cell.value()];
  const net::NodeId dst = session.direction == Direction::kDownlink
                              ? air_of_[cell.value()] : server_;
  auto admitted = network_->admit(src, dst, route_, request,
                                  mobility_.classify(portable), config_.scheduler);
  if (admitted) {
    session.connection = *admitted;
    session.request = request;
    note_session_dwell(portable);
    // As for a new connection, a mobile session reserves its new b_min in
    // the predicted cell (Section 5.1); the old amount goes back first.
    if (mobility_.classify(portable) == qos::MobilityClass::kMobile) {
      place_advance_reservation(portable, session);
    }
    rebuild_multicast(portable, session);
    adapt();
    return true;
  }
  // Roll back. The old request fit when it was admitted, but a link may
  // have lost capacity since; then the connection is gone for good.
  auto restored = network_->admit(src, dst, route_, old_request,
                                  mobility_.classify(portable), config_.scheduler);
  if (!restored) {
    teardown_session(session);
    session.open = false;
    adapt();
    return false;
  }
  session.connection = *restored;
  note_session_dwell(portable);
  // The restored connection was admitted at b_min: re-divide, so a static
  // session gets back the share it held before the call.
  adapt();
  return false;
}

qos::BitsPerSecond NetworkEnvironment::allocated(PortableId portable) const {
  const net::ConnectionId connection = connection_of(portable);
  return connection.is_valid() ? network_->connection(connection).allocated : 0.0;
}

net::ConnectionId NetworkEnvironment::connection_of(PortableId portable) const {
  const Session* session = open_session(portable);
  return session == nullptr ? net::ConnectionId::invalid() : session->connection;
}

std::pair<CellId, qos::BitsPerSecond> NetworkEnvironment::reservation(
    PortableId portable) const {
  const Session* session = open_session(portable);
  if (session == nullptr || !session->reserved_in.is_valid()) return {CellId::invalid(), 0.0};
  return {session->reserved_in, session->reserved_bps};
}

}  // namespace imrm::core
