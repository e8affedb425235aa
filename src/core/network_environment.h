// The full mixed wired/wireless environment of Section 4 (Figure 1).
//
// NetworkEnvironment builds the complete substrate: a wired backbone with a
// correspondent server, one base station per cell, a shared wireless link
// per cell, and runs the paper's whole pipeline over it —
//
//   * end-to-end Table 2 admission (forward pass / destination test /
//     reverse-pass reservation) over the routed path for every connection,
//   * multicast branches to all neighboring base stations so a handoff
//     finds warm state (branch admission failures are never fatal),
//   * advance reservation of b_min on the predicted next cell's wireless
//     link (b_resv,l), held per session and cancelled once the portable
//     turns static,
//   * handoff processing: release the session's own reservation, re-route,
//     admit at the new wireless link, drop accounting,
//   * max-min conflict resolution across the whole network for static
//     portables' connections (Section 5.2 via maxmin::resolve_conflicts).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "mobility/manager.h"
#include "net/multicast.h"
#include "net/network_state.h"
#include "prediction/predictor.h"
#include "profiles/universe.h"
#include "sim/simulator.h"

namespace imrm::core {

using mobility::CellId;
using net::PortableId;

/// All wireless traffic is uplink (portable -> base station) or downlink
/// (base station -> portable) — Section 3.1. The direction decides the
/// orientation of the routed path.
enum class Direction { kDownlink, kUplink };

struct BackboneConfig {
  qos::BitsPerSecond wireless_capacity = qos::mbps(1.6);
  qos::BitsPerSecond wired_capacity = qos::mbps(45.0);  // T3 backbone links
  qos::Bits wired_buffer = 8e6;
  qos::Bits wireless_buffer = 2e6;
  double wireless_error_prob = 0.005;
  qos::Scheduler scheduler = qos::Scheduler::kWfq;
  sim::Duration static_threshold = sim::Duration::minutes(3);
  /// Set up multicast branches to neighbor cells on connection open and
  /// after each handoff (Section 4's transient-reduction mechanism).
  bool enable_multicast = true;
  /// Per-hop signaling latency used for the handoff-latency accounting.
  sim::Duration signaling_hop_latency = sim::Duration::millis(2.0);
  /// Number of profile-server zones (Section 3.4.1). Cells are partitioned
  /// round robin unless the map already assigns zones. Portable profiles
  /// migrate between zone servers on boundary crossings.
  std::size_t zones = 1;
};

struct BackboneStats {
  std::size_t connections_opened = 0;
  std::size_t connections_blocked = 0;
  std::size_t handoffs = 0;
  std::size_t handoff_drops = 0;
  std::size_t reservations_placed = 0;
  std::size_t reservations_consumed = 0;  // prediction hits
  std::size_t multicast_branches_admitted = 0;
  std::size_t multicast_branches_rejected = 0;
  /// Handoffs into a cell whose multicast branch was warm (data already
  /// flowing to the new base station's buffers).
  std::size_t warm_handoffs = 0;
  std::size_t conflict_resolutions = 0;
  std::size_t profile_migrations = 0;  // cross-zone profile moves
  /// Signaling latency accounting (footnote 5): a handoff into a cell with
  /// an advance reservation completes with local signaling only (one hop to
  /// the base station and back); an unpredicted handoff pays a full
  /// end-to-end admission round trip over the new path.
  double total_handoff_latency_s = 0.0;
  std::size_t local_handoffs = 0;  // settled with the advance reservation
  std::size_t e2e_handoffs = 0;    // needed full end-to-end admission

  [[nodiscard]] double mean_handoff_latency_s() const {
    const std::size_t n = local_handoffs + e2e_handoffs;
    return n ? total_handoff_latency_s / double(n) : 0.0;
  }
};

class NetworkEnvironment {
 public:
  NetworkEnvironment(mobility::CellMap map, sim::Simulator& simulator,
                     BackboneConfig config);

  PortableId add_portable(CellId start, std::optional<CellId> home_office = std::nullopt);

  /// Opens a connection between the backbone server and the portable
  /// (downlink: server -> portable; uplink: portable -> server), running
  /// full Table 2 admission over the routed path (wired hops + the wireless
  /// cell link). Returns false when admission rejects. Throws
  /// std::invalid_argument when the portable already has a connection.
  bool open_connection(PortableId portable, const qos::QosRequest& request,
                       Direction direction = Direction::kDownlink);
  /// Throws std::invalid_argument when the portable has no connection.
  void close_connection(PortableId portable);

  /// Handoff with re-routing: tears the old path down, returns the
  /// session's advance reservation to its pool, admits the new path,
  /// rebuilds multicast branches. Returns false when the connection was
  /// dropped.
  bool handoff(PortableId portable, CellId to);

  /// Network-initiated adaptation: reclassifies the sessions (a portable
  /// that turned static gives up its advance reservation, Section 3.4.2),
  /// then re-runs max-min conflict resolution over all static portables'
  /// connections.
  void adapt();

  /// Application-initiated renegotiation (Section 5.3: "the network
  /// essentially treats it as a new connection request"): try to move the
  /// connection to new bounds. On success a mobile session's advance
  /// reservation is placed again at the new b_min. On failure the old
  /// connection stays intact, its bounds, reservation and share of the cell
  /// included. If the old bounds no longer fit either (a link lost capacity
  /// since), the session is torn down and false returned. Throws
  /// std::invalid_argument when the portable has no connection.
  bool renegotiate(PortableId portable, const qos::QosRequest& request);

  // ---- introspection ----------------------------------------------------
  [[nodiscard]] const BackboneStats& stats() const { return stats_; }
  [[nodiscard]] const net::NetworkState& network() const { return *network_; }
  [[nodiscard]] net::NetworkState& network_mut() { return *network_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] bool has_connection(PortableId portable) const {
    return open_session(portable) != nullptr;
  }
  [[nodiscard]] qos::BitsPerSecond allocated(PortableId portable) const;
  /// The portable's live connection, or invalid when it has none.
  [[nodiscard]] net::ConnectionId connection_of(PortableId portable) const;
  /// The cell and amount of the portable's advance reservation, or
  /// (invalid, 0) when it holds none.
  [[nodiscard]] std::pair<CellId, qos::BitsPerSecond> reservation(PortableId portable) const;
  [[nodiscard]] net::LinkId wireless_link(CellId cell) const {
    return wireless_link_of_.at(cell.value());
  }
  [[nodiscard]] net::NodeId base_station(CellId cell) const {
    return bs_of_.at(cell.value());
  }
  [[nodiscard]] net::NodeId server() const { return server_; }
  [[nodiscard]] const mobility::CellMap& map() const { return map_; }
  [[nodiscard]] mobility::MobilityManager& mobility() { return mobility_; }
  /// The zone universe (one server per zone; zones = 1 by default).
  [[nodiscard]] profiles::Universe& universe() { return *universe_; }
  /// Convenience: the profile server owning `the server of zone 0` — with a
  /// single zone this is THE profile server (backward-compatible accessor).
  [[nodiscard]] profiles::ProfileServer& profiles() {
    return universe_->server(net::ZoneId{0});
  }

 private:
  /// One portable's session slot. A closed slot keeps its multicast tree's
  /// storage for the portable's next session.
  struct Session {
    bool open = false;
    net::ConnectionId connection = net::ConnectionId::invalid();
    qos::QosRequest request;
    Direction direction = Direction::kDownlink;
    net::MulticastTree multicast;
    CellId reserved_in = CellId::invalid();
    /// The amount reserved in `reserved_in`: the b_min of the request at
    /// placement, which a later renegotiation does not move.
    qos::BitsPerSecond reserved_bps = 0.0;
  };

  void build_topology();
  /// Routes a session in `cell` into `route`; false when unreachable.
  bool route_for(CellId cell, Direction direction, net::Route& route) const;
  /// The portable's session, or null when it has none open.
  [[nodiscard]] const Session* open_session(PortableId portable) const {
    const std::size_t p = portable.value();
    return p < sessions_.size() && sessions_[p].open ? &sessions_[p] : nullptr;
  }
  [[nodiscard]] Session* open_session(PortableId portable) {
    return const_cast<Session*>(std::as_const(*this).open_session(portable));
  }
  void place_advance_reservation(PortableId portable, Session& session);
  void cancel_advance_reservation(Session& session);
  void rebuild_multicast(PortableId portable, Session& session);
  void teardown_session(Session& session);
  /// Lowers min_entered_ to `portable`'s cell entry time; called whenever
  /// its session connection is (re-)admitted.
  void note_session_dwell(PortableId portable);

  mobility::CellMap map_;
  sim::Simulator* simulator_;
  BackboneConfig config_;
  net::Topology topology_;
  std::optional<net::NetworkState> network_;  // built after the topology
  std::optional<net::Router> router_;
  mobility::MobilityManager mobility_;
  std::optional<profiles::Universe> universe_;   // built after zone assignment
  std::optional<prediction::ThreeLevelPredictor> predictor_;

  net::NodeId server_ = net::NodeId::invalid();
  std::vector<net::NodeId> bs_of_;             // per cell id
  std::vector<net::NodeId> air_of_;            // per cell id: the cell's radio side
  std::vector<net::LinkId> wireless_link_of_;  // per cell id (downlink BS -> air)
  std::vector<Session> sessions_;              // per portable id
  net::Route route_;                           // scratch: the route being admitted
  std::vector<net::NodeId> neighbor_bs_;       // scratch: multicast targets
  // At most the earliest entered_cell among the session portables since
  // adapt() last rescanned (moves only raise entered_cell). classify() is
  // `now - entered_cell >= T_th` and rounding is monotone, so while
  // `now - min_entered_ < T_th` no session portable is static.
  sim::SimTime min_entered_ = sim::SimTime::infinity();
  BackboneStats stats_;
};

}  // namespace imrm::core
