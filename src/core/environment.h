// The integrated indoor mobile computing environment (Figure 1).
//
// Ties the substrates together: a cell map with per-cell wireless bandwidth
// accounts, a mobility manager with the static/mobile classifier, a zone
// profile server feeding the three-level next-cell predictor, per-portable
// advance reservations, the B_dyn pool for unforeseen events, and
// QoS-bounds adaptation (max-min redistribution of excess bandwidth among
// static portables' connections).
//
// Control flow on a handoff (Section 4):
//  1. the old base station releases the connection and updates profiles,
//  2. the new base station runs handoff admission — the portable's advance
//     reservation and the anonymous pool are usable; failure drops the
//     connection (counted),
//  3. the portable is re-classified mobile; its next cell is predicted and
//     the minimum bandwidth advance-reserved there,
//  4. adaptation redistributes the excess in both affected cells.
#pragma once

#include <optional>
#include <unordered_map>

#include "mobility/manager.h"
#include "prediction/predictor.h"
#include "profiles/profile_server.h"
#include "reservation/directory.h"
#include "sim/simulator.h"

namespace imrm::core {

using mobility::CellId;
using net::PortableId;

struct EnvironmentConfig {
  qos::BitsPerSecond cell_capacity = qos::mbps(1.6);
  /// Fraction of capacity set aside as the B_dyn pool (paper: 5% - 20%).
  double b_dyn_fraction = 0.10;
  /// T_th: dwell time after which a portable counts as static.
  sim::Duration static_threshold = sim::Duration::minutes(3);
};

struct EnvironmentStats {
  std::size_t connections_opened = 0;
  std::size_t connections_blocked = 0;   // new-connection admission failures
  std::size_t handoffs = 0;
  std::size_t handoff_drops = 0;         // connections dropped on handoff
  std::size_t adaptations = 0;           // excess redistributions executed
  std::size_t reservations_placed = 0;   // advance reservations made
  std::size_t predictions_correct = 0;   // advance reservation was consumed
};

class Environment {
 public:
  Environment(mobility::CellMap map, sim::Simulator& simulator, EnvironmentConfig config);

  /// Adds a portable in `start`, optionally marking it a regular occupant of
  /// an office (its "home office").
  PortableId add_portable(CellId start, std::optional<CellId> home_office = std::nullopt);

  /// Opens a QoS-bounded connection for the portable in its current cell.
  /// Admission reserves b_min; adaptation may later raise the allocation
  /// toward b_max while the portable is static. Returns success.
  bool open_connection(PortableId portable, qos::BandwidthRange bounds);
  void close_connection(PortableId portable);

  /// Moves the portable to a neighboring cell, running the full handoff
  /// pipeline. Returns false when the portable's connection was dropped.
  bool handoff(PortableId portable, CellId to);

  /// Application-initiated renegotiation (Section 5.3): the network treats
  /// it as a new connection request for the new bounds; on failure the old
  /// connection is kept untouched. Returns success.
  bool renegotiate(PortableId portable, qos::BandwidthRange bounds);

  /// Re-runs classification, advance reservation and adaptation everywhere
  /// (normally invoked by the periodic refresh, exposed for tests).
  void refresh();

  // ---- introspection ----------------------------------------------------
  [[nodiscard]] const EnvironmentStats& stats() const { return stats_; }
  [[nodiscard]] qos::BitsPerSecond allocated(PortableId portable) const;
  [[nodiscard]] bool has_connection(PortableId portable) const {
    return connections_.contains(portable);
  }
  [[nodiscard]] qos::MobilityClass classify(PortableId portable) const {
    return mobility_.classify(portable);
  }
  [[nodiscard]] const mobility::CellMap& map() const { return map_; }
  [[nodiscard]] mobility::MobilityManager& mobility() { return mobility_; }
  [[nodiscard]] profiles::ProfileServer& profiles() { return profiles_; }
  [[nodiscard]] const reservation::CellBandwidth& cell(CellId id) const {
    return directory_.at(id);
  }
  [[nodiscard]] sim::Simulator& simulator() { return *simulator_; }
  [[nodiscard]] const prediction::ThreeLevelPredictor& predictor() const {
    return predictor_;
  }

 private:
  struct ConnectionState {
    qos::BandwidthRange bounds;
    qos::BitsPerSecond allocated = 0.0;
    CellId reserved_in = CellId::invalid();  // current advance reservation
  };

  void place_advance_reservation(PortableId portable);
  void cancel_advance_reservation(PortableId portable);
  /// Conflict resolution: squeezes all connections in the cell to b_min and
  /// returns the connection holders present there.
  std::vector<PortableId> squeeze_cell(CellId cell);
  void adapt_cell(CellId cell);
  void update_b_dyn(CellId cell);

  mobility::CellMap map_;
  sim::Simulator* simulator_;
  EnvironmentConfig config_;
  mobility::MobilityManager mobility_;
  profiles::ProfileServer profiles_;
  prediction::ThreeLevelPredictor predictor_;
  reservation::ReservationDirectory directory_;
  std::unordered_map<PortableId, ConnectionState> connections_;
  EnvironmentStats stats_;
};

}  // namespace imrm::core
