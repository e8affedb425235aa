// Whole-network runtime state: per-link bookkeeping plus the connection
// table. This is the substrate both the admission pipeline and the max-min
// adaptation protocol operate on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ids.h"
#include "net/link_state.h"
#include "net/routing.h"
#include "net/topology.h"
#include "qos/admission.h"
#include "qos/flow_spec.h"
#include "sim/flat_map.h"

namespace imrm::net {

struct Connection {
  ConnectionId id = ConnectionId::invalid();
  NodeId source = NodeId::invalid();
  NodeId destination = NodeId::invalid();
  Route route;
  qos::QosRequest request;
  qos::MobilityClass mobility = qos::MobilityClass::kMobile;
  qos::BitsPerSecond allocated = 0.0;  // current end-to-end rate (b_j)
  // Buffer space the reverse pass reserved at each hop of `route`.
  std::vector<qos::Bits> hop_buffers;
};

class NetworkState {
 public:
  explicit NetworkState(const Topology& topology);

  [[nodiscard]] const Topology& topology() const { return *topology_; }
  [[nodiscard]] LinkState& link(LinkId id) { return links_.at(id.value()); }
  [[nodiscard]] const LinkState& link(LinkId id) const { return links_.at(id.value()); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Runs Table 2 admission over `route` and, on success, counts the
  /// connection in on every link, copying the route and its per-hop buffers
  /// into recycled storage.
  /// Returns the new connection id, or nullopt with `last_result()` holding
  /// the rejection detail.
  std::optional<ConnectionId> admit(NodeId src, NodeId dst, const Route& route,
                                    const qos::QosRequest& request,
                                    qos::MobilityClass mobility,
                                    qos::Scheduler scheduler = qos::Scheduler::kWfq,
                                    qos::BitsPerSecond b_stamp = 0.0);

  /// Takes the connection's minimum and buffers back from all its links.
  /// Throws std::out_of_range when it is not live.
  void teardown(ConnectionId id);

  /// Moves a connection's end-to-end allocation (adaptation).
  void set_allocated(ConnectionId id, qos::BitsPerSecond rate);

  /// Updates the connection's static/mobile class (re-classification after
  /// the T_th dwell changes who participates in adaptation) and returns the
  /// class it replaced.
  qos::MobilityClass set_mobility(ConnectionId id, qos::MobilityClass mobility) {
    Connection& conn = connections_[slot(id)];
    const qos::MobilityClass was = conn.mobility;
    if (was == qos::MobilityClass::kStatic) --static_count_;
    if (mobility == qos::MobilityClass::kStatic) ++static_count_;
    conn.mobility = mobility;
    return was;
  }

  /// Throws std::out_of_range when the connection is not live. The
  /// reference is invalidated by admit and teardown.
  [[nodiscard]] const Connection& connection(ConnectionId id) const {
    return connections_[slot(id)];
  }
  [[nodiscard]] bool has_connection(ConnectionId id) const {
    return slot_of_.contains(id.value());
  }
  [[nodiscard]] std::size_t connection_count() const { return slot_of_.size(); }
  /// Live connection ids, ascending. Invalidated by admit and teardown.
  /// Drops the ids teardown left behind first, so two threads must not call
  /// it on one NetworkState at once.
  [[nodiscard]] const std::vector<ConnectionId>& connection_ids() const {
    if (dead_ids_ != 0) drop_dead_ids();
    return ids_;
  }
  /// Live connections of class kStatic: how many max-min adaptation moves.
  [[nodiscard]] std::size_t static_connection_count() const { return static_count_; }

  [[nodiscard]] const qos::AdmissionResult& last_result() const { return last_result_; }

 private:
  /// Storage slot of a live connection; throws std::out_of_range otherwise.
  [[nodiscard]] std::uint32_t slot(ConnectionId id) const;
  /// Drops the ids of torn-down connections from `ids_`.
  void drop_dead_ids() const;

  const Topology* topology_;
  std::vector<LinkState> links_;
  // Connection storage. A torn-down connection's slot, route capacity
  // included, is reused by a later admit, so steady churn allocates nothing.
  std::vector<Connection> connections_;
  std::vector<std::uint32_t> free_slots_;
  sim::FlatMap<ConnectionId::underlying, std::uint32_t> slot_of_;  // live id -> slot
  // Ids issued, ascending: the live ones plus `dead_ids_` that teardown left
  // in place instead of shifting the tail, dropped in one pass later.
  mutable std::vector<ConnectionId> ids_;
  mutable std::size_t dead_ids_ = 0;
  std::size_t static_count_ = 0;  // live connections whose class is kStatic
  std::vector<qos::LinkSnapshot> snapshots_;  // admit's per-hop scratch
  qos::AdmissionResult last_result_;
  ConnectionId::underlying next_connection_ = 0;
};

}  // namespace imrm::net
