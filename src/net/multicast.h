// Multicast routes to neighboring cells (Section 4).
//
// To reduce handoff transients, the backbone sets up multicast branches from
// the connection's wired path to every neighboring base station, so packets
// can be delivered to pre-allocated buffer space there. Admission is run on
// each branch with minimum-bound QoS, but branch failures never terminate
// the main connection.
#pragma once

#include <vector>

#include "net/ids.h"
#include "net/network_state.h"
#include "net/routing.h"

namespace imrm::net {

struct MulticastBranch {
  NodeId target_base_station = NodeId::invalid();
  Route route;                 // wired route from source to the neighbor BS
  bool admitted = false;       // end-to-end test outcome for the branch
  ConnectionId reservation = ConnectionId::invalid();  // installed if admitted
};

struct MulticastTree {
  std::vector<MulticastBranch> branches;
  /// The set of links shared by at least two admitted branches (the actual
  /// multicast fan-out points). Useful for reporting wiring efficiency.
  std::vector<LinkId> shared_links;

  [[nodiscard]] std::size_t admitted_count() const;
};

/// Builds and (where possible) reserves multicast branches from `source` to
/// each neighbor base station into `tree`, replacing its contents. Uses the
/// *minimum* pre-negotiated QoS bound (b_min only) since the branch exists
/// purely to warm up a possible handoff. Branch admission failures are
/// recorded, never fatal. The tree's vectors and branch routes keep their
/// capacity, so rebuilding one tree allocates nothing once it has grown.
/// Throws std::invalid_argument when `tree` still holds an admitted branch
/// (tear it down first).
void setup_neighbor_multicast(NetworkState& network, const Router& router, NodeId source,
                              const std::vector<NodeId>& neighbor_base_stations,
                              const qos::QosRequest& request, MulticastTree& tree,
                              qos::Scheduler scheduler = qos::Scheduler::kWfq);

/// Tears down every admitted branch reservation in the tree.
void teardown_multicast(NetworkState& network, MulticastTree& tree);

}  // namespace imrm::net
