#include "net/multicast.h"

#include <algorithm>
#include <stdexcept>

namespace imrm::net {

std::size_t MulticastTree::admitted_count() const {
  return std::size_t(std::count_if(branches.begin(), branches.end(),
                                   [](const MulticastBranch& b) { return b.admitted; }));
}

void setup_neighbor_multicast(NetworkState& network, const Router& router, NodeId source,
                              const std::vector<NodeId>& neighbor_base_stations,
                              const qos::QosRequest& request, MulticastTree& tree,
                              qos::Scheduler scheduler) {
  if (tree.admitted_count() != 0) {
    throw std::invalid_argument("setup_neighbor_multicast: tree still holds admitted branches");
  }
  // The branch only needs the guaranteed minimum: pin b_max to b_min so the
  // reservation never competes for adaptable excess.
  qos::QosRequest branch_request = request;
  branch_request.bandwidth.b_max = branch_request.bandwidth.b_min;

  // shared_links first collects the links of admitted branches, one entry
  // per use, and is then reduced to the links used more than once.
  std::vector<LinkId>& used = tree.shared_links;
  used.clear();
  tree.branches.resize(neighbor_base_stations.size());
  for (std::size_t i = 0; i < neighbor_base_stations.size(); ++i) {
    MulticastBranch& branch = tree.branches[i];
    branch.target_base_station = neighbor_base_stations[i];
    branch.admitted = false;
    branch.reservation = ConnectionId::invalid();
    if (!router.shortest_path(source, branch.target_base_station, branch.route) ||
        branch.route.empty()) {
      continue;
    }
    auto id = network.admit(source, branch.target_base_station, branch.route, branch_request,
                            qos::MobilityClass::kMobile, scheduler);
    if (id) {
      branch.admitted = true;
      branch.reservation = *id;
      used.insert(used.end(), branch.route.begin(), branch.route.end());
    }
  }

  std::sort(used.begin(), used.end());
  std::size_t shared = 0;
  for (auto it = used.begin(); (it = std::adjacent_find(it, used.end())) != used.end();) {
    used[shared++] = *it;  // used by two or more branches
    it = std::upper_bound(it, used.end(), *it);
  }
  used.resize(shared);
}

void teardown_multicast(NetworkState& network, MulticastTree& tree) {
  for (MulticastBranch& branch : tree.branches) {
    if (branch.admitted && branch.reservation.is_valid()) {
      network.teardown(branch.reservation);
      branch.admitted = false;
      branch.reservation = ConnectionId::invalid();
    }
  }
}

}  // namespace imrm::net
