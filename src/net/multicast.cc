#include "net/multicast.h"

#include <algorithm>

namespace imrm::net {

std::size_t MulticastTree::admitted_count() const {
  return std::size_t(std::count_if(branches.begin(), branches.end(),
                                   [](const MulticastBranch& b) { return b.admitted; }));
}

MulticastTree setup_neighbor_multicast(NetworkState& network, const Router& router,
                                       NodeId source,
                                       const std::vector<NodeId>& neighbor_base_stations,
                                       const qos::QosRequest& request,
                                       qos::Scheduler scheduler) {
  MulticastTree tree;
  // The branch only needs the guaranteed minimum: pin b_max to b_min so the
  // reservation never competes for adaptable excess.
  qos::QosRequest branch_request = request;
  branch_request.bandwidth.b_max = branch_request.bandwidth.b_min;

  std::vector<LinkId> used;  // links of admitted branches, one entry per use
  for (NodeId bs : neighbor_base_stations) {
    MulticastBranch branch;
    branch.target_base_station = bs;
    if (auto route = router.shortest_path(source, bs); route && !route->empty()) {
      branch.route = std::move(*route);
      auto id = network.admit(source, bs, branch.route, branch_request,
                              qos::MobilityClass::kMobile, scheduler);
      if (id) {
        branch.admitted = true;
        branch.reservation = *id;
        used.insert(used.end(), branch.route.begin(), branch.route.end());
      }
    }
    tree.branches.push_back(std::move(branch));
  }

  std::sort(used.begin(), used.end());
  for (auto it = used.begin(); (it = std::adjacent_find(it, used.end())) != used.end();) {
    tree.shared_links.push_back(*it);  // used by two or more branches
    it = std::upper_bound(it, used.end(), *it);
  }
  return tree;
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
