#include "net/network_state.h"

#include <algorithm>
#include <cassert>

namespace imrm::net {

NetworkState::NetworkState(const Topology& topology) : topology_(&topology) {
  links_.reserve(topology.link_count());
  for (const Link& l : topology.links()) {
    links_.emplace_back(l.id, l.capacity, l.buffer_capacity, l.error_prob);
  }
}

std::optional<ConnectionId> NetworkState::admit(NodeId src, NodeId dst, Route route,
                                                const qos::QosRequest& request,
                                                qos::MobilityClass mobility,
                                                qos::Scheduler scheduler,
                                                qos::BitsPerSecond b_stamp,
                                                qos::ConnectionKind kind) {
  std::vector<qos::LinkSnapshot> snapshots;
  snapshots.reserve(route.size());
  for (LinkId lid : route) snapshots.push_back(link(lid).snapshot());

  const qos::AdmissionPipeline pipeline(scheduler, mobility);
  last_result_ = pipeline.admit(request, snapshots, b_stamp, kind);
  if (!last_result_.accepted) return std::nullopt;

  const ConnectionId id{next_connection_++};
  for (std::size_t l = 0; l < route.size(); ++l) {
    LinkState& ls = link(route[l]);
    // A handoff consumes the advance reservation that was made for it.
    if (kind == qos::ConnectionKind::kHandoff) {
      ls.release_advance(std::min(ls.advance_reserved(), request.bandwidth.b_min));
    }
    ls.add_connection(id, request.bandwidth, last_result_.allocated_bandwidth,
                      last_result_.hops[l].buffer);
  }
  connections_.emplace(
      id, Connection{id, src, dst, std::move(route), request, mobility,
                     last_result_.allocated_bandwidth});
  ids_.push_back(id);  // ids are issued in ascending order
  if (mobility == qos::MobilityClass::kStatic) ++static_count_;
  return id;
}

void NetworkState::teardown(ConnectionId id) {
  const auto it = connections_.find(id);
  assert(it != connections_.end());
  for (LinkId lid : it->second.route) link(lid).remove_connection(id);
  if (it->second.mobility == qos::MobilityClass::kStatic) --static_count_;
  connections_.erase(it);
  ids_.erase(std::lower_bound(ids_.begin(), ids_.end(), id));
}

void NetworkState::set_allocated(ConnectionId id, qos::BitsPerSecond rate) {
  auto& conn = connections_.at(id);
  for (LinkId lid : conn.route) link(lid).set_allocated(id, rate);
  conn.allocated = rate;
}

}  // namespace imrm::net
