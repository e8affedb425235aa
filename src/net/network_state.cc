#include "net/network_state.h"

#include <algorithm>
#include <stdexcept>

namespace imrm::net {

NetworkState::NetworkState(const Topology& topology) : topology_(&topology) {
  links_.reserve(topology.link_count());
  for (const Link& l : topology.links()) {
    links_.emplace_back(l.id, l.capacity, l.buffer_capacity, l.error_prob);
  }
}

std::uint32_t NetworkState::slot(ConnectionId id) const {
  const std::uint32_t* s = slot_of_.find(id.value());
  if (s == nullptr) throw std::out_of_range("NetworkState: no live connection with that id");
  return *s;
}

std::optional<ConnectionId> NetworkState::admit(NodeId src, NodeId dst, const Route& route,
                                                const qos::QosRequest& request,
                                                qos::MobilityClass mobility,
                                                qos::Scheduler scheduler,
                                                qos::BitsPerSecond b_stamp) {
  snapshots_.clear();
  for (LinkId lid : route) snapshots_.push_back(link(lid).snapshot());

  const qos::AdmissionPipeline pipeline(scheduler, mobility);
  pipeline.admit(request, snapshots_, last_result_, b_stamp);
  if (!last_result_.accepted) return std::nullopt;

  const ConnectionId id{next_connection_++};
  for (std::size_t l = 0; l < route.size(); ++l) {
    link(route[l]).add_connection(id, request.bandwidth, last_result_.allocated_bandwidth,
                                  last_result_.hops[l].buffer);
  }
  std::uint32_t s;
  if (free_slots_.empty()) {
    // The element, route included, is built before the store grows, so a
    // `route` that lives in this store is read while still valid.
    s = std::uint32_t(connections_.size());
    connections_.push_back(Connection{id, src, dst, route, request, mobility,
                                      last_result_.allocated_bandwidth});
  } else {
    s = free_slots_.back();
    free_slots_.pop_back();
    Connection& conn = connections_[s];
    conn.id = id;
    conn.source = src;
    conn.destination = dst;
    conn.route.assign(route.begin(), route.end());
    conn.request = request;
    conn.mobility = mobility;
    conn.allocated = last_result_.allocated_bandwidth;
  }
  slot_of_.insert(id.value(), s);
  ids_.push_back(id);  // ids are issued in ascending order
  if (mobility == qos::MobilityClass::kStatic) ++static_count_;
  return id;
}

void NetworkState::teardown(ConnectionId id) {
  const std::uint32_t s = slot(id);
  Connection& conn = connections_[s];
  for (LinkId lid : conn.route) link(lid).remove_connection(id);
  if (conn.mobility == qos::MobilityClass::kStatic) --static_count_;
  conn.id = ConnectionId::invalid();
  slot_of_.erase(id.value());
  free_slots_.push_back(s);
  ids_.erase(std::lower_bound(ids_.begin(), ids_.end(), id));
}

void NetworkState::set_allocated(ConnectionId id, qos::BitsPerSecond rate) {
  Connection& conn = connections_[slot(id)];
  for (LinkId lid : conn.route) link(lid).set_allocated(id, rate);
  conn.allocated = rate;
}

}  // namespace imrm::net
