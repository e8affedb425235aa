#include "net/network_state.h"

#include <cassert>
#include <stdexcept>

namespace imrm::net {

NetworkState::NetworkState(const Topology& topology) : topology_(&topology) {
  links_.reserve(topology.link_count());
  for (const Link& l : topology.links()) {
    links_.emplace_back(l.capacity, l.buffer_capacity, l.error_prob);
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
  std::uint32_t s;
  if (free_slots_.empty()) {
    // The element, route included, is built before the store grows, so a
    // `route` that lives in this store is read while still valid.
    s = std::uint32_t(connections_.size());
    connections_.push_back(Connection{id, src, dst, route, request, mobility,
                                      last_result_.allocated_bandwidth, {}});
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
  Connection& conn = connections_[s];
  conn.hop_buffers.resize(conn.route.size());
  for (std::size_t l = 0; l < conn.route.size(); ++l) {
    conn.hop_buffers[l] = last_result_.hops[l].buffer;
    link(conn.route[l]).attach(request.bandwidth.b_min, conn.hop_buffers[l]);
  }
  slot_of_.insert(id.value(), s);
  ids_.push_back(id);  // ids are issued in ascending order
  if (mobility == qos::MobilityClass::kStatic) ++static_count_;
  return id;
}

void NetworkState::teardown(ConnectionId id) {
  const std::uint32_t s = slot(id);
  Connection& conn = connections_[s];
  for (std::size_t l = 0; l < conn.route.size(); ++l) {
    link(conn.route[l]).detach(conn.request.bandwidth.b_min, conn.hop_buffers[l]);
  }
  if (conn.mobility == qos::MobilityClass::kStatic) --static_count_;
  conn.id = ConnectionId::invalid();
  slot_of_.erase(id.value());
  free_slots_.push_back(s);
  // The id stays in `ids_` until a read or until the dead outnumber the
  // live, so each teardown costs O(1) amortized instead of a shift.
  if (++dead_ids_ > slot_of_.size()) drop_dead_ids();
}

void NetworkState::drop_dead_ids() const {
  std::erase_if(ids_, [this](ConnectionId id) { return !slot_of_.contains(id.value()); });
  dead_ids_ = 0;
}

void NetworkState::set_allocated(ConnectionId id, qos::BitsPerSecond rate) {
  Connection& conn = connections_[slot(id)];
  assert(rate >= conn.request.bandwidth.b_min - 1e-9 &&
         rate <= conn.request.bandwidth.b_max + 1e-9);
  conn.allocated = rate;
}

}  // namespace imrm::net
