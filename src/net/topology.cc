#include "net/topology.h"

#include <cassert>
#include <utility>

namespace imrm::net {

void Topology::reserve(std::size_t nodes, std::size_t links) {
  nodes_.reserve(nodes);
  links_.reserve(links);
}

NodeId Topology::add_node(NodeKind kind, std::string name) {
  const NodeId id{static_cast<NodeId::underlying>(nodes_.size())};
  if (name.empty()) name = std::string("n").append(std::to_string(id.value()));
  nodes_.push_back(Node{id, kind, std::move(name)});
  return id;
}

LinkId Topology::add_link(NodeId from, NodeId to, qos::BitsPerSecond capacity,
                          qos::Bits buffer_capacity, double error_prob, bool wireless) {
  assert(from.value() < nodes_.size() && to.value() < nodes_.size());
  assert(capacity > 0.0);
  const LinkId id{static_cast<LinkId::underlying>(links_.size())};
  links_.push_back(Link{id, from, to, capacity, buffer_capacity, error_prob, wireless});
  return id;
}

LinkId Topology::add_duplex(NodeId a, NodeId b, qos::BitsPerSecond capacity,
                            qos::Bits buffer_capacity, double error_prob, bool wireless) {
  const LinkId forward = add_link(a, b, capacity, buffer_capacity, error_prob, wireless);
  add_link(b, a, capacity, buffer_capacity, error_prob, wireless);
  return forward;
}

}  // namespace imrm::net
