// Network topology: a wired backbone of switches plus base stations, each
// base station owning one wireless "cell link" shared by the portables in
// its cell (Section 3.1).
//
// Links are directed; add_duplex() creates the usual forward/backward pair.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/ids.h"
#include "qos/flow_spec.h"

namespace imrm::net {

enum class NodeKind { kSwitch, kBaseStation, kHost };

struct Node {
  NodeId id;
  NodeKind kind = NodeKind::kSwitch;
  std::string name;
};

struct Link {
  LinkId id;
  NodeId from;
  NodeId to;
  qos::BitsPerSecond capacity = 0.0;
  qos::Bits buffer_capacity = 0.0;
  double error_prob = 0.0;  // p_e,l — nonzero mainly on wireless links
  bool wireless = false;
};

class Topology {
 public:
  /// Reserves room for `nodes` nodes and `links` directed links, so a
  /// builder that knows its size grows each table once.
  void reserve(std::size_t nodes, std::size_t links);

  NodeId add_node(NodeKind kind, std::string name = {});

  LinkId add_link(NodeId from, NodeId to, qos::BitsPerSecond capacity,
                  qos::Bits buffer_capacity, double error_prob = 0.0,
                  bool wireless = false);

  /// Adds both directions with identical parameters; returns the forward id
  /// (the backward link is the next id).
  LinkId add_duplex(NodeId a, NodeId b, qos::BitsPerSecond capacity,
                    qos::Bits buffer_capacity, double error_prob = 0.0,
                    bool wireless = false);

  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id.value()); }
  [[nodiscard]] const Link& link(LinkId id) const { return links_.at(id.value()); }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
};

}  // namespace imrm::net
