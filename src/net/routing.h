// Shortest-path routing over the backbone.
//
// Section 4 assumes "an appropriate route found by a routing algorithm";
// we provide Dijkstra with pluggable link weights (hop count by default;
// inverse-capacity available for capacity-aware routes).
//
// Routes are memoized, one Dijkstra predecessor tree per source. Topology is
// append-only, so a tree holds until the node or link count grows, when the
// memo is dropped. Weight functions must be pure.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/ids.h"
#include "net/topology.h"

namespace imrm::net {

/// A route is the ordered list of directed links from source to destination.
using Route = std::vector<LinkId>;

/// Not thread-safe, const queries included: they fill the memo.
class Router {
 public:
  using WeightFn = std::function<double(const Link&)>;

  explicit Router(const Topology& topology, WeightFn weight = hop_weight())
      : topology_(&topology), weight_(std::move(weight)) {}

  /// Writes the shortest path from `src` to `dst` into `route` (reusing its
  /// capacity) and returns true, or returns false with `route` empty when
  /// `dst` is unreachable. Throws std::out_of_range when either node is not
  /// in the topology.
  bool shortest_path(NodeId src, NodeId dst, Route& route) const;

  /// The same into a fresh route; nullopt if unreachable.
  [[nodiscard]] std::optional<Route> shortest_path(NodeId src, NodeId dst) const;

  [[nodiscard]] static WeightFn hop_weight() {
    return [](const Link&) { return 1.0; };
  }
  [[nodiscard]] static WeightFn inverse_capacity_weight() {
    return [](const Link& l) { return 1.0 / l.capacity; };
  }

 private:
  /// Predecessor tree from `src`: entry v is the last link of the shortest
  /// route to v (invalid for `src` itself and for unreachable nodes).
  const std::vector<LinkId>& tree_from(NodeId src) const;

  const Topology* topology_;
  WeightFn weight_;
  /// Rebuilds the out-link table and empties the trees when the topology
  /// has grown since the last query.
  void refresh() const;

  // Per-source trees, empty until queried; valid for memo_size_ = (nodes, links).
  mutable std::vector<std::vector<LinkId>> trees_;
  // Out-links of every node, grouped by node in link id order: node v's are
  // out_links_[out_begin_[v] .. out_begin_[v + 1]). Valid with the trees.
  mutable std::vector<std::size_t> out_begin_;
  mutable std::vector<LinkId> out_links_;
  mutable std::pair<std::size_t, std::size_t> memo_size_{0, 0};
};

/// Nodes visited by a route, starting at the route's source.
[[nodiscard]] std::vector<NodeId> route_nodes(const Topology& topology, const Route& route);

}  // namespace imrm::net
