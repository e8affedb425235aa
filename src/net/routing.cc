#include "net/routing.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>

namespace imrm::net {

void Router::refresh() const {
  const std::size_t n = topology_->node_count();
  if (std::pair(n, topology_->link_count()) == memo_size_) return;
  memo_size_ = {n, topology_->link_count()};
  trees_.assign(n, {});
  // Counting sort of the links by source node. After the prefix sum entry v
  // is the end of v's run; placing the links last to first moves it down to
  // the run's start and leaves each run in link id order.
  const std::vector<Link>& links = topology_->links();
  out_begin_.assign(n + 1, 0);
  for (const Link& link : links) ++out_begin_[link.from.value()];
  for (std::size_t v = 1; v <= n; ++v) out_begin_[v] += out_begin_[v - 1];
  out_links_.resize(links.size());
  for (auto link = links.rbegin(); link != links.rend(); ++link) {
    out_links_[--out_begin_[link->from.value()]] = link->id;
  }
}

const std::vector<LinkId>& Router::tree_from(NodeId src) const {
  struct QueueItem {
    double dist;
    NodeId node;
    bool operator<(const QueueItem& rhs) const { return dist > rhs.dist; }  // min-heap
  };
  refresh();
  const std::size_t n = topology_->node_count();
  std::vector<LinkId>& via = trees_[src.value()];
  if (!via.empty()) return via;

  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  via.assign(n, LinkId::invalid());

  std::priority_queue<QueueItem> heap;
  dist[src.value()] = 0.0;
  heap.push({0.0, src});

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u.value()]) continue;  // stale entry; u is already settled
    for (std::size_t i = out_begin_[u.value()]; i < out_begin_[u.value() + 1]; ++i) {
      const LinkId lid = out_links_[i];
      const Link& link = topology_->link(lid);
      const double w = weight_(link);
      assert(w >= 0.0);
      const double nd = d + w;
      if (nd < dist[link.to.value()]) {
        dist[link.to.value()] = nd;
        via[link.to.value()] = lid;
        heap.push({nd, link.to});
      }
    }
  }
  return via;
}

bool Router::shortest_path(NodeId src, NodeId dst, Route& route) const {
  if (std::max(src.value(), dst.value()) >= topology_->node_count()) {
    throw std::out_of_range("Router::shortest_path: node not in topology");
  }
  route.clear();
  const std::vector<LinkId>& via = tree_from(src);
  if (dst != src && !via[dst.value()].is_valid()) return false;
  // Walk the tree back from `dst` twice: once to size the route, once to
  // fill it from its last link to its first.
  std::size_t hops = 0;
  for (NodeId cur = dst; cur != src; cur = topology_->link(via[cur.value()]).from) ++hops;
  route.resize(hops);
  for (NodeId cur = dst; cur != src; cur = topology_->link(route[hops]).from) {
    route[--hops] = via[cur.value()];
  }
  return true;
}

std::optional<Route> Router::shortest_path(NodeId src, NodeId dst) const {
  Route route;
  if (!shortest_path(src, dst, route)) return std::nullopt;
  return route;
}

std::vector<NodeId> route_nodes(const Topology& topology, const Route& route) {
  std::vector<NodeId> nodes;
  if (route.empty()) return nodes;
  nodes.push_back(topology.link(route.front()).from);
  for (LinkId lid : route) {
    assert(topology.link(lid).from == nodes.back() && "route links must chain");
    nodes.push_back(topology.link(lid).to);
  }
  return nodes;
}

}  // namespace imrm::net
