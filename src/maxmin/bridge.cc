#include "maxmin/bridge.h"

#include <limits>

namespace imrm::maxmin {

ExtractedProblem extract_problem(const net::NetworkState& network, bool static_only) {
  ExtractedProblem out;
  if (static_only && network.static_connection_count() == 0) return out;

  // Problem index per link id, in first-appearance order; kUnseen until then.
  constexpr LinkIndex kUnseen = std::numeric_limits<LinkIndex>::max();
  std::vector<LinkIndex> link_index(network.link_count(), kUnseen);
  auto intern_link = [&](net::LinkId id) -> LinkIndex {
    LinkIndex& li = link_index.at(id.value());
    if (li != kUnseen) return li;
    li = out.problem.links.size();
    out.link_order.push_back(id);
    out.problem.links.push_back(
        ProblemLink{std::max(network.link(id).excess_available(), 0.0)});
    return li;
  };

  for (net::ConnectionId cid : network.connection_ids()) {
    const net::Connection& conn = network.connection(cid);
    if (static_only && conn.mobility != qos::MobilityClass::kStatic) continue;
    ProblemConnection pc;
    pc.demand = conn.request.bandwidth.headroom();
    pc.path.reserve(conn.route.size());
    for (net::LinkId lid : conn.route) pc.path.push_back(intern_link(lid));
    out.problem.connections.push_back(std::move(pc));
    out.connection_order.push_back(cid);
  }
  return out;
}

std::vector<double> resolve_conflicts(net::NetworkState& network, bool static_only) {
  const ExtractedProblem extracted = extract_problem(network, static_only);
  if (extracted.connection_order.empty()) return {};
  const WaterfillResult solved = waterfill(extracted.problem);
  for (std::size_t i = 0; i < extracted.connection_order.size(); ++i) {
    const net::ConnectionId cid = extracted.connection_order[i];
    const double b_min = network.connection(cid).request.bandwidth.b_min;
    network.set_allocated(cid, b_min + solved.rates[i]);
  }
  return solved.rates;
}

}  // namespace imrm::maxmin
