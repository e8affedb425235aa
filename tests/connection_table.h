// Test helper: per-link views read off NetworkState's connection table,
// which is the one record of which connections cross which link.
#pragma once

#include <cstddef>

#include "net/ids.h"
#include "net/network_state.h"

namespace imrm::test_support {

/// Calls fn(connection, hop) for every live connection whose route crosses
/// `link`, in ascending id order; `hop` is the link's index in the route.
template <typename Fn>
void for_each_connection_on(const net::NetworkState& network, net::LinkId link, Fn&& fn) {
  for (const net::ConnectionId id : network.connection_ids()) {
    const net::Connection& conn = network.connection(id);
    for (std::size_t hop = 0; hop < conn.route.size(); ++hop) {
      if (conn.route[hop] == link) fn(conn, hop);
    }
  }
}

/// Sum of the end-to-end allocations of the connections crossing `link`.
inline double allocated_on(const net::NetworkState& network, net::LinkId link) {
  double total = 0.0;
  for_each_connection_on(network, link, [&total](const net::Connection& conn, std::size_t) {
    total += conn.allocated;
  });
  return total;
}

}  // namespace imrm::test_support
