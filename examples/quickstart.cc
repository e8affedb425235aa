// Quickstart: the smallest useful program against the public API.
//
// Builds the paper's Figure 4 office environment over a wired backbone,
// puts one user with an adaptive 16..64 kbps connection in the corridor,
// lets them settle (static -> QoS upgrade), then walks them into their
// office (handoff with advance reservation). Exits 1 when that story
// breaks: a handoff dropped, or no reservation consumed on entering A.
//
//   $ ./quickstart
#include <iostream>

#include "core/network_environment.h"
#include "mobility/floorplan.h"

using namespace imrm;

int main() {
  // 1. A simulator and the indoor environment: cells, classes, neighbors,
  //    one base station and wireless link per cell.
  sim::Simulator simulator;
  core::BackboneConfig config;
  config.wireless_capacity = qos::mbps(1.6);            // wireless cell throughput
  config.static_threshold = sim::Duration::minutes(3);  // T_th
  core::NetworkEnvironment env(mobility::fig4_environment(), simulator, config);
  const auto cells = mobility::fig4_cells(env.map());

  // 2. A portable whose home office is A, starting in corridor C.
  const auto user = env.add_portable(cells.c, /*home_office=*/cells.a);

  // 3. Open a connection with loose QoS bounds [16, 64] kbps.
  qos::QosRequest request;
  request.bandwidth = {qos::kbps(16), qos::kbps(64)};
  request.delay_bound = 10.0;
  request.jitter_bound = 10.0;
  request.loss_bound = 0.05;
  request.traffic = {8000.0, 8000.0};
  if (!env.open_connection(user, request)) {
    std::cerr << "admission failed\n";
    return 1;
  }
  std::cout << "connection open, allocated " << env.allocated(user) / 1e3
            << " kbps (the guaranteed minimum)\n";

  // 4. Let the user dwell: after T_th they are classified static and the
  //    network upgrades the allocation toward b_max.
  simulator.run_until(sim::SimTime::minutes(5));
  env.adapt();
  std::cout << "after 5 min, user is "
            << (env.mobility().classify(user) == qos::MobilityClass::kStatic ? "static"
                                                                             : "mobile")
            << ", allocated " << env.allocated(user) / 1e3 << " kbps\n";

  // 5. Walk toward the office: D is the corridor junction. The moment the
  //    user moves they are mobile again; the three-level predictor places an
  //    advance reservation in the next predicted cell (their office, A).
  env.handoff(user, cells.d);
  std::cout << "moved to corridor D; reservation waiting in office A: "
            << env.network().link(env.wireless_link(cells.a)).advance_reserved() / 1e3
            << " kbps\n";

  // 6. Enter the office: the handoff uses the reservation; no QoS
  //    renegotiation was needed at any point.
  env.handoff(user, cells.a);
  const core::BackboneStats& stats = env.stats();
  std::cout << "entered office A; allocated " << env.allocated(user) / 1e3
            << " kbps, handoff drops so far: " << stats.handoff_drops << '\n';

  std::cout << "stats: " << stats.handoffs << " handoffs, " << stats.reservations_placed
            << " advance reservations, " << stats.reservations_consumed
            << " reservations consumed\n";
  return stats.handoff_drops == 0 && stats.reservations_consumed == 1 ? 0 : 1;
}
