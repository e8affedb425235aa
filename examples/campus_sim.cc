// Campus simulation: a full synthetic office floor (offices, corridors,
// meeting room, cafeteria, lounge) with a walking population of connection
// holders, driven through the wired/wireless resource manager for an 8-hour
// workday.
//
//   $ ./campus_sim [users] [hours] [floors]
//
// With floors > 1 the synthetic floor is stacked into a multi-floor
// building connected by stairwells.
#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/network_environment.h"
#include "mobility/floorplan.h"
#include "mobility/movement.h"
#include "sim/random.h"
#include "stats/table.h"

using namespace imrm;

int main(int argc, char** argv) {
  const int users = argc > 1 ? std::atoi(argv[1]) : 40;
  const double hours = argc > 2 ? std::atof(argv[2]) : 8.0;
  const int floors = argc > 3 ? std::atoi(argv[3]) : 1;

  sim::Simulator simulator;
  core::BackboneConfig config;
  config.wireless_capacity = qos::mbps(1.6);
  mobility::CellMap map;
  if (floors > 1) {
    mobility::BuildingConfig building;
    building.floors = floors;
    map = mobility::building_environment(building);
  } else {
    map = mobility::campus_environment();
  }
  core::NetworkEnvironment env(std::move(map), simulator, config);

  std::cout << "== Campus: " << env.map().size() << " cells, " << users << " users, "
            << hours << " h ==\n";
  for (const auto& cell : env.map().cells()) {
    std::cout << "  " << cell.name << " [" << mobility::to_string(cell.cell_class)
              << "] neighbors:";
    for (auto n : cell.neighbors) std::cout << ' ' << env.map().cell(n).name;
    std::cout << '\n';
  }

  sim::Rng rng(2026);
  const auto offices = env.map().cells_of_class(mobility::CellClass::kOffice);
  const auto corridors = env.map().cells_of_class(mobility::CellClass::kCorridor);

  // Users: 60% office dwellers with a home office, 40% roamers.
  struct Walker {
    core::NetworkEnvironment* env;
    sim::Simulator& simulator;
    sim::Rng rng;
    sim::SimTime horizon;
    void step(net::PortableId p) {
      const auto& me = env->mobility().portable(p);
      const auto cls = env->map().cell(me.current_cell).cell_class;
      const double mean_min = cls == mobility::CellClass::kOffice      ? 40.0
                              : cls == mobility::CellClass::kCafeteria ? 20.0
                              : cls == mobility::CellClass::kMeetingRoom ? 30.0
                                                                         : 2.0;
      const auto at =
          simulator.now() + sim::Duration::minutes(rng.exponential_mean(mean_min));
      if (at > horizon) return;
      simulator.at(at, [this, p] {
        const auto& me2 = env->mobility().portable(p);
        const auto& neighbors = env->map().cell(me2.current_cell).neighbors;
        // Home-biased walk: office dwellers return home from corridors often.
        mobility::CellId next =
            neighbors[std::size_t(rng.uniform_int(0, int(neighbors.size()) - 1))];
        if (me2.home_office.has_value() && rng.bernoulli(0.5)) {
          for (auto n : neighbors) {
            if (n == *me2.home_office) next = n;
          }
        }
        env->handoff(p, next);
        step(p);
      });
    }
  };
  auto walker = std::make_shared<Walker>(
      Walker{&env, simulator, rng.fork(), sim::SimTime::hours(hours)});

  qos::QosRequest request;
  request.bandwidth = {qos::kbps(16), qos::kbps(64)};
  request.delay_bound = 10.0;
  request.jitter_bound = 10.0;
  request.loss_bound = 0.05;
  request.traffic = {8000.0, 8000.0};
  int opened = 0;
  for (int i = 0; i < users; ++i) {
    const bool dweller = i % 5 < 3;
    const auto home = offices[std::size_t(i) % offices.size()];
    const auto start = dweller ? home
                               : corridors[std::size_t(i) % corridors.size()];
    const auto p = env.add_portable(start, dweller ? std::optional(home) : std::nullopt);
    if (env.open_connection(p, request)) ++opened;
    walker->step(p);
  }

  simulator.every(sim::Duration::minutes(5), sim::SimTime::hours(hours),
                  [&] { env.adapt(); });
  simulator.run();

  const auto& s = env.stats();
  stats::Table table({"metric", "value"});
  table.add_row({"connections opened", std::to_string(opened)});
  table.add_row({"connections blocked", std::to_string(s.connections_blocked)});
  table.add_row({"handoffs", std::to_string(s.handoffs)});
  table.add_row({"handoff drops", std::to_string(s.handoff_drops)});
  table.add_row({"drop rate", stats::fmt(s.handoffs ? 100.0 * double(s.handoff_drops) /
                                                          double(s.handoffs)
                                                    : 0.0, 2) + "%"});
  table.add_row({"advance reservations", std::to_string(s.reservations_placed)});
  table.add_row({"reservations consumed", std::to_string(s.reservations_consumed)});
  table.add_row({"adaptations", std::to_string(s.conflict_resolutions)});
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}
