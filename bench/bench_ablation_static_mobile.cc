// Ablation: the static/mobile threshold T_th (Section 3.4.2).
//
// A small T_th upgrades dwellers to "static" quickly — they get QoS
// upgrades toward b_max and give up their advance reservations — but
// misclassifies users who move again soon, whose sudden handoffs then find
// no reservation waiting. A large T_th keeps everyone "mobile": allocations
// pinned at b_min and reservations placed everywhere.
//
// Workload: Figure 4 environment, a population of walkers with heavy-tailed
// dwell times (a mix of short hops and long office stays), each holding one
// adaptive 16..64 kbps connection, run through core::NetworkEnvironment.
#include <iostream>
#include <memory>

#include "core/network_environment.h"
#include "mobility/floorplan.h"
#include "mobility/movement.h"
#include "sim/random.h"
#include "stats/table.h"
#include "stats/timeseries.h"

using namespace imrm;
using core::NetworkEnvironment;
using qos::kbps;

namespace {

struct Outcome {
  double mean_allocated_kbps = 0.0;  // time-sampled mean allocation
  std::size_t drops = 0;
  std::size_t reservations = 0;
  std::size_t prediction_hits = 0;
  std::size_t handoffs = 0;
};

Outcome run(sim::Duration t_th, std::uint64_t seed) {
  sim::Simulator simulator;
  core::BackboneConfig config;
  config.wireless_capacity = qos::mbps(1.6);
  config.static_threshold = t_th;
  NetworkEnvironment env(mobility::fig4_environment(), simulator, config);
  const auto cells = mobility::fig4_cells(env.map());

  sim::Rng rng(seed);
  const mobility::TransitionTable table =
      mobility::fig4_transition_table(env.map(), mobility::fig4_student_weights());

  // 24 walkers, each with one adaptive connection.
  qos::QosRequest request;
  request.bandwidth = {kbps(16), kbps(64)};
  request.delay_bound = 10.0;
  request.jitter_bound = 10.0;
  request.loss_bound = 0.05;
  request.traffic = {8000.0, 8000.0};
  std::vector<net::PortableId> users;
  for (int i = 0; i < 24; ++i) {
    const auto p = env.add_portable(cells.c, i % 3 == 0 ? std::optional(cells.b)
                                                        : std::nullopt);
    env.open_connection(p, request);
    users.push_back(p);
  }

  const sim::SimTime horizon = sim::SimTime::hours(8);

  // Self-scheduling walker steps: offices hold users for long stays,
  // corridors for short hops.
  struct Walker {
    NetworkEnvironment* env;
    sim::Simulator& simulator;
    const mobility::TransitionTable* table;
    sim::Rng rng;
    sim::SimTime horizon;

    void step(net::PortableId p) {
      const auto& portable = env->mobility().portable(p);
      const bool in_office =
          env->map().cell(portable.current_cell).cell_class ==
          mobility::CellClass::kOffice;
      const double mean_minutes = in_office ? 25.0 : 1.5;
      const auto dwell = sim::Duration::minutes(rng.exponential_mean(mean_minutes));
      const sim::SimTime at = simulator.now() + dwell;
      if (at > horizon) return;
      simulator.at(at, [this, p] {
        const auto& me = env->mobility().portable(p);
        const mobility::CellId next =
            table->sample(env->map(), me.previous_cell, me.current_cell, rng);
        const bool survived = env->handoff(p, next);
        if (survived || !env->has_connection(p)) step(p);
      });
    }
  };
  auto walker =
      std::make_shared<Walker>(Walker{&env, simulator, &table, rng.fork(), horizon});
  for (auto p : users) walker->step(p);

  // Sample mean allocation every simulated minute.
  stats::Summary allocation;
  simulator.every(sim::Duration::minutes(1), horizon, [&] {
    env.adapt();
    double total = 0.0;
    std::size_t n = 0;
    for (auto p : users) {
      if (env.has_connection(p)) {
        total += env.allocated(p);
        ++n;
      }
    }
    if (n > 0) allocation.add(total / double(n));
  });

  simulator.run();

  Outcome out;
  out.mean_allocated_kbps = allocation.mean() / 1e3;
  out.drops = env.stats().handoff_drops;
  out.reservations = env.stats().reservations_placed;
  out.prediction_hits = env.stats().reservations_consumed;
  out.handoffs = env.stats().handoffs;
  return out;
}

}  // namespace

int main() {
  std::cout << "== Ablation: static/mobile threshold T_th ==\n";
  std::cout << "24 users, one adaptive 16..64 kbps connection each, 8 h walk\n\n";

  stats::Table table({"T_th", "mean allocation (kbps)", "handoffs", "drops",
                      "advance reservations", "prediction hits"});
  for (double minutes : {0.5, 1.0, 3.0, 10.0, 30.0, 120.0}) {
    const Outcome out = run(sim::Duration::minutes(minutes), 17);
    table.add_row({stats::fmt(minutes, 1) + " min",
                   stats::fmt(out.mean_allocated_kbps, 1), std::to_string(out.handoffs),
                   std::to_string(out.drops), std::to_string(out.reservations),
                   std::to_string(out.prediction_hits)});
  }
  table.print(std::cout);

  std::cout << "\nSmall T_th: connections spend more time classified static and\n"
               "enjoy upgraded allocations, at the price of reservation churn for\n"
               "users that move right after upgrading. Large T_th pins everyone\n"
               "at b_min (paper default: a few minutes).\n";
  return 0;
}
