#include "fault/schedule.h"

#include <algorithm>
#include <map>
#include <memory>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imrm::fault {
namespace {

// Shared driver state: the hooks, cached counters, and per-link outage
// start times so each down→up pair renders as one trace span.
struct Driver {
  FaultSchedule::Hooks hooks;
  std::vector<std::vector<std::uint32_t>> groups;
  obs::Counter* downs = nullptr;
  obs::Counter* ups = nullptr;
  obs::Counter* crashes = nullptr;
  obs::Counter* partitions = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::NameId outage_name = obs::kInvalidName;
  obs::NameId crash_name = obs::kInvalidName;
  std::map<std::uint32_t, sim::SimTime> down_since;

  void link_down(sim::SimTime now, std::uint32_t link) {
    if (downs) downs->add();
    down_since.emplace(link, now);
    if (hooks.link_down) hooks.link_down(link);
  }
  void link_up(sim::SimTime now, std::uint32_t link) {
    if (ups) ups->add();
    if (auto it = down_since.find(link); it != down_since.end()) {
      if (tracer && outage_name != obs::kInvalidName) {
        tracer->complete(it->second, now, outage_name, link);
      }
      down_since.erase(it);
    }
    if (hooks.link_up) hooks.link_up(link);
  }
};

}  // namespace

FaultSchedule FaultSchedule::random(const RandomConfig& config, sim::Rng& rng) {
  FaultSchedule schedule;
  const double lo = config.start.to_seconds();
  const double hi = config.stop.to_seconds();
  for (std::size_t i = 0; i < config.flaps; ++i) {
    const auto link = std::uint32_t(rng.uniform_int(0, int(config.links) - 1));
    const double down = rng.uniform(lo, hi);
    const double outage = rng.exponential_mean(config.mean_outage.to_seconds());
    // Outages are clipped to the window so every down has a matching up.
    const double up = std::min(down + outage, hi);
    schedule.flap(link, sim::SimTime::seconds(down), sim::SimTime::seconds(up));
  }
  for (std::size_t i = 0; i < config.crashes; ++i) {
    const auto link = std::uint32_t(rng.uniform_int(0, int(config.links) - 1));
    schedule.crash(link, sim::SimTime::seconds(rng.uniform(lo, hi)));
  }
  return schedule;
}

sim::SimTime FaultSchedule::end_time() const {
  sim::SimTime end = sim::SimTime::zero();
  for (const FaultEvent& event : events_) end = std::max(end, event.at);
  return end;
}

void FaultSchedule::arm(sim::Simulator& simulator, Hooks hooks, obs::Registry* metrics,
                        obs::Tracer* tracer) const {
  if (events_.empty()) return;
  auto driver = std::make_shared<Driver>();
  driver->hooks = std::move(hooks);
  driver->groups = groups_;
  if (metrics) {
    driver->downs = &metrics->counter("fault.injected.link_down");
    driver->ups = &metrics->counter("fault.injected.link_up");
    driver->crashes = &metrics->counter("fault.injected.cell_crash");
    driver->partitions = &metrics->counter("fault.injected.partition");
  }
  if (tracer) {
    driver->tracer = tracer;
    driver->outage_name = tracer->intern("link-outage", "fault");
    driver->crash_name = tracer->intern("cell-crash", "fault");
  }
  for (const FaultEvent& event : events_) {
    simulator.at(event.at, [driver, &simulator, event] {
      const sim::SimTime now = simulator.now();
      switch (event.kind) {
        case FaultKind::kLinkDown:
          driver->link_down(now, event.target);
          break;
        case FaultKind::kLinkUp:
          driver->link_up(now, event.target);
          break;
        case FaultKind::kCellCrash:
          if (driver->crashes) driver->crashes->add();
          if (driver->tracer && driver->crash_name != obs::kInvalidName) {
            driver->tracer->instant(now, driver->crash_name, event.target);
          }
          if (driver->hooks.cell_crash) driver->hooks.cell_crash(event.target);
          break;
        case FaultKind::kPartition:
          if (driver->partitions) driver->partitions->add();
          if (event.target < driver->groups.size()) {
            for (std::uint32_t link : driver->groups[event.target]) {
              driver->link_down(now, link);
            }
          }
          break;
        case FaultKind::kHeal:
          if (event.target < driver->groups.size()) {
            for (std::uint32_t link : driver->groups[event.target]) {
              driver->link_up(now, link);
            }
          }
          break;
      }
    });
  }
}

}  // namespace imrm::fault
