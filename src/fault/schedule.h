// Discrete failure timelines (ISSUE 3 tentpole, part 2).
//
// A FaultSchedule is a scripted or randomly generated list of failure events
// — link down/up flaps, base-station crash/restart (losing soft state), and
// partition/heal of named cell groups — armed onto a simulator so that each
// event fires its hook at the scheduled time. The schedule itself is plain
// data: the same schedule can drive a FaultyChannel (down = drop everything)
// and a hardened protocol (crash = wipe per-connection soft state) at once.
//
// Observability: arming with a Registry registers `fault.injected.*`
// counters; arming with a Tracer emits one complete span per down→up outage
// (track = the failed link) plus instants for crashes, so failure epochs are
// visible in the Chrome trace next to the adaptation rounds they disturb.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace imrm::obs {
class Registry;
class Tracer;
}  // namespace imrm::obs

namespace imrm::fault {

enum class FaultKind : std::uint8_t {
  kLinkDown,   // target = link/channel index
  kLinkUp,     // target = link/channel index
  kCellCrash,  // target = link index of the restarting base station
  kPartition,  // target = group index (every member link goes down)
  kHeal,       // target = group index (every member link comes back)
};

struct FaultEvent {
  sim::SimTime at;
  FaultKind kind = FaultKind::kLinkDown;
  std::uint32_t target = 0;
};

class FaultSchedule {
 public:
  using LinkHook = std::function<void(std::uint32_t link)>;

  /// Callbacks the schedule drives. Any hook may be left empty; partitions
  /// expand to per-member-link down/up calls.
  struct Hooks {
    LinkHook link_down;
    LinkHook link_up;
    LinkHook cell_crash;
  };

  void add(FaultEvent event) { events_.push_back(event); }

  /// Convenience: one down→up flap of `link`.
  void flap(std::uint32_t link, sim::SimTime down, sim::SimTime up) {
    add({down, FaultKind::kLinkDown, link});
    add({up, FaultKind::kLinkUp, link});
  }

  /// Crash/restart of the base station owning `link` at `at`.
  void crash(std::uint32_t link, sim::SimTime at) {
    add({at, FaultKind::kCellCrash, link});
  }

  /// Declares a cell group for partition events; returns the group index.
  std::uint32_t add_group(std::vector<std::uint32_t> links) {
    groups_.push_back(std::move(links));
    return std::uint32_t(groups_.size() - 1);
  }

  /// Partitions `group` (all member links down) at `start`, heals at `heal`.
  void partition(std::uint32_t group, sim::SimTime start, sim::SimTime heal) {
    add({start, FaultKind::kPartition, group});
    add({heal, FaultKind::kHeal, group});
  }

  struct RandomConfig {
    sim::SimTime start = sim::SimTime::zero();
    sim::SimTime stop = sim::SimTime::seconds(1.0);
    std::uint32_t links = 1;            // flap/crash targets drawn from [0, links)
    std::size_t flaps = 0;              // number of down→up flaps
    sim::Duration mean_outage = sim::Duration::millis(20.0);
    std::size_t crashes = 0;            // number of cell crash/restarts
  };

  /// Generates a random timeline: `flaps` outages with exponential duration
  /// and `crashes` restarts, uniformly placed in [start, stop). Deterministic
  /// given the rng state.
  [[nodiscard]] static FaultSchedule random(const RandomConfig& config, sim::Rng& rng);

  /// Schedules every event on `simulator`. Hooks fire in event-time order;
  /// same-time events fire in insertion order (the simulator's queue is
  /// FIFO within a timestamp). Counters/spans are emitted when a registry /
  /// tracer is supplied.
  void arm(sim::Simulator& simulator, Hooks hooks, obs::Registry* metrics = nullptr,
           obs::Tracer* tracer = nullptr) const;

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& groups() const {
    return groups_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Time of the last scheduled event (zero when empty) — the earliest
  /// moment the system can be called fault-free again.
  [[nodiscard]] sim::SimTime end_time() const;

 private:
  std::vector<FaultEvent> events_;
  std::vector<std::vector<std::uint32_t>> groups_;
};

}  // namespace imrm::fault
