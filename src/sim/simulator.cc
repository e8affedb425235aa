#include "sim/simulator.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace imrm::sim {

void Simulator::collect_metrics(obs::Registry& registry) const {
  const EventQueue::Stats& qs = queue_.stats();
  registry.counter("sim.events_fired").add(fired_);
  registry.counter("sim.events_scheduled").add(qs.scheduled);
  registry.counter("sim.events_cancelled").add(qs.cancelled);
  registry.gauge("sim.queue_peak_pending").set(double(qs.peak_pending));
  registry.gauge("sim.queue_pending").set(double(queue_.size()));
  registry.gauge("sim.time_seconds").set(now_.to_seconds());
}

void Simulator::throw_past_event(SimTime t) const {
  throw std::invalid_argument("Simulator::at: time " + std::to_string(t.to_seconds()) +
                              " s is before now() = " + std::to_string(now_.to_seconds()) +
                              " s");
}

EventId Simulator::every(Duration period, SimTime horizon, EventQueue::Callback cb) {
  if (!(period > Duration::zero())) {
    throw std::invalid_argument("Simulator::every: period must be positive");
  }
  // The body lives behind a pointer so the repeater fits the callback's
  // inline buffer; each firing moves the repeater into its next slot, so
  // rescheduling costs no reference-count traffic.
  auto shared = std::make_shared<EventQueue::Callback>(std::move(cb));
  struct Repeater {
    Simulator* self;
    Duration period;
    SimTime horizon;
    std::shared_ptr<EventQueue::Callback> body;
    void operator()() {
      (*body)();
      const SimTime next = self->now() + period;
      if (next <= horizon) self->at(next, std::move(*this));
    }
  };
  return at(now_ + period, Repeater{this, period, horizon, std::move(shared)});
}

std::uint64_t Simulator::run_until(SimTime horizon) {
  std::uint64_t count = 0;
  EventQueue::Fired fired;
  while (queue_.pop_at_or_before(horizon, fired)) {
    now_ = fired.time;
    fired.callback();
    fired.callback.reset();  // destroy the capture before the next pop
    ++count;
  }
  fired_ += count;
  // Advance the clock to the horizon so successive run_until calls with
  // increasing horizons behave like continuous time, but never rewind and
  // never jump to infinity on a drained queue.
  if (horizon != SimTime::infinity() && horizon > now_) now_ = horizon;
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [time, callback] = queue_.pop();
  now_ = time;
  callback();
  ++fired_;
  return true;
}

}  // namespace imrm::sim
