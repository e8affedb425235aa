// Discrete-event simulator driver.
//
// All experiments in the reproduction are driven by this loop: schedule
// callbacks, run until a horizon (or until the queue drains), observe state.
#pragma once

#include <cstdint>
#include <utility>

#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace imrm::obs {
class Registry;
}  // namespace imrm::obs

namespace imrm::sim {

class Simulator {
 public:
  Simulator() = default;

  /// Current simulation time. Starts at zero and only moves forward.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `f` at absolute time `t`. Forwards the callable straight
  /// into the event queue's slot storage — no intermediate Callback
  /// temporaries on the hot path. Throws std::invalid_argument when `t` is
  /// before now(): a past event would run the clock backwards.
  template <typename F>
  EventId at(SimTime t, F&& f) {
    if (t < now_) [[unlikely]] throw_past_event(t);
    return queue_.schedule(t, std::forward<F>(f));
  }

  /// Schedules `f` after a relative delay.
  template <typename F>
  EventId after(Duration delay, F&& f) {
    return at(now_ + delay, std::forward<F>(f));
  }

  /// Schedules `cb` every `period`, starting at now() + period, until
  /// `horizon`. Returns the id of the *first* occurrence (each firing
  /// reschedules itself, so cancel() only stops the next pending firing).
  /// Throws std::invalid_argument unless `period` is positive.
  EventId every(Duration period, SimTime horizon, EventQueue::Callback cb);

  void cancel(EventId id) { queue_.cancel(id); }

  /// Makes room for `events` simultaneously pending events (EventQueue::reserve).
  void reserve(std::size_t events) { queue_.reserve(events); }

  /// Runs events until the queue drains or the next event is past `horizon`.
  /// Returns the number of events fired.
  std::uint64_t run_until(SimTime horizon);

  /// Runs until the queue drains completely.
  std::uint64_t run() { return run_until(SimTime::infinity()); }

  /// Fires exactly one event if any is pending. Returns false when idle.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Time of the earliest pending event; SimTime::infinity() when idle.
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  [[nodiscard]] const EventQueue::Stats& queue_stats() const { return queue_.stats(); }
  [[nodiscard]] std::uint64_t queue_next_seq() const { return queue_.next_seq(); }

  /// Checkpoint restore of the driver core: clock, fired-event total, queue
  /// statistics and FIFO sequence counter. Call after re-arming any pending
  /// events (their schedule() calls inflate the queue counters; the saved
  /// values already include them). The restored clock makes subsequent at()
  /// checks and after() offsets behave exactly as in the original run.
  void restore_core(SimTime now, std::uint64_t fired, const EventQueue::Stats& stats,
                    std::uint64_t next_seq) {
    now_ = now;
    fired_ = fired;
    queue_.restore_stats(stats, next_seq);
  }

  /// Attaches the run's structured tracer; modules driven by this simulator
  /// pick it up via tracer() so one attach point instruments the stack.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Exports driver/queue totals (events fired, schedule/cancel churn, peak
  /// queue depth) into `registry`. Adds the current totals: call once per
  /// run, when the simulation is done.
  void collect_metrics(obs::Registry& registry) const;

 private:
  [[noreturn]] void throw_past_event(SimTime t) const;

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t fired_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace imrm::sim
