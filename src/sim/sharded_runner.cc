#include "sim/sharded_runner.h"

#include <algorithm>
#include <stdexcept>

namespace imrm::sim {

namespace {
// Spin iterations at the burst barrier before yielding the core. Kept small:
// on hosts with fewer cores than workers (the CI box has one) a spinning
// waiter is stealing exactly the cycles the serializer needs.
constexpr int kBarrierSpinLimit = 64;
}  // namespace

// A wider row type or a fatter header would show up here first.
static_assert(ShardedRunner::kRowEnvelopeBytes == 40,
              "a row envelope is deliver time, destination and a 24-byte row");

ShardedRunner::ShardedRunner(const Config& config) : config_(config) {
  if (config_.domains == 0) {
    throw std::invalid_argument("ShardedRunner needs at least one domain");
  }
  if (!(config_.window > Duration::zero())) {
    throw std::invalid_argument("ShardedRunner window must be positive");
  }
  sims_.reserve(config_.domains);
  for (std::size_t d = 0; d < config_.domains; ++d) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  row_outboxes_.resize(config_.domains);
  inboxes_.resize(config_.domains);

  std::size_t workers = config_.workers;
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : hw;
  }
  worker_count_ = std::min(workers, config_.domains);
  if (worker_count_ > 1) {
    pool_.reserve(worker_count_);
    for (std::size_t w = 0; w < worker_count_; ++w) {
      pool_.emplace_back([this, w] { worker_loop(w); });
    }
  }
}

ShardedRunner::~ShardedRunner() {
  if (!pool_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    round_cv_.notify_all();
    for (std::thread& t : pool_) t.join();
  }
}

void ShardedRunner::arm_profiling() {
  profile_active_ = config_.profiler != nullptr && config_.profiler->enabled();
  if (!profile_active_) return;
  if (wall_epoch_ns_ == 0) wall_epoch_ns_ = obs::Profiler::now_ns();
  if (ph_exchange_ == obs::kInvalidPhase) {
    ph_exchange_ = config_.profiler->intern("shard.exchange");
    ph_window_ = config_.profiler->intern("shard.window");
  }
  if (lanes_.empty()) {
    lanes_.resize(worker_count_);
    busy_scratch_.assign(worker_count_, BusySlot{});
  }
  if (config_.tracer != nullptr && config_.tracer->enabled() && !lanes_declared_) {
    lanes_declared_ = true;
    config_.tracer->declare_process(kShardLanePid, "imrm-shard-lanes (wall clock)");
    tr_busy_ = config_.tracer->intern("shard.busy", "wall");
    tr_barrier_ = config_.tracer->intern("shard.barrier", "wall");
  }
}

std::size_t ShardedRunner::next_batch_budget() const {
  return config_.batch > 0 ? config_.batch : auto_batch_;
}

void ShardedRunner::update_batch_controller(std::uint64_t dispatch_wall_ns) {
  if (config_.batch > 0) return;
  if (profile_active_) {
    // Wall-fed steering off the same measurement the profiler records as the
    // shard.window phase: grow while dispatches come back quickly, back off
    // once a burst keeps the coordinator (progress meter, caller polling)
    // dark for tens of milliseconds. Legal to consult the wall clock here —
    // batch size affects scheduling only, never simulation results.
    constexpr std::uint64_t kGrowBelowNs = 5'000'000;     // 5 ms
    constexpr std::uint64_t kShrinkAboveNs = 50'000'000;  // 50 ms
    if (dispatch_wall_ns < kGrowBelowNs) {
      auto_batch_ = std::min(auto_batch_ * 2, kAutoBatchMax);
    } else if (dispatch_wall_ns > kShrinkAboveNs) {
      auto_batch_ = std::max(auto_batch_ / 2, kAutoBatchMin);
    }
  } else if (burst_exhausted_) {
    // No clocks to consult: exponential ramp while bursts keep filling their
    // budget with events still pending. Horizon- or quiescence-terminated
    // bursts leave the budget alone.
    auto_batch_ = std::min(auto_batch_ * 2, kAutoBatchMax);
  }
}

std::uint64_t ShardedRunner::run_until(SimTime horizon) {
  const std::uint64_t before = events_fired();
  // Latched once per call, before any dispatch: workers pick it up through
  // the dispatch barrier. Clock reads below happen only when active.
  arm_profiling();
  run_horizon_ = horizon;
  // Dispatches run back to back, so the previous dispatch's end timestamp
  // doubles as the next dispatch's prep start — one clock read per dispatch.
  std::uint64_t t_prev = profile_active_ ? obs::Profiler::now_ns() : 0;
  // Inject messages posted during setup (or left over from a previous
  // run_until call) before looking at queue heads: an injected message may
  // well be the earliest pending event. Mid-run, the burst serializer has
  // always just done this, so only the loop entry needs it.
  exchange();
  SimTime min_next = SimTime::infinity();
  for (const auto& sim : sims_) {
    min_next = std::min(min_next, sim->next_event_time());
  }
  while (min_next != SimTime::infinity() && min_next <= horizon) {
    // The earliest event anywhere is at min_next, so every event fired this
    // window has time >= min_next and every message it posts delivers at
    // >= min_next + window — the window end or later, never into a
    // destination's past (see the file header). Idle stretches skip
    // ahead in one hop. The target depends only on event times and the
    // horizon, never on the worker count or batch size, so window
    // boundaries are invariant across both.
    SimTime target = min_next + config_.window;
    if (target > horizon) target = horizon;
    std::uint64_t t1 = 0;
    if (profile_active_) {
      for (BusySlot& slot : busy_scratch_) slot.ns = 0;
      t1 = obs::Profiler::now_ns();
      sub_start_ns_ = t1;
    }
    if (worker_count_ <= 1) {
      sub_target_ = target;
      burst_budget_ = next_batch_budget();
      burst_windows_ = 0;
      burst_done_ = false;
      burst_exhausted_ = false;
      arrived_.store(1, std::memory_order_relaxed);
      run_burst(0);
    } else {
      {
        // Burst inputs written under the mutex so the round_cv_ wakeup
        // publishes them to every worker.
        const std::lock_guard<std::mutex> lock(mutex_);
        sub_target_ = target;
        burst_budget_ = next_batch_budget();
        burst_windows_ = 0;
        burst_done_ = false;
        burst_exhausted_ = false;
        arrived_.store(worker_count_, std::memory_order_relaxed);
        running_ = worker_count_;
        ++round_;
      }
      round_cv_.notify_all();
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] { return running_ == 0; });
    }
    ++stats_.dispatches;
    std::uint64_t dispatch_wall = 0;
    if (profile_active_) {
      const std::uint64_t t2 = obs::Profiler::now_ns();
      dispatch_wall = t2 - t1;
      account_dispatch(t_prev, t1, t2);
      t_prev = t2;
    }
    update_batch_controller(dispatch_wall);
    min_next = burst_min_next_;
    if (config_.progress != nullptr && config_.progress->armed()) {
      const double h = horizon.to_seconds();
      const double frac =
          h > 0.0 ? std::min(1.0, sub_target_.to_seconds() / h) : 1.0;
      config_.progress->maybe_emit(frac, events_fired(), last_straggler_);
    }
  }
  return events_fired() - before;
}

void ShardedRunner::run_burst(std::size_t worker) {
  std::uint64_t phase = sub_phase_.load(std::memory_order_acquire);
  for (;;) {
    run_domains(worker, sub_target_);
    if (arrived_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Serializer: every worker has finished the sub-window (the acq_rel
      // RMW chain on arrived_ orders their writes before this point). Run
      // the canonical exchange + scan, publish the next target or the
      // burst-done verdict, reset the barrier, release.
      serialize_sub_window();
      arrived_.store(worker_count_, std::memory_order_relaxed);
      ++phase;
      sub_phase_.fetch_add(1, std::memory_order_release);
    } else {
      int spins = 0;
      while (sub_phase_.load(std::memory_order_acquire) == phase) {
        if (++spins >= kBarrierSpinLimit) {
          std::this_thread::yield();
          spins = 0;
        }
      }
      ++phase;
    }
    if (burst_done_) return;
  }
}

void ShardedRunner::serialize_sub_window() {
  ++stats_.windows;
  ++burst_windows_;
  const std::uint64_t msgs_before = stats_.boundary_messages;
  exchange();
  SimTime min_next = SimTime::infinity();
  for (const auto& sim : sims_) {
    min_next = std::min(min_next, sim->next_event_time());
  }
  if (profile_active_) {
    const std::uint64_t now = obs::Profiler::now_ns();
    window_hist_.record(double(now - sub_start_ns_));
    messages_hist_.record(double(stats_.boundary_messages - msgs_before));
    sub_start_ns_ = now;
    ++profiled_windows_;
  }
  const bool drained = min_next == SimTime::infinity() || min_next > run_horizon_;
  if (drained || burst_windows_ >= burst_budget_) {
    burst_exhausted_ = !drained;
    burst_min_next_ = min_next;
    burst_done_ = true;
    return;
  }
  SimTime target = min_next + config_.window;
  if (target > run_horizon_) target = run_horizon_;
  sub_target_ = target;
}

void ShardedRunner::account_dispatch(std::uint64_t prep_start_ns,
                                     std::uint64_t dispatch_start_ns,
                                     std::uint64_t dispatch_end_ns) {
  // Idle: the inter-dispatch stretch (controller update, progress poll,
  // stats) during which no lane executes events. Charged to every lane —
  // all of them are parked behind the coordinator. Inside the dispatch
  // span, each lane's wall splits into measured busy (accumulated across
  // the burst's sub-windows) and barrier wait; together the three lanes sum
  // to the profiled wall exactly, which the satellite-1 regression asserts.
  const std::uint64_t idle = dispatch_start_ns - prep_start_ns;
  const std::uint64_t span = dispatch_end_ns - dispatch_start_ns;
  batch_hist_.record(double(burst_windows_));
  std::size_t straggler = 0;
  for (std::size_t w = 0; w < lanes_.size(); ++w) {
    // A worker's accumulated span nests inside the coordinator's; clamp
    // anyway so barrier_wait can never underflow on clock jitter.
    const std::uint64_t busy = std::min(busy_scratch_[w].ns, span);
    lanes_[w].busy_ns += busy;
    lanes_[w].barrier_wait_ns += span - busy;
    lanes_[w].idle_ns += idle;
    if (busy_scratch_[w].ns > busy_scratch_[straggler].ns) straggler = w;
  }
  ++lanes_[straggler].straggler_windows;
  ++profiled_dispatches_;
  profiled_wall_ns_ += idle + span;
  last_straggler_ = int(straggler);
  config_.profiler->record(ph_exchange_, idle);
  config_.profiler->record(ph_window_, span);
  if (lanes_declared_ && config_.tracer->enabled()) {
    const double prep_us = double(prep_start_ns - wall_epoch_ns_) / 1000.0;
    const double dispatch_us = double(dispatch_start_ns - wall_epoch_ns_) / 1000.0;
    config_.tracer->complete_wall(prep_us, double(idle) / 1000.0, tr_barrier_,
                                  kShardLanePid, std::uint32_t(lanes_.size()),
                                  double(burst_windows_));
    for (std::size_t w = 0; w < lanes_.size(); ++w) {
      config_.tracer->complete_wall(dispatch_us, double(busy_scratch_[w].ns) / 1000.0,
                                    tr_busy_, kShardLanePid, std::uint32_t(w),
                                    w == straggler ? 1.0 : 0.0);
    }
  }
}

void ShardedRunner::export_profile(obs::ProfileSnapshot& out) const {
  if (lanes_.empty()) return;  // never ran with profiling enabled
  const auto sample_of = [](const char* name, const obs::Histogram& h) {
    return obs::HistogramSample{name,    h.spec(), h.count(),  h.underflow(),
                                h.overflow(), h.sum(),  h.min(), h.max(),
                                h.buckets()};
  };
  out.shards = lanes_;
  out.barriers = profiled_dispatches_;
  out.windows = profiled_windows_;
  out.profiled_wall_ns = profiled_wall_ns_;
  out.boundary_messages = stats_.boundary_messages;
  out.boundary_bytes = stats_.boundary_messages * kRowEnvelopeBytes;
  for (std::size_t w = 0; w < out.shards.size(); ++w) {
    obs::ShardLaneSample& lane = out.shards[w];
    lane.domain_begin = block_begin(w);
    lane.domain_end = block_begin(w + 1);
    lane.busiest_domain = lane.domain_begin;
    for (std::size_t d = lane.domain_begin; d < lane.domain_end; ++d) {
      const std::uint64_t rows = inboxes_[d].delivered;
      lane.rows_delivered += rows;
      if (rows > lane.busiest_domain_rows) {
        lane.busiest_domain = d;
        lane.busiest_domain_rows = rows;
      }
    }
  }
  out.window_ns = sample_of("window_ns", window_hist_);
  out.messages_per_barrier = sample_of("messages_per_barrier", messages_hist_);
  out.batch_windows = sample_of("batch_windows", batch_hist_);
}

std::size_t ShardedRunner::row_pool_slots() const {
  std::size_t total = 0;
  for (const RowInbox& inbox : inboxes_) total += inbox.slots.size();
  return total;
}

std::uint64_t ShardedRunner::events_fired() const {
  std::uint64_t total = 0;
  for (const auto& sim : sims_) total += sim->events_fired();
  return total;
}

void ShardedRunner::run_domains(std::size_t worker, SimTime target) {
  const std::size_t d0 = block_begin(worker);
  const std::size_t d1 = block_begin(worker + 1);
  if (profile_active_) {
    const std::uint64_t t0 = obs::Profiler::now_ns();
    for (std::size_t d = d0; d < d1; ++d) sims_[d]->run_until(target);
    // Accumulate: a burst runs many sub-windows between coordinator reads,
    // and overwriting here (the ISSUE 10 satellite bug) would credit only
    // the last sub-window as busy, booking the rest of an otherwise fully
    // busy burst under barrier_wait.
    busy_scratch_[worker].ns += obs::Profiler::now_ns() - t0;
    return;
  }
  for (std::size_t d = d0; d < d1; ++d) sims_[d]->run_until(target);
}

void ShardedRunner::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      round_cv_.wait(lock, [&] { return shutdown_ || round_ != seen; });
      if (shutdown_) return;
      seen = round_;
    }
    run_burst(worker);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--running_ == 0) done_cv_.notify_one();
    }
  }
}

void ShardedRunner::exchange() {
  // Inject straight from the outboxes, visiting sources in domain order, so
  // each destination receives its rows in (source domain, posting serial)
  // order, grouped into one drain per (destination, deliver instant). The
  // destination queue orders events by (time, FIFO sequence), and one
  // exchange's drains at a destination take a contiguous block of sequence
  // numbers, so the queue executes the rows in the canonical (deliver time,
  // source domain, serial) order; the header proves the grouping keeps it.
  // Every component is a partition-invariant property of the simulation,
  // so the execution order is identical for any worker count.
  for (std::vector<RowEnvelope>& outbox : row_outboxes_) {
    for (const RowEnvelope& e : outbox) inject_row(e);
    stats_.boundary_messages += outbox.size();
    outbox.clear();
  }
  for (const std::size_t to : open_inboxes_) inboxes_[to].open.clear();
  open_inboxes_.clear();
}

void ShardedRunner::inject_row(const RowEnvelope& e) {
  RowInbox& inbox = inboxes_[e.to];
  std::uint32_t slot = inbox.free;
  if (slot != kNoSlot) {
    inbox.free = inbox.slots[slot].next;
    inbox.slots[slot] = RowSlot{e.row, kNoSlot};
  } else {
    slot = std::uint32_t(inbox.slots.size());
    inbox.slots.push_back(RowSlot{e.row, kNoSlot});
  }
  // Newest first: a destination's rows mostly share the instant of the
  // drain opened last.
  for (auto it = inbox.open.rbegin(); it != inbox.open.rend(); ++it) {
    if (it->time == e.deliver_time) {
      inbox.slots[it->tail].next = slot;
      it->tail = slot;
      return;
    }
  }
  if (inbox.open.empty()) open_inboxes_.push_back(e.to);
  inbox.open.push_back(OpenDrain{e.deliver_time, slot});
  sims_[e.to]->at(e.deliver_time,
                  [this, to = e.to, slot] { drain_rows(to, slot); });
  ++stats_.row_drains;
}

void ShardedRunner::drain_rows(std::size_t to, std::uint32_t head) {
  // Only the exchange grows the pool, and it never runs during a window, so
  // slot references stay valid while the handler runs.
  RowInbox& inbox = inboxes_[to];
  std::uint32_t slot = head;
  std::uint32_t last = head;
  std::uint64_t rows = 0;
  do {
    row_handler_(to, inbox.slots[slot].row);
    last = slot;
    slot = inbox.slots[slot].next;
    ++rows;
  } while (slot != kNoSlot);
  inbox.slots[last].next = inbox.free;
  inbox.free = head;
  inbox.delivered += rows;
}

}  // namespace imrm::sim
