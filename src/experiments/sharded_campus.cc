#include "experiments/sharded_campus.h"

#include <cassert>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "sim/flat_map.h"
#include "sim/random.h"
#include "sim/replication.h"
#include "sim/sharded_runner.h"
#include "sim/simulator.h"

namespace imrm::experiments {
namespace {

// Slack over the mean session length before an unreleased lease is presumed
// abandoned; generous enough that an explicit RELEASE almost always lands
// first, tight enough that abandoned bandwidth is reclaimed within the run.
constexpr double kLeaseSlackFactor = 4.0;

/// Every corridor message, as one boundary row. `cell` is the prober for a
/// probe and the probed cell for its reply; a handoff uses no field and a
/// release only `session`.
struct CorridorRow {
  enum Kind : std::uint8_t { kHandoff, kProbe, kProbeReply, kRelease };
  Kind kind = kHandoff;
  std::uint8_t ok = 0;
  std::uint32_t cell = 0;
  std::uint64_t session = 0;
  double sent_s = 0.0;
};
static_assert(sizeof(CorridorRow) <= sim::ShardedRunner::kRowBytes,
              "a corridor message must fit one boundary row");

class CampusGrid {
 public:
  explicit CampusGrid(const ShardedCampusConfig& config)
      : config_(config),
        runner_(sim::ShardedRunner::Config{
            config.cells, config.shards, config.hop_latency, config.batch,
            config.profiler, config.tracer, config.progress}) {
    assert(config_.cells >= 1);
    cells_.reserve(config_.cells);
    for (std::size_t i = 0; i < config_.cells; ++i) {
      // Per-cell RNG stream: a partition-invariant function of (seed, cell),
      // never of the worker that happens to execute the cell.
      cells_.push_back(std::make_unique<Cell>(
          i, sim::replication_seed(config_.seed, i)));
      cells_.back()->sim = &runner_.domain(i);
    }
    runner_.set_row_handler<CorridorRow>(
        [this](std::size_t to, const CorridorRow& row) { on_row(cell(to), row); });
    for (auto& cell : cells_) {
      for (std::size_t p = 0; p < config_.portables_per_cell; ++p) {
        schedule_idle(*cell);
      }
      Cell* c = cell.get();
      c->sim->every(config_.lease_sweep_period, config_.horizon,
                    [this, c] { sweep_leases(*c); });
    }
  }

  ShardedCampusResult run() {
    runner_.run_until(config_.horizon);

    ShardedCampusResult result;
    // Flat left-fold over per-cell snapshots in cell order. Never pre-merge
    // per worker: gauge merging sums doubles, and float addition is not
    // associative, so any partition-dependent grouping would change low bits
    // across shard counts.
    for (auto& cell : cells_) {
      cell->sim->collect_metrics(cell->registry);
      result.metrics.merge(cell->registry.snapshot());
    }
    obs::Registry engine;
    engine.counter("shard.windows").add(runner_.stats().windows);
    engine.counter("shard.boundary_messages").add(runner_.stats().boundary_messages);
    result.metrics.merge(engine.snapshot());

    result.events_fired = runner_.events_fired();
    result.windows = runner_.stats().windows;
    result.boundary_messages = runner_.stats().boundary_messages;
    const auto count = [&](const char* name) -> std::uint64_t {
      const obs::CounterSample* c = result.metrics.counter(name);
      return c == nullptr ? 0 : c->value;
    };
    result.admits = count("cell.admits");
    result.blocks = count("cell.blocks");
    result.handoffs = count("cell.handoff_in");
    result.handoff_drops = count("cell.handoff_drops");
    result.probes_sent = count("cell.probe_tx");
    result.probes_rejected = count("cell.probe_reject");
    result.lease_reclaims = count("cell.lease_reclaims");
    if (config_.profiler != nullptr) {
      result.profile = config_.profiler->snapshot();
      runner_.export_profile(result.profile);
    }
    return result;
  }

 private:
  struct Lease {
    double expiry_s = 0.0;
  };

  struct Cell {
    Cell(std::size_t index, std::uint64_t seed)
        : index(index),
          rng(seed),
          admits(registry.counter("cell.admits")),
          blocks(registry.counter("cell.blocks")),
          handoff_in(registry.counter("cell.handoff_in")),
          handoff_out(registry.counter("cell.handoff_out")),
          handoff_drops(registry.counter("cell.handoff_drops")),
          probe_tx(registry.counter("cell.probe_tx")),
          probe_ok(registry.counter("cell.probe_ok")),
          probe_reject(registry.counter("cell.probe_reject")),
          releases(registry.counter("cell.releases")),
          lease_reclaims(registry.counter("cell.lease_reclaims")),
          allocated_gauge(registry.gauge("cell.allocated_bps")),
          probe_rtt(registry.histogram(
              "cell.probe_rtt_ms", obs::HistogramSpec::linear(0.0, 250.0, 50))) {}

    std::size_t index;
    sim::Rng rng;
    obs::Registry registry;
    obs::Counter& admits;
    obs::Counter& blocks;
    obs::Counter& handoff_in;
    obs::Counter& handoff_out;
    obs::Counter& handoff_drops;
    obs::Counter& probe_tx;
    obs::Counter& probe_ok;
    obs::Counter& probe_reject;
    obs::Counter& releases;
    obs::Counter& lease_reclaims;
    obs::Gauge& allocated_gauge;
    obs::Histogram& probe_rtt;
    double allocated = 0.0;
    sim::FlatMap<std::uint64_t, Lease> leases;
    std::uint64_t next_session = 0;
    sim::Simulator* sim = nullptr;
  };

  [[nodiscard]] Cell& cell(std::size_t i) { return *cells_[i]; }

  [[nodiscard]] sim::Duration hop_latency(std::size_t a, std::size_t b) const {
    const std::size_t hops = a > b ? a - b : b - a;
    // Co-located endpoints still pay one hop: a message to yourself through
    // the corridor controller is a boundary message like any other, which is
    // what keeps the delivery schedule identical at every shard count.
    return sim::Duration::seconds(config_.hop_latency.to_seconds() *
                                  double(hops == 0 ? 1 : hops));
  }

  void send(const Cell& from, std::size_t to, const CorridorRow& row) {
    runner_.post_row(from.index, to, hop_latency(from.index, to), row);
  }

  void on_row(Cell& d, const CorridorRow& row) {
    switch (row.kind) {
      case CorridorRow::kHandoff:
        on_handoff(d);
        break;
      case CorridorRow::kProbe:
        on_probe(d, row.cell, row.session, row.sent_s);
        break;
      case CorridorRow::kProbeReply:
        on_probe_reply(d, row.ok != 0, row.cell, row.session, row.sent_s);
        break;
      case CorridorRow::kRelease:
        on_release(d, row.session);
        break;
    }
  }

  void set_allocated(Cell& c, double bps) {
    c.allocated = bps;
    c.allocated_gauge.set(bps);
  }

  [[nodiscard]] bool has_room(const Cell& c) const {
    return c.allocated + config_.session_bandwidth_bps <=
           config_.cell_capacity_bps + 1e-6;
  }

  void schedule_idle(Cell& c) {
    const double idle_s = c.rng.exponential_mean(config_.idle_mean.to_seconds());
    c.sim->after(sim::Duration::seconds(idle_s),
                 [this, cp = &c] { start_session(*cp); });
  }

  void start_session(Cell& c) {
    if (config_.cells > 1 && c.rng.bernoulli(config_.cross_call_probability)) {
      start_remote_session(c);
    } else {
      start_local_session(c);
    }
  }

  void start_local_session(Cell& c) {
    if (!has_room(c)) {
      c.blocks.add();
      schedule_idle(c);
      return;
    }
    c.admits.add();
    set_allocated(c, c.allocated + config_.session_bandwidth_bps);
    const double dur_s = c.rng.exponential_mean(config_.session_mean.to_seconds());
    c.sim->after(sim::Duration::seconds(dur_s),
                 [this, cp = &c] { end_local_session(*cp); });
  }

  void end_local_session(Cell& c) {
    set_allocated(c, c.allocated - config_.session_bandwidth_bps);
    c.releases.add();
    roam_or_idle(c);
  }

  void roam_or_idle(Cell& c) {
    if (config_.cells > 1 && c.rng.bernoulli(config_.roam_probability)) {
      std::size_t next = c.index;
      if (c.index == 0) {
        next = 1;
      } else if (c.index == config_.cells - 1) {
        next = c.index - 1;
      } else {
        next = c.rng.bernoulli(0.5) ? c.index + 1 : c.index - 1;
      }
      c.handoff_out.add();
      send(c, next, CorridorRow{CorridorRow::kHandoff});
      return;
    }
    schedule_idle(c);
  }

  void on_handoff(Cell& d) {
    d.handoff_in.add();
    if (!has_room(d)) {
      d.handoff_drops.add();
      schedule_idle(d);
      return;
    }
    set_allocated(d, d.allocated + config_.session_bandwidth_bps);
    const double dur_s = d.rng.exponential_mean(config_.session_mean.to_seconds());
    d.sim->after(sim::Duration::seconds(dur_s),
                 [this, dp = &d] { end_local_session(*dp); });
  }

  // ---- remote-bandwidth sessions (probe / accept / release) --------------

  void start_remote_session(Cell& c) {
    std::size_t target =
        std::size_t(c.rng.uniform_int(0, int(config_.cells) - 2));
    if (target >= c.index) ++target;
    const std::uint64_t session =
        (std::uint64_t(c.index) << 32) | c.next_session++;
    c.probe_tx.add();
    const double sent_s = c.sim->now().to_seconds();
    send(c, target,
         CorridorRow{CorridorRow::kProbe, 0, std::uint32_t(c.index), session, sent_s});
  }

  void on_probe(Cell& t, std::size_t from, std::uint64_t session, double sent_s) {
    const bool ok = has_room(t);
    if (ok) {
      t.probe_ok.add();
      set_allocated(t, t.allocated + config_.session_bandwidth_bps);
      const double lease_s =
          config_.session_mean.to_seconds() * kLeaseSlackFactor;
      t.leases.insert(session, Lease{t.sim->now().to_seconds() + lease_s});
    } else {
      t.probe_reject.add();
    }
    send(t, from, CorridorRow{CorridorRow::kProbeReply, std::uint8_t(ok),
                              std::uint32_t(t.index), session, sent_s});
  }

  void on_probe_reply(Cell& c, bool ok, std::uint32_t target,
                      std::uint64_t session, double sent_s) {
    if (!ok) {
      c.blocks.add();
      schedule_idle(c);
      return;
    }
    c.admits.add();
    c.probe_rtt.record((c.sim->now().to_seconds() - sent_s) * 1e3);
    const double dur_s = c.rng.exponential_mean(config_.session_mean.to_seconds());
    const bool abandon = c.rng.bernoulli(config_.abandon_probability);
    c.sim->after(sim::Duration::seconds(dur_s),
                 [this, cp = &c, target, session, abandon] {
                   end_remote_session(*cp, target, session, abandon);
                 });
  }

  void end_remote_session(Cell& c, std::uint32_t target, std::uint64_t session,
                          bool abandon) {
    if (!abandon) {
      send(c, target, CorridorRow{CorridorRow::kRelease, 0, 0, session});
    }
    schedule_idle(c);
  }

  void on_release(Cell& t, std::uint64_t session) {
    // Erase-guarded so a RELEASE racing the lease sweep (session outlived
    // its lease) cannot free the bandwidth twice.
    if (t.leases.erase(session)) {
      set_allocated(t, t.allocated - config_.session_bandwidth_bps);
      t.releases.add();
    }
  }

  void sweep_leases(Cell& t) {
    const double now_s = t.sim->now().to_seconds();
    // The predicate is pure (compares a stored expiry against a fixed now),
    // as FlatMap::erase_if requires.
    const std::size_t reclaimed = t.leases.erase_if(
        [now_s](std::uint64_t, const Lease& lease) {
          return lease.expiry_s <= now_s;
        });
    if (reclaimed > 0) {
      set_allocated(t, t.allocated - double(reclaimed) *
                           config_.session_bandwidth_bps);
      t.lease_reclaims.add(reclaimed);
    }
  }

  ShardedCampusConfig config_;
  sim::ShardedRunner runner_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

}  // namespace

ShardedCampusResult run_sharded_campus(const ShardedCampusConfig& config) {
  CampusGrid grid(config);
  return grid.run();
}

}  // namespace imrm::experiments
