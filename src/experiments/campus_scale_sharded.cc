// The grid campus engine: the scale_grid_floorplan day (campus_scale.cc)
// executed through sim::ShardedRunner, one domain per cell.
//
// Execution model
//   - Every cell is a runner domain; the conservative window equals the
//     scheduler tick, and every cross-cell interaction is a boundary message
//     with exactly one tick of latency, so the lookahead contract holds by
//     construction.
//   - A per-cell tick handler (every tick from 0 through the duration) fires
//     due milestones for the cell's residents and launches walkers: a
//     portable whose target differs from its cell is sent to the next cell
//     on the grid route as a hop carrying its migrating Row state. The
//     arrival performs handoff admission, fires any milestones that came due
//     in flight, and either settles the portable as a resident or forwards
//     it another hop — one hop per tick. A resident row carries `due`, its
//     next milestone time rounded down to a float, so the tick scan passes
//     a row that is not due without reading the milestone arena (on_tick
//     says why the skip is exact).
//   - Hops, reservations and cancels travel as one 24-byte Message row
//     (ShardedRunner::post_row) to a single handler that switches on its
//     kind; no callback is built per message, and each cell drains the rows
//     of one instant in one queue event.
//   - Admission state is cell-local: each cell keeps its own allocated
//     account plus a FlatMap of advance reservations; no directory spans
//     cells. Advance reservations are routed, not predicted: each arrival of
//     a connected walker parks bandwidth two hops further along its route
//     (far enough ahead that the reservation message outruns the portable).
//     The reservation waits there for its owner, whose handoff admission
//     consumes it: the parked bandwidth returns to the pool and is admitted
//     again in the same step. When the owner leaves the route first — it
//     was dropped, settled, departed or turned toward a new target — its
//     next arrival cancels the reservation by message.
//
// Determinism: all mutable state is per-cell, every cross-cell effect rides
// the runner's canonically-ordered boundary rows, and the outcome digest
// folds per-cell hashes in cell-id order — so every output (outcome_hash,
// counters, metrics JSON) is byte-identical for any shard count and any
// batch size. The engine is its own oracle (see campus_scale.h).
#include "experiments/campus_scale.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "experiments/scale_workload.h"
#include "obs/metrics.h"
#include "sim/flat_map.h"
#include "sim/sharded_runner.h"
#include "sim/simulator.h"

namespace imrm::experiments {
namespace {

constexpr std::uint32_t kNoCell = net::CellId::invalid().value();
constexpr std::uint64_t kHashSeed = 0x6a09e667f3bcc908ULL;
constexpr std::size_t kStride = detail::kScaleMilestonesPerPortable;

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}
void mix_outcome(std::uint64_t& h, std::uint64_t tag, std::uint32_t p,
                 std::uint64_t detail_v, bool ok) {
  mix(h, (tag << 56) | (std::uint64_t(p) << 24) | (ok ? 1 : 0));
  mix(h, detail_v);
}

/// The migrating per-portable state of a walker. Travels by value inside hop
/// messages; at rest the same portable is a Resident of exactly one cell.
/// Everything else a cell needs about a portable (home, room, demand,
/// milestones) is read-only shared workload, safe to touch from any worker.
struct Row {
  std::uint32_t portable = 0;
  std::uint32_t target = kNoCell;
  std::uint32_t last_reserved = kNoCell;
  std::uint8_t cursor = 0;     ///< next milestone index in the arena slice
  std::uint8_t connected = 0;  ///< holds (or, in flight, seeks) bandwidth
};

/// A portable at rest in a cell's resident list. A row at rest never holds a
/// reservation (unborn rows have placed none, and an arrival that settles
/// cancels its own), so `due` takes the slot of Row::last_reserved: the
/// time of the next milestone rounded down to a float (float_floor). The
/// tick scan skips a row whose `due` is still ahead without reading the
/// milestone arena. -inf means "not known yet": the next tick scans it.
struct Resident {
  std::uint32_t portable = 0;
  std::uint32_t target = kNoCell;
  float due = -std::numeric_limits<float>::infinity();
  std::uint8_t cursor = 0;
  std::uint8_t connected = 0;
};
static_assert(sizeof(Resident) == sizeof(Row),
              "a resident row must cost what a migrating row does");

/// The one boundary row the grid sends. A hop carries the walker's Row and
/// the cell it left; a reservation or a cancel reads only row.portable (the
/// reserved bandwidth is the portable's workload demand) and acts on the
/// destination cell.
struct Message {
  enum Kind : std::uint8_t { kHop, kReserve, kCancel };
  Row row;
  std::uint32_t from = kNoCell;
  Kind kind = kHop;
};
static_assert(sizeof(Message) <= sim::ShardedRunner::kRowBytes,
              "a grid message must fit one boundary row");

class ShardedScaleSim {
 public:
  explicit ShardedScaleSim(const CampusScaleConfig& config)
      : cfg_(config),
        map_(scale_grid_floorplan(config.cells)),
        side_(detail::scale_grid_side(config.cells)),
        workload_(detail::generate_scale_workload(config, map_)),
        runner_(sim::ShardedRunner::Config{
            config.cells, config.shards, config.tick, config.batch,
            config.profiler, config.tracer, config.progress}) {
    const double tick_s = std::max(cfg_.tick.to_seconds(), 1e-3);
    n_ticks_ = std::size_t(cfg_.duration.to_seconds() / tick_s) + 1;

    cells_.resize(cfg_.cells);
    for (std::size_t i = 0; i < cfg_.cells; ++i) {
      cells_[i].id = std::uint32_t(i);
      cells_[i].sim = &runner_.domain(i);
    }
    runner_.set_row_handler<Message>(
        [this](std::size_t cell, const Message& m) { on_message(cell, m); });
    // Every portable starts as an unborn resident of its home cell; the
    // appear milestone activates it in place.
    for (std::uint32_t p = 0; p < cfg_.portables; ++p) {
      cells_[workload_.home[p]].residents.push_back(Resident{p});
    }
    const double dur = cfg_.duration.to_seconds();
    for (CellState& c : cells_) {
      CellState* cp = &c;
      // Tick 0, every tick after, and a final flush at the exact duration
      // (every() lands there only when the duration is a tick multiple; the
      // flush is cursor-guarded so a double firing is a no-op).
      c.sim->at(sim::SimTime::seconds(0.0), [this, cp] { on_tick(*cp); });
      c.sim->every(cfg_.tick, sim::SimTime::seconds(dur),
                   [this, cp] { on_tick(*cp); });
      c.sim->at(sim::SimTime::seconds(dur), [this, cp] { on_tick(*cp); });
    }
  }

  CampusScaleResult run() {
    // Walkers launched on the final tick arrive one tick past the duration
    // and fire their (all due) remaining milestones on arrival; the cancels
    // of their reservations land one tick later still.
    const double dur = cfg_.duration.to_seconds();
    const double tick_s = std::max(cfg_.tick.to_seconds(), 1e-3);
    runner_.run_until(sim::SimTime::seconds(dur + 3.0 * tick_s));
    return finish();
  }

 private:
  struct CellState {
    std::uint32_t id = 0;
    /// Lower bound on the earliest pending milestone among the residents,
    /// rounded down to a float so it fits the padding after `id` (see
    /// on_tick). state_bytes counts sizeof(CellState), so the field must not
    /// grow it.
    float next_due = -std::numeric_limits<float>::infinity();
    sim::Simulator* sim = nullptr;
    std::vector<Resident> residents;
    /// portable -> parked bandwidth (bps), counted inside `allocated`.
    sim::FlatMap<std::uint32_t, double> reserved;
    double allocated = 0.0;
    std::uint32_t occupancy = 0;
    // Reservation books, summed in finish(). Each arrival places, consumes
    // and cancels at most one reservation, so 32 bits hold any day that fits
    // in memory, and the four 32-bit fields fill two 8-byte slots.
    std::uint32_t reservations_placed = 0;
    std::uint32_t reservations_consumed = 0;
    std::uint32_t reservations_cancelled = 0;
    std::uint64_t hash = kHashSeed;
    // Scenario counters, summed in finish().
    std::uint64_t events = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t new_admitted = 0;
    std::uint64_t new_blocked = 0;
    std::uint64_t handoff_admitted = 0;
    std::uint64_t handoff_dropped = 0;
    std::uint64_t departures = 0;
  };

  // id and next_due share the slot before the first pointer member, so the
  // bound adds no bytes to sizeof(CellState).
  static_assert(sizeof(std::uint32_t) + sizeof(float) <= alignof(sim::Simulator*),
                "CellState::next_due must stay in the padding after id");

  [[nodiscard]] const detail::ScaleMilestone* milestones(std::uint32_t p) const {
    return &workload_.arena[p * kStride];
  }

  /// `row`'s next milestone time rounded down (Resident::due). The row has
  /// not departed, so its cursor is inside the arena slice.
  template <class R>
  [[nodiscard]] float due_of(const R& row) const {
    return float_floor(milestones(row.portable)[row.cursor].time);
  }

  /// `t` rounded down to a float, so `now < float_floor(t)` implies
  /// `now < t`.
  static float float_floor(double t) {
    float f = float(t);
    if (double(f) > t) f = std::nextafter(f, -std::numeric_limits<float>::infinity());
    return f;
  }

  // --- cell-local bandwidth account ---------------------------------------
  [[nodiscard]] bool fits(const CellState& c, double bw) const {
    return c.allocated + bw <= cfg_.cell_capacity_bps + 1e-6;
  }

  bool admit_new(CellState& c, double bw) {
    if (!fits(c, bw)) return false;
    c.allocated += bw;
    return true;
  }

  bool admit_handoff(CellState& c, std::uint32_t p, double bw) {
    // The walker consumes the reservation parked for it here: the bandwidth
    // returns to the pool and is re-fitted below, the same two operations
    // as a cancel drained just before the hop.
    if (unpark(c, p)) ++c.reservations_consumed;
    return admit_new(c, bw);
  }

  void release(CellState& c, double bw) {
    c.allocated -= bw;
  }

  void on_reserve(CellState& c, std::uint32_t p, double bw) {
    if (c.reserved.contains(p) || !fits(c, bw)) return;
    c.allocated += bw;
    c.reserved.insert(p, bw);
  }

  /// Returns the bandwidth parked for `p` in `c` to the pool; false when
  /// none is parked (the reservation found the cell full, or never came).
  bool unpark(CellState& c, std::uint32_t p) {
    const double* parked = c.reserved.find(p);
    if (parked == nullptr) return false;
    c.allocated -= *parked;
    c.reserved.erase(p);
    return true;
  }

  /// Cancels, by boundary message, the reservation `row` holds one hop
  /// ahead. That cell is never `c` itself: a reservation is placed for a
  /// later hop of the route, never for the cell its owner stands in.
  void cancel_reservation(CellState& c, Row& row) {
    const std::uint32_t held = row.last_reserved;
    if (held == kNoCell) return;
    row.last_reserved = kNoCell;
    send(c.id, held, Message{Row{row.portable}, c.id, Message::kCancel});
    ++c.reservations_cancelled;
  }

  void send(std::uint32_t from, std::uint32_t to, const Message& m) {
    runner_.post_row(from, to, cfg_.tick, m);
  }

  void on_message(std::size_t cell, const Message& m) {
    CellState& c = cells_[cell];
    switch (m.kind) {
      case Message::kHop:
        on_arrival(c, m.row, m.from);
        break;
      case Message::kReserve:
        on_reserve(c, m.row.portable, workload_.demand[m.row.portable]);
        break;
      case Message::kCancel:
        unpark(c, m.row.portable);
        break;
    }
  }

  // --- milestone firing ----------------------------------------------------
  /// Fires every milestone due at `now` for `row` (a Row or a Resident) in
  /// `c`. Returns true when the portable departed (the caller removes the
  /// row and drops any reservation it still holds).
  template <class R>
  bool fire_milestones(CellState& c, R& row, double now) {
    const detail::ScaleMilestone* m = milestones(row.portable);
    const std::uint32_t p = row.portable;
    while (row.cursor < kStride && m[row.cursor].time <= now) {
      const detail::ScaleMilestone& ms = m[row.cursor];
      ++row.cursor;
      ++c.events;
      switch (ms.kind) {
        case detail::ScaleMilestone::kAppear: {
          row.target = detail::gateway_of(side_, workload_.room[p]);
          ++c.occupancy;
          const bool ok = admit_new(c, workload_.demand[p]);
          row.connected = ok ? 1 : 0;
          ok ? ++c.new_admitted : ++c.new_blocked;
          mix_outcome(c.hash, 0x11, p, c.id, ok);
          break;
        }
        case detail::ScaleMilestone::kEnter:
          row.target = workload_.room[p];
          break;
        case detail::ScaleMilestone::kLeave:
          row.target = workload_.home[p];
          break;
        case detail::ScaleMilestone::kDepart: {
          if (row.connected) release(c, workload_.demand[p]);
          --c.occupancy;
          ++c.departures;
          mix_outcome(c.hash, 0x44, p, c.id, true);
          return true;
        }
      }
    }
    return false;
  }

  // --- movement ------------------------------------------------------------
  /// Sends `row` one hop toward its target. Bandwidth is freed at the source
  /// as the portable leaves; connected stays set as "seeks a connection" so
  /// the arrival attempts handoff admission.
  void emit_hop(CellState& c, const Row& row) {
    const std::uint32_t next = detail::route_next(side_, c.id, row.target);
    if (row.connected) release(c, workload_.demand[row.portable]);
    --c.occupancy;
    send(c.id, next, Message{row, c.id, Message::kHop});
  }

  void on_arrival(CellState& d, Row row, std::uint32_t from) {
    const std::uint32_t dest = d.id;
    const std::uint32_t p = row.portable;
    const double bw = workload_.demand[p];
    ++d.handoffs;
    ++d.events;
    const std::uint64_t occ_before = d.occupancy;
    bool admitted = false;
    if (row.connected) {
      admitted = admit_handoff(d, p, bw);
      row.connected = admitted ? 1 : 0;
      admitted ? ++d.handoff_admitted : ++d.handoff_dropped;
    }
    ++d.occupancy;
    mix_outcome(d.hash, 0x22, p, (std::uint64_t(from) << 20) | dest, admitted);
    mix(d.hash, occ_before);

    const bool departed = fire_milestones(d, row, d.sim->now().to_seconds());
    const bool settled = !departed && row.target == dest;
    const std::uint32_t next =
        departed || settled ? kNoCell : detail::route_next(side_, dest, row.target);
    // The reservation the previous cell parked one hop ahead stays for its
    // owner, who consumes it on arrival there, while the walker is connected
    // and that cell is still its next hop. A walker that was dropped,
    // departed, settled or turned toward a new target cancels it.
    if (!row.connected || row.last_reserved != next) cancel_reservation(d, row);
    row.last_reserved = kNoCell;
    if (departed) return;
    if (settled) {
      const float due = due_of(row);
      d.residents.push_back(Resident{p, row.target, due, row.cursor, row.connected});
      d.next_due = std::min(d.next_due, due);
      return;
    }
    // Route-based advance reservation: park bandwidth two hops ahead, so the
    // reservation message (one tick) outruns the portable (two ticks) and
    // competing admissions at that cell see the parked bandwidth first.
    if (row.connected && next != row.target) {
      const std::uint32_t ahead = detail::route_next(side_, next, row.target);
      send(dest, ahead, Message{Row{p}, dest, Message::kReserve});
      row.last_reserved = ahead;
      ++d.reservations_placed;
    }
    emit_hop(d, row);
  }

  // --- per-cell tick -------------------------------------------------------
  /// After any tick every resident that has appeared (cursor > 0) is at its
  /// target, and a resident settled by on_arrival is at its target too. So a
  /// resident whose next milestone is still ahead neither fires nor walks:
  /// the scan skips it on its `due` alone, and a tick before the earliest
  /// `due` in the cell (`next_due`) returns at once. Both bounds are
  /// milestone times rounded down, which makes the skips exact. A row that is
  /// due fires, walks or gets a fresh `due`; the cell's bound is recomputed
  /// over the rows it keeps.
  void on_tick(CellState& c) {
    const double now = c.sim->now().to_seconds();
    if (now < double(c.next_due)) return;
    float next_due_in_cell = std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < c.residents.size();) {
      Resident& row = c.residents[i];
      if (now < double(row.due)) {
        next_due_in_cell = std::min(next_due_in_cell, row.due);
        ++i;
        continue;
      }
      if (fire_milestones(c, row, now)) {
        remove_resident(c, i);
        continue;
      }
      // cursor == 0 means the portable has not appeared yet (its target is
      // unset); everyone else walks when away from their target.
      if (row.cursor > 0 && row.target != c.id) {
        emit_hop(c, Row{row.portable, row.target, kNoCell, row.cursor, row.connected});
        remove_resident(c, i);
        continue;
      }
      row.due = due_of(row);
      next_due_in_cell = std::min(next_due_in_cell, row.due);
      ++i;
    }
    c.next_due = next_due_in_cell;
  }

  void remove_resident(CellState& c, std::size_t i) {
    // Swap-pop: the tail row is unvisited (iteration is front-to-back), so
    // it gets processed at index i on the next loop step.
    c.residents[i] = c.residents.back();
    c.residents.pop_back();
  }

  // --- reporting -----------------------------------------------------------
  [[nodiscard]] std::size_t state_bytes() const {
    std::size_t total = workload_.memory_bytes();
    total += cells_.capacity() * sizeof(CellState);
    for (const CellState& c : cells_) {
      total += c.residents.capacity() * sizeof(Resident);
      total += c.reserved.memory_bytes();
    }
    return total;
  }

  CampusScaleResult finish() {
    CampusScaleResult r;
    r.ticks = n_ticks_;
    std::uint64_t fold = kHashSeed;
    for (const CellState& c : cells_) {
      r.events += c.events;
      r.handoffs += c.handoffs;
      r.new_admitted += c.new_admitted;
      r.new_blocked += c.new_blocked;
      r.handoff_admitted += c.handoff_admitted;
      r.handoff_dropped += c.handoff_dropped;
      r.reservations_placed += c.reservations_placed;
      r.reservations_consumed += c.reservations_consumed;
      r.reservations_cancelled += c.reservations_cancelled;
      r.reservations_parked_at_end += c.reserved.size();
      r.departures += c.departures;
      mix(fold, c.hash);
    }
    r.outcome_hash = fold;
    r.state_bytes = state_bytes();
    r.bytes_per_portable =
        cfg_.portables ? double(r.state_bytes) / double(cfg_.portables) : 0.0;
    r.windows = runner_.stats().windows;
    r.dispatches = runner_.stats().dispatches;
    r.boundary_messages = runner_.stats().boundary_messages;
    if (obs::Registry* reg = cfg_.metrics) {
      reg->counter("scale.events").add(r.events);
      reg->counter("scale.ticks").add(r.ticks);
      reg->counter("scale.handoffs").add(r.handoffs);
      reg->counter("scale.new.admitted").add(r.new_admitted);
      reg->counter("scale.new.blocked").add(r.new_blocked);
      reg->counter("scale.handoff.admitted").add(r.handoff_admitted);
      reg->counter("scale.handoff.dropped").add(r.handoff_dropped);
      reg->counter("scale.reservations").add(r.reservations_placed);
      reg->counter("scale.reservations.consumed").add(r.reservations_consumed);
      reg->counter("scale.reservations.cancelled").add(r.reservations_cancelled);
      reg->counter("scale.departures").add(r.departures);
      reg->gauge("scale.state_bytes").set(double(r.state_bytes));
      reg->gauge("scale.bytes_per_portable").set(r.bytes_per_portable);
      reg->gauge("sim.time_seconds").set(cfg_.duration.to_seconds());
      reg->counter("sim.events_fired").add(r.events);
      // Engine totals; both are batch- and shard-invariant (dispatches are
      // not, and deliberately stay out of the metrics block).
      reg->counter("shard.windows").add(r.windows);
      reg->counter("shard.boundary_messages").add(r.boundary_messages);
    }
    if (cfg_.profiler != nullptr) {
      r.profile = cfg_.profiler->snapshot();
      runner_.export_profile(r.profile);
    }
    return r;
  }

  CampusScaleConfig cfg_;
  mobility::CellMap map_;
  std::size_t side_;
  detail::ScaleWorkload workload_;  // read-only after construction
  sim::ShardedRunner runner_;
  std::vector<CellState> cells_;
  std::size_t n_ticks_ = 0;
};

}  // namespace

CampusScaleResult run_campus_scale_sharded(const CampusScaleConfig& config) {
  ShardedScaleSim sim(config);
  return sim.run();
}

}  // namespace imrm::experiments
