// Advance reservation policies (Sections 2.2, 6.1-6.4).
//
// On refresh(now) a policy brings the directory's reservations up to date
// with the current workload: which bandwidth is held for which predicted
// handoff. The per-portable policies (RosterPolicy below) recompute only
// the cells whose inputs changed since their last refresh; the result is
// bit-identical to a rebuild from scratch (DESIGN.md "Incremental
// reservation refresh"). The policies compared in the paper's Figure 5
// experiment:
//
//  - BruteForcePolicy: reserve each mobile portable's bandwidth in ALL
//    neighbors of its current cell (the conservative scheme of [7]).
//  - AggregatePolicy: reserve, per cell, the expected incoming handoff
//    bandwidth computed from the neighboring cells' profile handoff
//    distributions (anonymous reservation).
//  - MeetingRoomPolicy: the booking-calendar scheme of Section 6.2.1 with
//    the paper's windows (Delta_s = 10 min before start, 5-min release
//    timer; Delta_a = 5 min before end, 15-min release timer in neighbors).
//  - StaticPolicy: a fixed guard fraction of capacity per cell — the
//    "static reservation algorithm" the paper says its default algorithm
//    outperforms.
//  - NoReservationPolicy: lower-bound reference.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mobility/floorplan.h"
#include "mobility/manager.h"
#include "profiles/profile_server.h"
#include "reservation/directory.h"
#include "sim/checkpoint.h"
#include "sim/time.h"

namespace imrm::reservation {

/// Environment a policy reads: the cell map, the accounts it manipulates,
/// profiles for aggregate statistics, the live mobility roster and the
/// workload's demand table.
///
/// Between refreshes the workload changes only through the mobility
/// manager (add_portable, move, restore_state), the profile server's
/// mutators and the demand table's entries; the cell map (neighbors,
/// occupants) is configuration, fixed once a policy has refreshed. The
/// portable-specific reservations in the directory belong to the policy:
/// the one outside edit it expects is a handoff consuming the arriving
/// portable's own reservation (CellBandwidth::admit_handoff).
struct PolicyEnv {
  const mobility::CellMap* map = nullptr;
  ReservationDirectory* directory = nullptr;
  const profiles::ProfileServer* profiles = nullptr;
  /// Residents per cell (ascending id), static/mobile class and previous
  /// cell of every portable. Policies read it during refresh() and never
  /// move portables, so its by-reference portables_in stays valid.
  const mobility::MobilityManager* mobility = nullptr;
  /// b_min of each portable's connection, indexed by PortableId::value();
  /// 0 means no connection, and so does an id past the end.
  const std::vector<qos::BitsPerSecond>* demand = nullptr;

  [[nodiscard]] qos::BitsPerSecond demand_of(PortableId p) const {
    return p.value() < demand->size() ? (*demand)[p.value()] : 0.0;
  }

  /// Throws std::invalid_argument naming `policy` unless map, directory
  /// and mobility are all set; policies that read the roster call it at
  /// construction instead of crashing at their first refresh().
  void require_roster(const std::string& policy) const;
  /// require_roster, and the demand table set too: for the policies that
  /// reserve per connected portable.
  void require_workload(const std::string& policy) const;
};

/// How a lounge or meeting room splits the handoffs it expects out of
/// `cell` among the cell's neighbors: by the cell profile's aggregate
/// distribution, uniform when the cell has no profile data. Both buffers
/// are member scratch, so a refresh that splits allocates nothing once warm.
class NeighborSplit {
 public:
  /// One share per neighbor of `cell`, in neighbor order; valid until the
  /// next compute(). The cell must have at least one neighbor.
  const std::vector<double>& compute(const PolicyEnv& env, CellId cell);

 private:
  std::vector<double> split_;
  std::vector<profiles::CellProfile::NeighborShare> dist_;
};

class AdvanceReservationPolicy {
 public:
  explicit AdvanceReservationPolicy(PolicyEnv env) : env_(std::move(env)) {}
  virtual ~AdvanceReservationPolicy() = default;

  AdvanceReservationPolicy(const AdvanceReservationPolicy&) = delete;
  AdvanceReservationPolicy& operator=(const AdvanceReservationPolicy&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Brings the reservations up to date with the current workload state.
  virtual void refresh(sim::SimTime now) = 0;

  /// Observes a handoff (meeting-room policy counts arrivals/departures).
  virtual void on_handoff(const mobility::HandoffEvent& event) { (void)event; }

  /// A standalone policy owns the whole reservation directory and clears it
  /// at the top of each refresh. Policies hosted by the PolicyDispatcher are
  /// set non-standalone: the dispatcher clears once and the hosted policies
  /// contribute additively.
  void set_standalone(bool standalone) { standalone_ = standalone; }

  // --- checkpoint/restore (ISSUE 4) ---------------------------------------
  // Policies whose refresh() derives everything from the live workload
  // (none/static/brute-force/aggregate) carry no soft state and inherit
  // these no-ops (a RosterPolicy's restore only drops its cache); stateful
  // policies (meeting-room arrival counters, lounge slot machinery,
  // dispatcher bookkeeping) override both.
  virtual void save_state(sim::CheckpointWriter& w) const { (void)w; }
  virtual void restore_state(sim::CheckpointReader& r) { (void)r; }

 protected:
  PolicyEnv env_;
  bool standalone_ = true;
};

class NoReservationPolicy final : public AdvanceReservationPolicy {
 public:
  using AdvanceReservationPolicy::AdvanceReservationPolicy;
  [[nodiscard]] std::string name() const override { return "none"; }
  void refresh(sim::SimTime) override { env_.directory->clear_reservations(); }
};

/// Base of the policies that make portable-specific reservations from the
/// roster: brute force, aggregate and the dispatcher's per-portable part.
///
/// A derived policy says where a mobile, connected portable's reservation
/// goes (shares_of). refresh_specific() keeps every portable's inputs and
/// shares from the last refresh and, per directory cell, the shares aimed
/// at it in the full rebuild's order (ascending source cell, then
/// portable). It diffs the inputs that can have changed against the live
/// workload, edits the changed shares in place, and restates each edited
/// cell's total as the sum over its list in that order, so every
/// floating-point total comes out bit-identical to a rebuild. The work
/// follows the change: a move visits the mover, a handoff's profile update
/// the mover and the holders of the cell it left, a clock advance only
/// reaches past the holder that entered its cell first. The first refresh,
/// the first after restore_state and the first after more than one roster
/// change rebuild every cell through the same code, with every cell dirty.
/// Assumes the simulated clock never runs backwards between refreshes.
/// DESIGN.md "Incremental reservation refresh" gives the dirty rule and why
/// it is complete.
class RosterPolicy : public AdvanceReservationPolicy {
 public:
  /// `reads_profiles`: whether shares_of reads the profile server, so a
  /// profile revision is one of a portable's inputs.
  RosterPolicy(PolicyEnv env, bool reads_profiles)
      : AdvanceReservationPolicy(std::move(env)), reads_profiles_(reads_profiles) {}

  /// No soft state of its own: the restored directory and profiles are the
  /// truth, so the cache is dropped and the next refresh rebuilds.
  void restore_state(sim::CheckpointReader& r) override {
    (void)r;
    rebuild_ = true;
  }

 protected:
  /// What a portable's shares are computed from. The default value is what
  /// a static or unconnected portable gets: it reserves nothing. The
  /// revisions stay 0 for a policy that does not read profiles.
  struct Inputs {
    CellId cell = CellId::invalid();
    CellId previous = CellId::invalid();
    qos::BitsPerSecond demand = 0.0;
    std::uint64_t portable_revision = 0;  // ProfileServer::portable_revision
    std::uint64_t cell_revision = 0;      // ProfileServer::cell_revision of `cell`
    friend bool operator==(const Inputs&, const Inputs&) = default;
  };
  /// `bandwidth` reserved for the portable in `cell`.
  struct Share {
    CellId cell;
    qos::BitsPerSecond bandwidth;
    friend bool operator==(const Share&, const Share&) = default;
  };

  /// Appends the shares of mobile portable `p` holding a connection, given
  /// its inputs: each in a directory cell, each cell at most once.
  virtual void shares_of(PortableId p, const Inputs& in, std::vector<Share>& out) = 0;
  /// Called for every portable whose shares changed.
  virtual void shares_changed(PortableId p, std::span<const Share> shares) {
    (void)p;
    (void)shares;
  }

  /// Brings the directory's specific reservations up to date; leaves the
  /// anonymous reservations alone.
  void refresh_specific();
  /// True when the next refresh_specific rebuilds every cell.
  [[nodiscard]] bool rebuild_pending() const { return rebuild_; }

 private:
  struct Entry {
    Inputs inputs;
    std::uint32_t share_count = 0;  // its shares open slot block p of pool_
    std::uint32_t slot = 0;         // its index in holders_ while it holds inputs
  };
  /// A share as the cell it is aimed at lists it, keyed by (source cell,
  /// portable) packed into one ascending number.
  struct Aimed {
    std::uint64_t key;
    qos::BitsPerSecond bandwidth;
  };
  [[nodiscard]] static std::uint64_t aimed_key(std::uint32_t source, std::uint32_t p) {
    return std::uint64_t(source) << 32 | p;
  }
  /// A directory cell's view: how many shares are aimed at it (they open
  /// its slot block of aimed_) and whether this refresh edited them.
  struct Target {
    std::uint32_t count = 0;
    bool dirty = false;
  };

  [[nodiscard]] Inputs inputs_now(PortableId p) const;
  [[nodiscard]] std::span<const Share> shares_held(std::uint32_t p) const {
    return {pool_.data() + std::size_t(p) * stride_, entries_[p].share_count};
  }
  /// Stores shares_ as portable p's, first widening every block when they
  /// do not fit.
  void hold_shares(std::uint32_t p);
  void diff(PortableId p, bool everything);
  void leave_holders(PortableId p);
  void join_holders(PortableId p);
  /// Takes the share of the holder `key` names out of (aim: puts it into)
  /// the list and the account of the cell it is aimed at, and marks that
  /// cell dirty.
  void unaim(std::uint64_t key, const Share& share);
  void aim(std::uint64_t key, const Share& share);
  /// Turns the shares `held` of a holder that did not move into shares_: a
  /// share that keeps its cell is rewritten in place, an unchanged one is
  /// left alone.
  void reaim(std::uint64_t key, std::span<const Share> held);
  /// The shares aimed at `cell`, sorted by (source, portable): the order a
  /// full rebuild reserves them in.
  [[nodiscard]] std::span<Aimed> aimed_at(std::uint32_t cell) {
    return {aimed_.data() + std::size_t(cell) * aimed_stride_, targets_[cell].count};
  }
  Target& mark_dirty(CellId cell);
  void restate_dirty_cells();

  bool reads_profiles_;
  std::vector<Entry> entries_;  // by PortableId::value()
  // Every portable's shares in one table of `stride_` slots per portable,
  // stride_ being the longest share list seen: the table is sized with the
  // roster and widened a few times at most, never per share.
  std::vector<Share> pool_;
  std::size_t stride_ = 0;
  std::vector<std::uint32_t> holders_;  // the portables holding inputs, in no order
  // The per-cell lists in one table of `aimed_stride_` slots per cell,
  // doubled when a list outgrows it; both are sized at the first refresh.
  std::vector<Target> targets_;  // by CellId::value()
  std::vector<Aimed> aimed_;
  std::size_t aimed_stride_ = 0;
  std::vector<std::uint32_t> dirty_;  // the cells whose Target is dirty, each once
  bool rebuild_ = true;
  // What the last refresh saw.
  std::uint64_t roster_revision_ = 0;
  std::uint64_t profile_revision_ = 0;
  std::vector<qos::BitsPerSecond> demand_;
  // The holder that entered its cell first, so turns static (T_th) first.
  // Stale once it leaves the holders, until the end of that refresh.
  PortableId first_to_turn_ = PortableId::invalid();
  sim::SimTime first_entered_ = sim::SimTime::zero();
  bool first_stale_ = false;
  // Scratch, kept for its capacity.
  std::vector<std::uint32_t> visit_;
  std::vector<Share> shares_;
};

class BruteForcePolicy final : public RosterPolicy {
 public:
  explicit BruteForcePolicy(PolicyEnv env);
  [[nodiscard]] std::string name() const override { return "brute-force"; }
  void refresh(sim::SimTime now) override;

 private:
  void shares_of(PortableId p, const Inputs& in, std::vector<Share>& out) override;
};

class AggregatePolicy final : public RosterPolicy {
 public:
  explicit AggregatePolicy(PolicyEnv env);
  [[nodiscard]] std::string name() const override { return "aggregate"; }
  void refresh(sim::SimTime now) override;

 private:
  void shares_of(PortableId p, const Inputs& in, std::vector<Share>& out) override;

  /// A cell profile's aggregate distribution as of one revision.
  struct Distribution {
    std::uint64_t revision = 0;
    bool valid = false;
    std::vector<profiles::CellProfile::NeighborShare> shares;
  };
  std::vector<Distribution> distributions_;  // by CellId::value()
};

class StaticPolicy final : public AdvanceReservationPolicy {
 public:
  /// Throws std::invalid_argument unless guard_fraction is in [0, 1].
  StaticPolicy(PolicyEnv env, double guard_fraction);
  [[nodiscard]] std::string name() const override { return "static"; }
  void refresh(sim::SimTime) override;

 private:
  double guard_fraction_;
};

class MeetingRoomPolicy final : public AdvanceReservationPolicy {
 public:
  struct Params {
    sim::Duration before_start = sim::Duration::minutes(10);   // Delta_s
    sim::Duration start_release = sim::Duration::minutes(5);   // timer after T_s
    sim::Duration before_end = sim::Duration::minutes(5);      // Delta_a
    sim::Duration end_release = sim::Duration::minutes(15);    // timer after T_a
    qos::BitsPerSecond per_user_bandwidth = 0.0;  // expected b per attendee
  };

  /// Throws std::invalid_argument unless params.per_user_bandwidth > 0.
  MeetingRoomPolicy(PolicyEnv env, CellId room, profiles::BookingCalendar calendar,
                    Params params);

  [[nodiscard]] std::string name() const override { return "meeting-room"; }
  void refresh(sim::SimTime now) override;
  void on_handoff(const mobility::HandoffEvent& event) override;

  [[nodiscard]] std::size_t arrived() const { return arrived_; }
  [[nodiscard]] std::size_t left() const { return left_; }

  void save_state(sim::CheckpointWriter& w) const override {
    w.u64(arrived_);
    w.u64(left_);
    w.u64(meeting_epoch_);
  }
  void restore_state(sim::CheckpointReader& r) override {
    arrived_ = std::size_t(r.u64());
    left_ = std::size_t(r.u64());
    meeting_epoch_ = std::size_t(r.u64());
  }

 private:
  CellId room_;
  profiles::BookingCalendar calendar_;
  Params params_;
  std::size_t arrived_ = 0;  // N_arrived(t) for the current meeting
  std::size_t left_ = 0;     // N_left(t)
  std::size_t meeting_epoch_ = std::size_t(-1);  // which meeting the counters track
  NeighborSplit split_;
};

}  // namespace imrm::reservation
