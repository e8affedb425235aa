// Advance reservation policies (Sections 2.2, 6.1-6.4).
//
// Every policy recomputes the reservation picture of the whole directory on
// refresh(): which bandwidth is held for which predicted handoff. The
// policies compared in the paper's Figure 5 experiment:
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

#include <functional>
#include <memory>
#include <string>

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
struct PolicyEnv {
  const mobility::CellMap* map = nullptr;
  ReservationDirectory* directory = nullptr;
  const profiles::ProfileServer* profiles = nullptr;
  /// Residents per cell (ascending id), static/mobile class and previous
  /// cell of every portable. Policies read it during refresh() and never
  /// move portables, so its by-reference portables_in stays valid.
  const mobility::MobilityManager* mobility = nullptr;
  /// b_min of the portable's connection (0 when it has none).
  std::function<qos::BitsPerSecond(PortableId)> demand;

  /// Throws std::invalid_argument naming `policy` unless map, directory
  /// and mobility are all set; policies that walk the roster call it at
  /// construction instead of crashing at their first refresh().
  void require_workload(const std::string& policy) const;
};

class AdvanceReservationPolicy {
 public:
  explicit AdvanceReservationPolicy(PolicyEnv env) : env_(std::move(env)) {}
  virtual ~AdvanceReservationPolicy() = default;

  AdvanceReservationPolicy(const AdvanceReservationPolicy&) = delete;
  AdvanceReservationPolicy& operator=(const AdvanceReservationPolicy&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Recomputes all reservations from the current workload state.
  virtual void refresh(sim::SimTime now) = 0;

  /// Observes a handoff (meeting-room policy counts arrivals/departures).
  virtual void on_handoff(const mobility::HandoffEvent& event) { (void)event; }

  /// A standalone policy owns the whole reservation directory and clears it
  /// at the top of each refresh. Policies hosted by the PolicyDispatcher are
  /// set non-standalone: the dispatcher clears once and the hosted policies
  /// contribute additively.
  void set_standalone(bool standalone) { standalone_ = standalone; }

  // --- checkpoint/restore (ISSUE 4) ---------------------------------------
  // Policies whose refresh() recomputes everything from the live workload
  // (none/static/brute-force/aggregate) carry no soft state and inherit
  // these no-ops; stateful policies (meeting-room arrival counters, lounge
  // slot machinery, dispatcher bookkeeping) override both.
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

class BruteForcePolicy final : public AdvanceReservationPolicy {
 public:
  explicit BruteForcePolicy(PolicyEnv env);
  [[nodiscard]] std::string name() const override { return "brute-force"; }
  void refresh(sim::SimTime now) override;
};

class AggregatePolicy final : public AdvanceReservationPolicy {
 public:
  explicit AggregatePolicy(PolicyEnv env);
  [[nodiscard]] std::string name() const override { return "aggregate"; }
  void refresh(sim::SimTime now) override;
};

class StaticPolicy final : public AdvanceReservationPolicy {
 public:
  StaticPolicy(PolicyEnv env, double guard_fraction)
      : AdvanceReservationPolicy(std::move(env)), guard_fraction_(guard_fraction) {}
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
};

}  // namespace imrm::reservation
