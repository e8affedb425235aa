// The Section 6.4 summary as code: per-cell-class advance reservation
// dispatch.
//
// For every mobile portable with a connection, the dispatcher walks the
// paper's decision list:
//
//  1. next-predicted-cell from the portable profile  -> reserve there;
//  2. otherwise dispatch on the CURRENT cell's class:
//     office:   occupant of a neighboring office -> reserve in that office;
//               regular occupant of this office -> NO reservation anywhere;
//               otherwise aggregate history;
//     corridor: neighboring-office occupant -> reserve in that office;
//               otherwise aggregate history;
//     meeting room / cafeteria / default lounge: the per-portable decision
//               defers to the lounge policies (collective, handled by
//               MeetingRoomPolicy / CafeteriaPolicy / DefaultLoungePolicy,
//               which the dispatcher hosts and refreshes alongside);
//  3. nothing known -> the cell's B_dyn pool absorbs the eventual handoff
//     (the probabilistic algorithm covered by DefaultLoungePolicy).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "prediction/predictor.h"
#include "reservation/lounge_policy.h"
#include "reservation/policy.h"
#include "sim/flat_map.h"

namespace imrm::reservation {

class PolicyDispatcher final : public RosterPolicy {
 public:
  struct Params {
    qos::BitsPerSecond per_user_bandwidth = qos::kbps(28);
    sim::Duration lounge_slot = sim::Duration::minutes(1);
  };

  /// `predictor` implements level 1 + 2 and must read env.profiles: the
  /// per-portable cache keys on that server's revisions (throws
  /// std::invalid_argument otherwise). Lounge cells get their collective
  /// policies instantiated automatically from the map's cell classes.
  /// Meeting-room calendars are read from the profile server.
  PolicyDispatcher(PolicyEnv env, const prediction::ThreeLevelPredictor& predictor,
                   const profiles::ProfileServer& server, Params params);

  [[nodiscard]] std::string name() const override { return "dispatcher"; }
  void refresh(sim::SimTime now) override;
  void on_handoff(const mobility::HandoffEvent& event) override;

  /// Where (if anywhere) the last refresh reserved for a portable — for
  /// tests and introspection.
  [[nodiscard]] std::optional<CellId> reserved_cell(PortableId portable) const;

  // Checkpoint (ISSUE 4): the last-reserved bookkeeping plus the hosted
  // lounge/meeting policies, chained in construction order (deterministic —
  // both sides instantiate them from the same cell map).
  void save_state(sim::CheckpointWriter& w) const override;
  void restore_state(sim::CheckpointReader& r) override;

 private:
  // The per-portable part (steps 1 and 2 for offices and corridors).
  void shares_of(PortableId p, const Inputs& in, std::vector<Share>& out) override;
  void shares_changed(PortableId p, std::span<const Share> shares) override;

  const prediction::ThreeLevelPredictor* predictor_;
  Params params_;
  std::vector<std::unique_ptr<LoungePolicyBase>> lounge_policies_;
  std::vector<std::unique_ptr<MeetingRoomPolicy>> meeting_policies_;
  // Keyed on PortableId::value(); values are CellId::value() (FlatMap wants
  // default-constructible unsigned values).
  sim::FlatMap<std::uint32_t, std::uint32_t> last_reserved_;
};

}  // namespace imrm::reservation
