// Lounge policies: cafeteria (Section 6.2.2) and default lounge (Section
// 6.2.3), per the Section 6.4 summary.
//
// Both work in discrete time slots. Each slot the policy counts the
// handoffs out of its cell, predicts the next slot's count (least-squares
// for the cafeteria, one-step memory for the default lounge), and asks the
// neighbors to reserve bandwidth for that many portables, split by the cell
// profile's handoff distribution. When at least one neighbor is a *default*
// lounge (which predicts poorly), the cell additionally predicts its own
// incoming handoffs and reserves locally; the default lounge uses the
// probabilistic algorithm of Section 6.3 for that local reservation.
#pragma once

#include <optional>

#include "reservation/handoff_predictor.h"
#include "reservation/policy.h"
#include "reservation/probabilistic.h"

namespace imrm::reservation {

/// Shared slot machinery for the two lounge policies.
class LoungePolicyBase : public AdvanceReservationPolicy {
 public:
  /// Throws std::invalid_argument unless slot > 0 and per_user_bandwidth > 0.
  LoungePolicyBase(PolicyEnv env, CellId cell, sim::Duration slot,
                   qos::BitsPerSecond per_user_bandwidth);

  void on_handoff(const mobility::HandoffEvent& event) override;
  void refresh(sim::SimTime now) override;

  [[nodiscard]] CellId cell() const { return cell_; }
  [[nodiscard]] bool has_default_neighbor() const;

  // Checkpoint (ISSUE 4): the open slot's counts, the slot cursor, and the
  // derived class's predictor windows (via the protected hooks below).
  void save_state(sim::CheckpointWriter& w) const override;
  void restore_state(sim::CheckpointReader& r) override;

 protected:
  virtual void save_predictors(sim::CheckpointWriter& w) const = 0;
  virtual void restore_predictors(sim::CheckpointReader& r) = 0;

  /// Predicted outgoing handoffs for the next slot.
  [[nodiscard]] virtual double predict_outgoing() const = 0;
  /// Predicted incoming handoffs for the next slot (for the self-reservation
  /// path); default implementations mirror the outgoing predictor fed with
  /// incoming counts.
  [[nodiscard]] virtual double predict_incoming() const = 0;
  /// Local reservation when a default neighbor exists; the default lounge
  /// overrides this with the probabilistic bound of eq. 7.
  [[nodiscard]] virtual qos::BitsPerSecond self_reservation() const;

  virtual void slot_closed(double outgoing_count, double incoming_count) = 0;

  CellId cell_;
  sim::Duration slot_;
  qos::BitsPerSecond per_user_bandwidth_;

 private:
  void close_slot(sim::SimTime now);

  double outgoing_this_slot_ = 0.0;
  double incoming_this_slot_ = 0.0;
  std::size_t current_slot_ = 0;
  NeighborSplit split_;
};

class CafeteriaPolicy final : public LoungePolicyBase {
 public:
  using LoungePolicyBase::LoungePolicyBase;
  [[nodiscard]] std::string name() const override { return "cafeteria"; }

 protected:
  [[nodiscard]] double predict_outgoing() const override {
    return outgoing_.predict_next();
  }
  [[nodiscard]] double predict_incoming() const override {
    return incoming_.predict_next();
  }
  void slot_closed(double outgoing_count, double incoming_count) override {
    outgoing_.push(outgoing_count);
    incoming_.push(incoming_count);
  }
  void save_predictors(sim::CheckpointWriter& w) const override;
  void restore_predictors(sim::CheckpointReader& r) override;

 private:
  CafeteriaPredictor outgoing_;
  CafeteriaPredictor incoming_;
};

class DefaultLoungePolicy final : public LoungePolicyBase {
 public:
  DefaultLoungePolicy(PolicyEnv env, CellId cell, sim::Duration slot,
                      qos::BitsPerSecond per_user_bandwidth,
                      std::optional<ProbabilisticReservation> probabilistic = std::nullopt);

  [[nodiscard]] std::string name() const override { return "default-lounge"; }

 protected:
  [[nodiscard]] double predict_outgoing() const override {
    return outgoing_.predict_next();
  }
  [[nodiscard]] double predict_incoming() const override {
    return incoming_.predict_next();
  }
  [[nodiscard]] qos::BitsPerSecond self_reservation() const override;
  void slot_closed(double outgoing_count, double incoming_count) override {
    outgoing_.push(outgoing_count);
    incoming_.push(incoming_count);
  }
  void save_predictors(sim::CheckpointWriter& w) const override {
    w.f64(outgoing_.predict_next());
    w.f64(incoming_.predict_next());
  }
  void restore_predictors(sim::CheckpointReader& r) override {
    outgoing_.push(r.f64());
    incoming_.push(r.f64());
  }

 private:
  OneStepPredictor outgoing_;
  OneStepPredictor incoming_;
  std::optional<ProbabilisticReservation> probabilistic_;
};

}  // namespace imrm::reservation
