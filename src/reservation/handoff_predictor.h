// Aggregate handoff-count predictors for lounges (Sections 6.2.2, 6.2.3).
//
// Cafeteria: slow time-varying profile, so a linear model n = a*t + m fit by
// least squares over the last three slots predicts the next slot. With
// equally spaced samples n_{t-2}, n_{t-1}, n_t the closed forms are
//   a = (n_t - n_{t-2}) / 2
//   m = ((3t-1) n_{t-2} + 2 n_{t-1} + (5-3t) n_t) / 6
// and the prediction is N(t+1) = a (t+1) + m.
//
// NOTE: the paper prints m = ((5+3t) n_{t-2} + 2 n_{t-1} - (3t+1) n_t)/6,
// which is not the least-squares intercept (on exactly linear data it
// predicts n_{t-1} instead of n_{t+1}); we implement the standard fit the
// text says it applies ("applying the standard Least-square technique").
// EXPERIMENTS.md records this deviation.
//
// Default lounge: one-step memory, N(t+1) = N(t).
#pragma once

#include <array>
#include <cstddef>
#include <span>

namespace imrm::reservation {

/// Paper's least-squares coefficients for three consecutive samples taken at
/// slots t-2, t-1, t.
struct LinearFit {
  double a = 0.0;
  double m = 0.0;

  [[nodiscard]] double at(double t) const { return a * t + m; }
};

[[nodiscard]] LinearFit least_squares_3(double n_tm2, double n_tm1, double n_t, double t);

/// Sliding window of per-slot handoff counts with the cafeteria predictor.
class CafeteriaPredictor {
 public:
  /// Samples the least-squares fit reads; older ones slide out.
  static constexpr std::size_t kWindow = 3;

  /// Records the handoff count of the just-finished slot.
  void push(double count);

  /// Predicted handoffs for the next slot; falls back to the latest
  /// observation until three samples exist, and to 0 with no history.
  /// Negative extrapolations clamp to zero (a count cannot be negative).
  [[nodiscard]] double predict_next() const;

  [[nodiscard]] std::size_t samples() const { return size_; }

  // Checkpoint accessors (ISSUE 4): the window plus the latest slot index
  // fully determine the predictor.
  [[nodiscard]] std::span<const double> history() const {
    return {window_.data(), size_};
  }
  [[nodiscard]] std::size_t latest_slot() const { return slot_; }
  /// Throws std::invalid_argument when `window` holds more than kWindow
  /// samples.
  void restore(std::span<const double> window, std::size_t slot);

 private:
  std::array<double, kWindow> window_{};  // the first size_ slots, oldest first
  std::size_t size_ = 0;
  std::size_t slot_ = 0;  // index of the latest pushed slot
};

/// One-step-memory predictor for the default lounge.
class OneStepPredictor {
 public:
  void push(double count) { last_ = count; }
  [[nodiscard]] double predict_next() const { return last_; }

 private:
  double last_ = 0.0;
};

}  // namespace imrm::reservation
