#include "reservation/handoff_predictor.h"

#include <algorithm>
#include <stdexcept>

namespace imrm::reservation {

LinearFit least_squares_3(double n_tm2, double n_tm1, double n_t, double t) {
  LinearFit fit;
  fit.a = (n_t - n_tm2) / 2.0;
  // Least-squares intercept through (t-2, n_tm2), (t-1, n_tm1), (t, n_t):
  // m = mean(n) - a * mean(time); see the header for the paper-typo note.
  fit.m = ((3.0 * t - 1.0) * n_tm2 + 2.0 * n_tm1 + (5.0 - 3.0 * t) * n_t) / 6.0;
  return fit;
}

void CafeteriaPredictor::push(double count) {
  if (size_ == kWindow) {
    std::copy(window_.begin() + 1, window_.end(), window_.begin());
    --size_;
  }
  window_[size_++] = count;
  ++slot_;
}

void CafeteriaPredictor::restore(std::span<const double> window, std::size_t slot) {
  if (window.size() > kWindow) {
    throw std::invalid_argument("CafeteriaPredictor: window holds more than 3 samples");
  }
  std::copy(window.begin(), window.end(), window_.begin());
  size_ = window.size();
  slot_ = slot;
}

double CafeteriaPredictor::predict_next() const {
  if (size_ == 0) return 0.0;
  if (size_ < kWindow) return window_[size_ - 1];
  const double t = double(slot_ - 1);  // the latest sample's slot index
  const LinearFit fit = least_squares_3(window_[0], window_[1], window_[2], t);
  return std::max(fit.at(t + 1.0), 0.0);
}

}  // namespace imrm::reservation
