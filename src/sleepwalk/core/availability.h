// Block availability estimation (paper §2.1 — the first contribution).
//
// From each probing round's biased sample (p positive of t probes, probing
// stops at the first positive) three EWMA estimates are maintained:
//
//   p-hat_s = alpha_s * p + (1 - alpha_s) * p-hat_s       (gain 0.1)
//   t-hat_s = alpha_s * t + (1 - alpha_s) * t-hat_s
//   A-hat_s = p-hat_s / t-hat_s                            (short-term)
//
//   same with alpha_l = 0.01                               (long-term)
//
//   d-hat_l = alpha_l * |A-hat_l - p/t| + (1 - alpha_l) * d-hat_l
//   A-hat_o = max(A-hat_l - d-hat_l / 2, 0.1)              (operational)
//
// Tracking p and t *separately* is the crux: with stop-on-first-positive
// sampling, E[p/t] > A (each positive arrives with a small t), but
// E[p]/E[t] = A exactly. The paper's earlier EWMA-of-the-ratio variant
// (kept here as RatioEwmaEstimator) "consistently over-estimates A-hat".
// The operational value is deliberately pushed *below* the long-term
// estimate by half the tracked deviation because Trinocular's outage
// inference produces false outages whenever A-hat_o > A (§2.1.1), and is
// floored at 0.1 because tiny values would demand excessive probing.
#ifndef SLEEPWALK_CORE_AVAILABILITY_H_
#define SLEEPWALK_CORE_AVAILABILITY_H_

#include <algorithm>
#include <cmath>

namespace sleepwalk::core {

/// Gains and bounds of the estimator (defaults are the paper's).
struct AvailabilityConfig {
  double alpha_short = 0.1;
  double alpha_long = 0.01;
  double operational_floor = 0.1;
  double deviation_margin = 0.5;  ///< A-hat_o = A-hat_l - margin * d-hat_l
  /// Initial deviation estimate; nonzero keeps early operational values
  /// conservative while history is still thin.
  double initial_deviation = 0.1;
};

/// Snapshot of an estimator's EWMA state. The measuring engine keeps a
/// block's final state in its BlockAnalysis, which campaign checkpoints
/// persist so a resumed run continues the exact same trajectories. The
/// store engine's columnar block store (core/block_store.h) keeps the
/// five doubles and the round counter each in their own column, and the
/// batched update loops below are the only arithmetic either
/// representation runs — scalar and SoA trajectories are bitwise
/// identical by construction.
struct AvailabilityState {
  double p_short = 0.0;
  double t_short = 1.0;
  double p_long = 0.0;
  double t_long = 1.0;
  double deviation = 0.0;
  int rounds = 0;
};

/// A-hat_s for a state snapshot.
inline double AvailabilityShortTerm(const AvailabilityState& state) noexcept {
  return state.t_short > 0.0 ? state.p_short / state.t_short : 0.0;
}

/// A-hat_l for a state snapshot.
inline double AvailabilityLongTerm(const AvailabilityState& state) noexcept {
  return state.t_long > 0.0 ? state.p_long / state.t_long : 0.0;
}

/// A-hat_o for a state snapshot.
inline double AvailabilityOperational(
    const AvailabilityState& state, const AvailabilityConfig& config) noexcept {
  return std::max(
      AvailabilityLongTerm(state) - config.deviation_margin * state.deviation,
      config.operational_floor);
}

/// One round's EWMA update — THE estimator step. AvailabilityEstimator
/// delegates here and core/block_store.h runs this same body in its
/// batched across-blocks loop; keeping a single definition is what makes
/// the two representations produce bit-identical doubles (same
/// expressions, same order, no re-association).
inline void AvailabilityObserve(AvailabilityState& state,
                                const AvailabilityConfig& config,
                                int positives, int total) noexcept {
  if (total <= 0) return;
  const auto p = static_cast<double>(positives);
  const auto t = static_cast<double>(total);

  state.p_short =
      config.alpha_short * p + (1.0 - config.alpha_short) * state.p_short;
  state.t_short =
      config.alpha_short * t + (1.0 - config.alpha_short) * state.t_short;

  state.p_long =
      config.alpha_long * p + (1.0 - config.alpha_long) * state.p_long;
  state.t_long =
      config.alpha_long * t + (1.0 - config.alpha_long) * state.t_long;

  // Deviation of this round's raw ratio from the long-term estimate.
  const double sample_deviation =
      std::fabs(AvailabilityLongTerm(state) - p / t);
  state.deviation = config.alpha_long * sample_deviation +
                    (1.0 - config.alpha_long) * state.deviation;
  ++state.rounds;
}

/// The paper's three-estimate availability tracker for one /24 block.
class AvailabilityEstimator {
 public:
  /// `initial_availability` seeds both EWMAs ("based on historical data
  /// over several years. They may be off significantly").
  explicit AvailabilityEstimator(double initial_availability,
                                 const AvailabilityConfig& config = {});

  /// Feeds one round's observation: `positives` of `total` probes
  /// answered. Rounds with total == 0 are ignored.
  void Observe(int positives, int total) noexcept;

  /// Short-term estimate A-hat_s: noisy, adapts in a few rounds; the
  /// input to diurnal detection.
  double ShortTerm() const noexcept;

  /// Long-term estimate A-hat_l.
  double LongTerm() const noexcept;

  /// Tracked mean absolute deviation d-hat_l.
  double Deviation() const noexcept { return state_.deviation; }

  /// Operational estimate A-hat_o: conservative, designed to (almost)
  /// never exceed the true A; what outage inference consumes.
  double Operational() const noexcept;

  int rounds_observed() const noexcept { return state_.rounds; }

  /// Captures / restores the full EWMA state (checkpoint/resume).
  AvailabilityState ExportState() const noexcept { return state_; }
  void RestoreState(const AvailabilityState& state) noexcept {
    state_ = state;
  }

 private:
  AvailabilityConfig config_;
  AvailabilityState state_;
};

/// The legacy estimator used for dataset A_12w: EWMA applied directly to
/// the per-round ratio p/t. Kept for the ablation bench — it consistently
/// over-estimates under early-stopping sampling (§2.1.2 parenthetical).
class RatioEwmaEstimator {
 public:
  explicit RatioEwmaEstimator(double initial_availability,
                              double alpha = 0.1) noexcept
      : alpha_(alpha), value_(initial_availability) {}

  void Observe(int positives, int total) noexcept {
    if (total <= 0) return;
    const double ratio =
        static_cast<double>(positives) / static_cast<double>(total);
    value_ = alpha_ * ratio + (1.0 - alpha_) * value_;
  }

  double Value() const noexcept { return value_; }

 private:
  double alpha_;
  double value_;
};

}  // namespace sleepwalk::core

#endif  // SLEEPWALK_CORE_AVAILABILITY_H_
