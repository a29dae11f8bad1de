// Timeseries containers for per-round availability observations.
//
// Probing emits one observation per 11-minute round, but rounds can be
// missed or duplicated (~5% in the paper). RawSeries keeps the (round,
// value) pairs as observed; clean.h turns them into the evenly-sampled
// grid the FFT requires.
#ifndef SLEEPWALK_TS_SERIES_H_
#define SLEEPWALK_TS_SERIES_H_

#include <cstdint>
#include <vector>

namespace sleepwalk::ts {

/// The paper's sampling period: 11 minutes (R = 660 s).
inline constexpr std::int64_t kRoundSeconds = 660;

/// One raw observation: the round index it belongs to and the value.
struct Observation {
  std::int64_t round = 0;
  double value = 0.0;
};

/// An append-only sequence of raw observations, not necessarily evenly
/// spaced or deduplicated.
class RawSeries {
 public:
  void Add(std::int64_t round, double value) {
    observations_.push_back({round, value});
  }

  const std::vector<Observation>& observations() const noexcept {
    return observations_;
  }
  bool empty() const noexcept { return observations_.empty(); }
  std::size_t size() const noexcept { return observations_.size(); }

 private:
  std::vector<Observation> observations_;
};

/// An evenly-sampled series: values at rounds [first_round, first_round+n).
struct EvenSeries {
  std::int64_t first_round = 0;
  std::vector<double> values;

  std::size_t size() const noexcept { return values.size(); }
};

}  // namespace sleepwalk::ts

#endif  // SLEEPWALK_TS_SERIES_H_
