#include "sleepwalk/core/diurnal.h"

#include <algorithm>

namespace sleepwalk::core {

namespace {

bool InDailySet(std::size_t bin, std::size_t daily, int neighbors) noexcept {
  return bin >= daily && bin <= daily + static_cast<std::size_t>(neighbors);
}

bool InHarmonicSet(std::size_t bin, std::size_t daily, int neighbors,
                   int max_harmonic) noexcept {
  for (int m = 2; m <= max_harmonic; ++m) {
    const std::size_t h = daily * static_cast<std::size_t>(m);
    if (bin >= h && bin <= h + static_cast<std::size_t>(neighbors)) {
      return true;
    }
  }
  return false;
}

}  // namespace

DiurnalResult ClassifySpectrum(const fft::Spectrum& spectrum, int n_days,
                               const DiurnalConfig& config) {
  DiurnalResult result;
  result.n_days = n_days;
  if (n_days < 2) return result;
  const auto daily = static_cast<std::size_t>(n_days);
  // Need at least the first harmonic in range for a meaningful test.
  if (spectrum.size() <= 2 * daily + 1) return result;

  // Daily component: the stronger of bins N_d and N_d + neighbor_bins.
  result.daily_bin = daily;
  result.daily_amplitude = spectrum.amplitude[daily];
  for (int j = 1; j <= config.neighbor_bins; ++j) {
    const std::size_t bin = daily + static_cast<std::size_t>(j);
    if (bin < spectrum.size() &&
        spectrum.amplitude[bin] > result.daily_amplitude) {
      result.daily_amplitude = spectrum.amplitude[bin];
      result.daily_bin = bin;
    }
  }
  result.phase = spectrum.Phase(result.daily_bin);

  // Scan all non-DC bins for the overall winner, the strongest
  // non-harmonic competitor, and the strongest harmonic.
  double best = -1.0;
  std::size_t best_bin = 0;
  double best_other = 0.0;   // outside daily AND harmonic sets
  double best_harmonic = 0.0;
  for (std::size_t k = 1; k < spectrum.size(); ++k) {
    const double amp = spectrum.amplitude[k];
    if (amp > best) {
      best = amp;
      best_bin = k;
    }
    if (InDailySet(k, daily, config.neighbor_bins)) continue;
    if (InHarmonicSet(k, daily, config.neighbor_bins, config.max_harmonic)) {
      best_harmonic = std::max(best_harmonic, amp);
    } else {
      best_other = std::max(best_other, amp);
    }
  }
  result.strongest_bin = best_bin;
  result.strongest_amplitude = best;
  result.strongest_cycles_per_day =
      static_cast<double>(best_bin) / static_cast<double>(daily);

  const bool strongest_is_daily =
      InDailySet(best_bin, daily, config.neighbor_bins);
  const bool strongest_is_first_harmonic =
      best_bin >= 2 * daily &&
      best_bin <= 2 * daily + static_cast<std::size_t>(config.neighbor_bins);

  if (strongest_is_daily &&
      result.daily_amplitude >= config.strict_dominance * best_other &&
      result.daily_amplitude > best_harmonic) {
    result.classification = Diurnality::kStrictlyDiurnal;
  } else if (strongest_is_daily || strongest_is_first_harmonic) {
    result.classification = Diurnality::kRelaxedDiurnal;
  }
  return result;
}

DiurnalResult ClassifyDiurnal(std::span<const double> series, int n_days,
                              const DiurnalConfig& config,
                              const obs::Context* obs) {
  DiurnalResult result;
  result.n_days = n_days;
  if (n_days < 2 || series.size() < 4) return result;
  fft::Spectrum spectrum;
  {
    const auto span = obs != nullptr ? obs->Span("analyze.fft")
                                     : obs::ScopedSpan{};
    spectrum = fft::ComputeSpectrum(series, /*remove_mean=*/true);
  }
  return ClassifySpectrum(spectrum, n_days, config);
}

DiurnalResult ClassifyDiurnal(std::span<const double> series, int n_days,
                              const DiurnalConfig& config,
                              const obs::Context* obs,
                              AnalysisScratch& scratch) {
  DiurnalResult result;
  result.n_days = n_days;
  if (n_days < 2 || series.size() < 4) return result;
  {
    const auto span = obs != nullptr ? obs->Span("analyze.fft")
                                     : obs::ScopedSpan{};
    const fft::SpectrumOptions options;  // remove_mean, like the wrapper
    fft::ComputeSpectrum(series, options, scratch.fft, scratch.spectrum);
  }
  return ClassifySpectrum(scratch.spectrum, n_days, config);
}

}  // namespace sleepwalk::core
