// Goertzel's algorithm: O(n) evaluation of a single DFT bin.
//
// When a caller only needs the diurnal bin (k = N_d) and its harmonics —
// e.g. streaming classification where the full spectrum is not required —
// Goertzel is far cheaper than a full FFT. bench/fft_perf quantifies the
// tradeoff, including the bin count at which a planned FFT wins
// (DESIGN.md §5, §10).
#ifndef SLEEPWALK_FFT_GOERTZEL_H_
#define SLEEPWALK_FFT_GOERTZEL_H_

#include <complex>
#include <cstddef>
#include <span>

namespace sleepwalk::fft {

/// Computes DFT bin k of a real input series with the same convention as
/// Forward(): alpha_k = sum_m x_m exp(-2*pi*i*m*k/n).
std::complex<double> Goertzel(std::span<const double> input, std::size_t k);

/// Evaluates several DFT bins in one pass over the input: walking the
/// series once instead of once per bin keeps it memory-bound rather than
/// cache-miss-bound on long campaigns (bench/fft_perf's crossover row). Each bin's recurrence performs
/// the exact arithmetic of the single-bin Goertzel in the same order, so
/// out[i] is bitwise identical to Goertzel(input, bins[i]).
/// `out.size()` must be >= `bins.size()`.
void GoertzelMany(std::span<const double> input,
                  std::span<const std::size_t> bins,
                  std::span<std::complex<double>> out);

}  // namespace sleepwalk::fft

#endif  // SLEEPWALK_FFT_GOERTZEL_H_
