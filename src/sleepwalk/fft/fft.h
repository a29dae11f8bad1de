// Discrete Fourier transforms.
//
// The diurnal detector (paper §2.2) needs the full amplitude spectrum of an
// 11-minute availability timeseries whose length is rarely a power of two
// (e.g. 4581 samples for 35 days). We provide:
//   * an iterative radix-2 Cooley-Tukey FFT for power-of-two sizes,
//   * Bluestein's chirp-z algorithm for arbitrary sizes, and
//   * a naive O(n^2) DFT used as the test oracle.
// Conventions match the paper: forward transform
//   alpha_k = sum_m a_m * exp(-2*pi*i*m*k/n), unnormalized;
// the inverse divides by n so Inverse(Forward(x)) == x.
//
// Two implementation tiers share these conventions:
//   * fft::Plan (plan.h) — precomputed tables, cached per size, zero
//     steady-state allocation, and its own radix-4 kernel in plain
//     double arithmetic with a permutation-free Bluestein convolution.
//     The convenience entry points below (Forward/ForwardReal/Inverse)
//     route through the process-wide PlanCache with a thread-local
//     scratch, so every caller gets the fast path without managing plans.
//   * the *Planless variants and FftRadix2InPlace — the original
//     self-contained radix-2 kernels that recompute twiddles and chirps
//     per call. They share no code with Plan, so they remain the
//     plan-independent reference for property tests and the "before"
//     side of bench/fft_perf.
#ifndef SLEEPWALK_FFT_FFT_H_
#define SLEEPWALK_FFT_FFT_H_

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace sleepwalk::fft {

using Complex = std::complex<double>;

/// True when n is a power of two (n >= 1).
constexpr bool IsPowerOfTwo(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// In-place radix-2 FFT. data.size() must be a power of two.
/// inverse=true computes the unnormalized inverse (conjugate transform);
/// callers wanting a true inverse must divide by n afterwards.
void FftRadix2InPlace(std::span<Complex> data, bool inverse);

/// Forward DFT of arbitrary-length complex input. Dispatches through the
/// process-wide PlanCache (plan.h) with a thread-local scratch.
std::vector<Complex> Forward(std::span<const Complex> input);

/// Forward DFT of real input; even sizes take the packed half-size path.
std::vector<Complex> ForwardReal(std::span<const double> input);

/// Normalized inverse DFT (Inverse(Forward(x)) == x up to rounding).
std::vector<Complex> Inverse(std::span<const Complex> input);

/// Plan-free forward DFT: recomputes twiddles/chirp every call. Reference
/// baseline for property tests and bench/fft_perf.
std::vector<Complex> ForwardPlanless(std::span<const Complex> input);

/// Plan-free forward DFT of real input (complexify + ForwardPlanless).
std::vector<Complex> ForwardRealPlanless(std::span<const double> input);

/// Plan-free normalized inverse via the conjugate trick (two passes).
std::vector<Complex> InversePlanless(std::span<const Complex> input);

/// Naive O(n^2) DFT; the correctness oracle for tests.
std::vector<Complex> DftNaive(std::span<const Complex> input);

namespace detail {

/// Smallest power of two >= n. Throws std::length_error when that power
/// does not fit in std::size_t (n > 2^63 on 64-bit) instead of spinning
/// the old unguarded loop forever on a wrapped shift.
std::size_t NextPowerOfTwoChecked(std::size_t n);

/// Bluestein chirp exponent (k * k) % (2 * n), computed in widened
/// arithmetic so k*k cannot wrap even when n approaches 2^32 (where the
/// naive 64-bit product overflows long before memory does).
std::size_t ChirpIndex(std::size_t k, std::size_t n) noexcept;

}  // namespace detail

}  // namespace sleepwalk::fft

#endif  // SLEEPWALK_FFT_FFT_H_
