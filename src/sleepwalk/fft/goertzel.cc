#include "sleepwalk/fft/goertzel.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

namespace sleepwalk::fft {

namespace {

// Chunk width for GoertzelMany: enough for a daily bin plus any
// plausible harmonic set to run in one input pass with all
// state in registers/stack, while keeping the function allocation-free
// for arbitrarily long bin lists.
constexpr std::size_t kManyChunk = 8;

}  // namespace

std::complex<double> Goertzel(std::span<const double> input, std::size_t k) {
  const std::size_t n = input.size();
  if (n == 0) return {};
  const double omega =
      2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
  const double coeff = 2.0 * std::cos(omega);
  double s_prev = 0.0;
  double s_prev2 = 0.0;
  for (const double x : input) {
    const double s = x + coeff * s_prev - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  // Phase-correct extraction for the forward (negative exponent)
  // convention used by Forward(): X(k) = e^{j*omega}*s_{N-1} - s_{N-2}.
  const double real = s_prev * std::cos(omega) - s_prev2;
  const double imag = s_prev * std::sin(omega);
  return {real, imag};
}

void GoertzelMany(std::span<const double> input,
                  std::span<const std::size_t> bins,
                  std::span<std::complex<double>> out) {
  const std::size_t n = input.size();
  if (n == 0) {
    for (std::size_t i = 0; i < bins.size(); ++i) out[i] = {};
    return;
  }

  // Each chunk of bins shares one walk over the input. The per-bin
  // recurrence is the exact expression of Goertzel() evaluated in the
  // same order, so results are bitwise identical to the one-bin calls.
  for (std::size_t base = 0; base < bins.size(); base += kManyChunk) {
    const std::size_t count = std::min(kManyChunk, bins.size() - base);
    std::array<double, kManyChunk> omega{};
    std::array<double, kManyChunk> coeff{};
    std::array<double, kManyChunk> s_prev{};
    std::array<double, kManyChunk> s_prev2{};
    for (std::size_t i = 0; i < count; ++i) {
      omega[i] = 2.0 * std::numbers::pi * static_cast<double>(bins[base + i]) /
                 static_cast<double>(n);
      coeff[i] = 2.0 * std::cos(omega[i]);
    }
    for (const double x : input) {
      for (std::size_t i = 0; i < count; ++i) {
        const double s = x + coeff[i] * s_prev[i] - s_prev2[i];
        s_prev2[i] = s_prev[i];
        s_prev[i] = s;
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      const double real = s_prev[i] * std::cos(omega[i]) - s_prev2[i];
      const double imag = s_prev[i] * std::sin(omega[i]);
      out[base + i] = {real, imag};
    }
  }
}

}  // namespace sleepwalk::fft
