// Multi-threaded PlanCache stress, built as its own binary so the CI
// `tsan` job can run exactly this under -fsanitize=thread: 8 threads
// hammer one cache for the same mix of sizes (racing to build plans)
// and every thread's spectra must be bitwise identical to a
// single-threaded reference — the determinism invariant that lets the
// parallel executor share one global cache (DESIGN.md §9, §10).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "sleepwalk/fft/fft.h"
#include "sleepwalk/fft/plan.h"
#include "sleepwalk/fft/spectrum.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk::fft {
namespace {

constexpr std::size_t kThreads = 8;
constexpr int kRounds = 25;
// Campaign-realistic mix: even (real-packed), odd/prime (Bluestein),
// power of two — every plan flavour races through the cache.
constexpr std::size_t kSizes[] = {1833, 1834, 2048, 919, 4583};

std::vector<double> MakeSeries(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> series(n);
  for (std::size_t i = 0; i < n; ++i) {
    series[i] = 0.5 + 0.3 * ((i % 131) < 50 ? 1.0 : -1.0) +
                0.05 * rng.NextGaussian();
  }
  return series;
}

template <typename T>
bool BitwiseEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(PlanCacheStress, EightThreadsGetBitwiseIdenticalSpectra) {
  PlanCache cache;

  // Single-threaded reference spectra, one per size, computed through
  // a *separate* cache so the shared cache starts cold and the worker
  // threads genuinely race to build every plan.
  std::vector<std::vector<Complex>> reference;
  {
    PlanCache reference_cache;
    FftScratch scratch;
    for (const std::size_t n : kSizes) {
      const auto series = MakeSeries(n, 0xACE0 + n);
      std::vector<Complex> out;
      reference_cache.Get(n)->ForwardReal(series, scratch, out);
      reference.push_back(std::move(out));
    }
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      FftScratch scratch;
      std::vector<Complex> out;
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t s = 0; s < std::size(kSizes); ++s) {
          // Stagger the starting size per thread so first-build races
          // hit every size, not just the first.
          const std::size_t pick = (s + t) % std::size(kSizes);
          const std::size_t n = kSizes[pick];
          const auto series = MakeSeries(n, 0xACE0 + n);
          cache.Get(n)->ForwardReal(series, scratch, out);
          if (!BitwiseEqual(out, reference[pick])) ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : pool) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_EQ(cache.cached_plans(), std::size(kSizes));
}

TEST(PlanCacheStress, GlobalCacheUnderConcurrentSpectrumCalls) {
  // The production entry point: ComputeSpectrum via the global cache
  // and thread-local scratch, hammered from 8 threads.
  const auto series = MakeSeries(1834, 0xACE0 + 1834);
  const SpectrumOptions options;
  const Spectrum reference = ComputeSpectrum(series, options);

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      FftScratch scratch;
      Spectrum spectrum;
      for (int round = 0; round < kRounds; ++round) {
        ComputeSpectrum(series, options, scratch, spectrum);
        if (!BitwiseEqual(spectrum.amplitude, reference.amplitude) ||
            !BitwiseEqual(spectrum.coeffs, reference.coeffs)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : pool) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace sleepwalk::fft
