// Property tests for the plan-based spectral kernels (plan.h): every
// plan path must agree with the O(n^2) DftNaive oracle to 1e-9 across
// prime, even, odd, and power-of-two sizes — including the real
// campaign lengths (14-day and 35-day series) — and scratch reuse must
// change nothing.
#include "sleepwalk/fft/plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sleepwalk/fft/fft.h"
#include "sleepwalk/util/rng.h"

namespace sleepwalk::fft {
namespace {

constexpr double kTolerance = 1e-9;

// Prime 4583, even campaign sizes 1834 (14 days x 131 rounds/day) and
// 4582 (35 days), odd trimmed sizes 1833/4585, plus small sizes that
// exercise every branch (n < 4 skips real packing). The powers of two
// are the kernels the campaign lengths run on: 2048 (odd log2, so a
// radix-2 pass joins the radix-4 ones), 4096 (Bluestein for 1833),
// 8192 (Bluestein for 2291, the half of 4582) and 16384 (Bluestein for
// 4583).
constexpr std::size_t kSizes[] = {1,    2,    3,    4,    5,    6,
                                  8,    12,   1833, 1834, 2048, 4096,
                                  4582, 4583, 4585, 8192, 16384};

std::vector<Complex> RandomSignal(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Complex> signal(n);
  for (auto& value : signal) {
    value = Complex{rng.NextDouble() * 2.0 - 1.0,
                    rng.NextDouble() * 2.0 - 1.0};
  }
  return signal;
}

std::vector<double> RandomReal(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> signal(n);
  for (auto& value : signal) value = rng.NextDouble() * 2.0 - 1.0;
  return signal;
}

double MaxError(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_error = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    max_error = std::max(max_error, std::abs(a[i] - b[i]));
  }
  return max_error;
}

TEST(Plan, ForwardMatchesNaiveDftAcrossSizes) {
  for (const std::size_t n : kSizes) {
    const Plan plan{n};
    EXPECT_EQ(plan.size(), n);
    const auto input = RandomSignal(n, 0x5EED0000 + n);
    FftScratch scratch;
    std::vector<Complex> output;
    plan.Forward(input, scratch, output);
    EXPECT_LT(MaxError(output, DftNaive(input)), kTolerance) << "n=" << n;
  }
}

TEST(Plan, ForwardRealMatchesNaiveDftAcrossSizes) {
  for (const std::size_t n : kSizes) {
    const Plan plan{n};
    const auto input = RandomReal(n, 0x5EED1000 + n);
    std::vector<Complex> complexified(n);
    for (std::size_t i = 0; i < n; ++i) complexified[i] = Complex{input[i], 0};
    FftScratch scratch;
    std::vector<Complex> output;
    plan.ForwardReal(input, scratch, output);
    EXPECT_LT(MaxError(output, DftNaive(complexified)), kTolerance)
        << "n=" << n;
  }
}

TEST(Plan, ForwardRealOutputIsConjugateSymmetric) {
  for (const std::size_t n : {1834u, 2048u, 4583u}) {
    const Plan plan{n};
    const auto input = RandomReal(n, 0x5EED2000 + n);
    FftScratch scratch;
    std::vector<Complex> output;
    plan.ForwardReal(input, scratch, output);
    ASSERT_EQ(output.size(), n);
    for (std::size_t k = 1; k < n; ++k) {
      EXPECT_LT(std::abs(output[k] - std::conj(output[n - k])), kTolerance)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Plan, InverseRoundTripsAcrossSizes) {
  for (const std::size_t n : kSizes) {
    const Plan plan{n};
    const auto input = RandomSignal(n, 0x5EED3000 + n);
    FftScratch scratch;
    std::vector<Complex> spectrum;
    std::vector<Complex> recovered;
    plan.Forward(input, scratch, spectrum);
    plan.Inverse(spectrum, scratch, recovered);
    EXPECT_LT(MaxError(recovered, input), kTolerance) << "n=" << n;
  }
}

TEST(Plan, MatchesPlanlessKernelsAcrossSizes) {
  for (const std::size_t n : kSizes) {
    const Plan plan{n};
    const auto input = RandomSignal(n, 0x5EED4000 + n);
    const auto real_input = RandomReal(n, 0x5EED5000 + n);
    FftScratch scratch;
    std::vector<Complex> output;
    plan.Forward(input, scratch, output);
    EXPECT_LT(MaxError(output, ForwardPlanless(input)), kTolerance)
        << "n=" << n;
    plan.ForwardReal(real_input, scratch, output);
    EXPECT_LT(MaxError(output, ForwardRealPlanless(real_input)), kTolerance)
        << "n=" << n;
    const auto spectrum = ForwardPlanless(input);
    plan.Inverse(spectrum, scratch, output);
    EXPECT_LT(MaxError(output, InversePlanless(spectrum)), kTolerance)
        << "n=" << n;
  }
}

TEST(Plan, ScratchReuseAcrossSizesIsBitwiseStable) {
  // One scratch serving interleaved sizes (big Bluestein, power of two,
  // small odd) must give exactly the same bits as a fresh scratch per
  // call: buffers are fully overwritten, never accumulated into.
  FftScratch shared;
  for (int round = 0; round < 2; ++round) {
    for (const std::size_t n : {4583u, 2048u, 5u, 1834u}) {
      const Plan plan{n};
      const auto input = RandomSignal(n, 0x5EED6000 + n);
      std::vector<Complex> with_shared;
      plan.Forward(input, shared, with_shared);
      FftScratch fresh;
      std::vector<Complex> with_fresh;
      plan.Forward(input, fresh, with_fresh);
      ASSERT_EQ(with_shared.size(), with_fresh.size());
      EXPECT_EQ(0, std::memcmp(with_shared.data(), with_fresh.data(),
                               with_shared.size() * sizeof(Complex)))
          << "n=" << n << " round=" << round;
    }
  }
}

TEST(Plan, KernelSizeReportsBluesteinExtension) {
  EXPECT_TRUE(Plan{2048}.radix2());
  EXPECT_EQ(Plan{2048}.kernel_size(), 2048u);
  const Plan bluestein{1833};
  EXPECT_FALSE(bluestein.radix2());
  // m = NextPowerOfTwo(2 * 1833 - 1) = 4096.
  EXPECT_EQ(bluestein.kernel_size(), 4096u);
}

TEST(Plan, RejectsDegenerateAndOverflowingSizes) {
  EXPECT_THROW(Plan{0}, std::invalid_argument);
  // 2n - 1 (or its power-of-two ceiling) cannot fit in size_t.
  constexpr std::size_t kHuge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW(Plan{kHuge + 1}, std::length_error);
  EXPECT_THROW(Plan{std::numeric_limits<std::size_t>::max()},
               std::length_error);
}

TEST(NextPowerOfTwoChecked, GuardsAgainstOverflow) {
  EXPECT_EQ(detail::NextPowerOfTwoChecked(1), 1u);
  EXPECT_EQ(detail::NextPowerOfTwoChecked(3665), 4096u);
  constexpr std::size_t kHighBit =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_EQ(detail::NextPowerOfTwoChecked(kHighBit), kHighBit);
  EXPECT_THROW(detail::NextPowerOfTwoChecked(kHighBit + 1), std::length_error);
}

TEST(ChirpIndex, MatchesWideArithmetic) {
  // Small cases against the direct formula...
  for (const std::size_t n : {3u, 5u, 1833u}) {
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(detail::ChirpIndex(k, n), (k * k) % (2 * n)) << "n=" << n;
    }
  }
  // ...and a k where k*k overflows 64 bits: (2^33 + 3)^2 =
  // 2^66 + 3*2^34 + 9, and with 2n = 2^34 both leading terms vanish
  // mod 2^34, leaving 9. The naive 64-bit product would wrap.
  const std::size_t k = (std::size_t{1} << 33) + 3;
  const std::size_t n = std::size_t{1} << 33;
  EXPECT_EQ(detail::ChirpIndex(k, n), 9u);
}

TEST(PlanCache, ReturnsSharedPlanPerSize) {
  PlanCache cache;
  const auto a = cache.Get(1834);
  const auto b = cache.Get(1834);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->size(), 1834u);
  const auto c = cache.Get(2048);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.cached_plans(), 2u);
}

TEST(PlanCache, GlobalServesConvenienceEntryPoints) {
  const auto input = RandomReal(1834, 0x5EED7000);
  const auto via_plan = [&] {
    FftScratch scratch;
    std::vector<Complex> out;
    GetPlan(input.size())->ForwardReal(input, scratch, out);
    return out;
  }();
  // fft::ForwardReal routes through the same global cache, so the two
  // spectra are the same bits.
  const auto via_entry = ForwardReal(input);
  ASSERT_EQ(via_plan.size(), via_entry.size());
  EXPECT_EQ(0, std::memcmp(via_plan.data(), via_entry.data(),
                           via_plan.size() * sizeof(Complex)));
  EXPECT_GE(PlanCache::Global().cached_plans(), 1u);
}

}  // namespace
}  // namespace sleepwalk::fft
