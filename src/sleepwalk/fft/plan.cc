#include "sleepwalk/fft/plan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "sleepwalk/util/narrow.h"

namespace sleepwalk::fft {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

void CheckSize(std::size_t got, std::size_t want) {
  if (got != want) {
    throw std::invalid_argument("fft::Plan: input size does not match plan");
  }
}

// The butterflies run on the interleaved re,im view of a complex buffer,
// which [complex.numbers]/4 guarantees. Spelling the products out in
// doubles keeps GCC (without -ffast-math) from emitting the NaN check
// and __muldc3 fallback of std::complex<double>::operator*, which both
// costs a branch per product and blocks vectorisation.
double* Interleaved(Complex* data) { return reinterpret_cast<double*>(data); }
const double* Interleaved(const Complex* data) {
  return reinterpret_cast<const double*>(data);
}

// (re, im) *= w, with w conjugated when kInverse.
template <bool kInverse>
inline void Rotate(double& re, double& im, const double* w) {
  const double wr = w[0];
  const double wi = kInverse ? -w[1] : w[1];
  const double r = re * wr - im * wi;
  im = re * wi + im * wr;
  re = r;
}

// (re, im) *= -i (forward) or +i (inverse): exact, a swap and a negation.
template <bool kInverse>
inline void RotateQuarter(double& re, double& im) {
  const double r = re;
  if constexpr (kInverse) {
    re = -im;
    im = r;
  } else {
    re = im;
    im = -r;
  }
}

// The inner kernel covers the butterfly spans 2..span of a power-of-two
// buffer: radix-4 passes at spans base, 4*base, ..., span, plus one
// twiddle-free radix-2 pass at span 2 when log2(span) is odd (then
// base = 8; otherwise base = 4).
constexpr std::size_t Radix4Base(std::size_t span) {
  return std::countr_zero(span) % 2 == 1 ? 8 : 4;
}

// A radix-4 pass at span len keeps W^k, W^2k, W^3k for k < len/4 (six
// doubles per k) at offset (len - base)/2 = 6 * (sum of the quarter
// spans of the smaller passes).
constexpr std::size_t Radix4Offset(std::size_t len, std::size_t base) {
  return (len - base) / 2;
}

// Twiddle-free span-2 butterflies over n points (same in DIF and DIT).
void Radix2Pass(double* a, std::size_t n) {
  for (std::size_t i = 0; i < 2 * n; i += 4) {
    const double ur = a[i];
    const double ui = a[i + 1];
    const double vr = a[i + 2];
    const double vi = a[i + 3];
    a[i] = ur + vr;
    a[i + 1] = ui + vi;
    a[i + 2] = ur - vr;
    a[i + 3] = ui - vi;
  }
}

// One forward decimation-in-frequency radix-4 pass at span len: the
// fusion of the radix-2 DIF stages len and len/2, so the output lands in
// the same bit-reversed order (the W^2k leg goes to quarter 1, the W^k
// leg to quarter 2). Only the Bluestein convolution runs DIF, and always
// forward.
void DifRadix4Pass(double* a, std::size_t n, std::size_t len,
                   const double* w) {
  const std::size_t q = 2 * (len / 4);  // quarter span, in doubles
  for (std::size_t start = 0; start < 2 * n; start += 4 * q) {
    double* x0 = a + start;
    double* x1 = x0 + q;
    double* x2 = x1 + q;
    double* x3 = x2 + q;
    for (std::size_t r = 0; r < q; r += 2) {
      const std::size_t i = r + 1;
      const double* wk = w + 3 * r;
      const double t0r = x0[r] + x2[r];
      const double t0i = x0[i] + x2[i];
      const double t1r = x0[r] - x2[r];
      const double t1i = x0[i] - x2[i];
      const double t2r = x1[r] + x3[r];
      const double t2i = x1[i] + x3[i];
      double t3r = x1[r] - x3[r];
      double t3i = x1[i] - x3[i];
      RotateQuarter<false>(t3r, t3i);
      double y1r = t1r + t3r;
      double y1i = t1i + t3i;
      double y2r = t0r - t2r;
      double y2i = t0i - t2i;
      double y3r = t1r - t3r;
      double y3i = t1i - t3i;
      Rotate<false>(y1r, y1i, wk);
      Rotate<false>(y2r, y2i, wk + 2);
      Rotate<false>(y3r, y3i, wk + 4);
      x0[r] = t0r + t2r;
      x0[i] = t0i + t2i;
      x1[r] = y2r;
      x1[i] = y2i;
      x2[r] = y1r;
      x2[i] = y1i;
      x3[r] = y3r;
      x3[i] = y3i;
    }
  }
}

// The decimation-in-time mirror of DifRadix4Pass: radix-2 DIT stages
// len/2 then len, reading the bit-reversed quarters.
template <bool kInverse>
void DitRadix4Pass(double* a, std::size_t n, std::size_t len,
                   const double* w) {
  const std::size_t q = 2 * (len / 4);
  for (std::size_t start = 0; start < 2 * n; start += 4 * q) {
    double* x0 = a + start;
    double* x1 = x0 + q;
    double* x2 = x1 + q;
    double* x3 = x2 + q;
    for (std::size_t r = 0; r < q; r += 2) {
      const std::size_t i = r + 1;
      const double* wk = w + 3 * r;
      double a1r = x1[r];
      double a1i = x1[i];
      double a2r = x2[r];
      double a2i = x2[i];
      double a3r = x3[r];
      double a3i = x3[i];
      Rotate<kInverse>(a1r, a1i, wk + 2);
      Rotate<kInverse>(a2r, a2i, wk);
      Rotate<kInverse>(a3r, a3i, wk + 4);
      const double t0r = x0[r] + a1r;
      const double t0i = x0[i] + a1i;
      const double t1r = x0[r] - a1r;
      const double t1i = x0[i] - a1i;
      const double t2r = a2r + a3r;
      const double t2i = a2i + a3i;
      double t3r = a2r - a3r;
      double t3i = a2i - a3i;
      RotateQuarter<kInverse>(t3r, t3i);
      x0[r] = t0r + t2r;
      x0[i] = t0i + t2i;
      x1[r] = t1r + t3r;
      x1[i] = t1i + t3i;
      x2[r] = t0r - t2r;
      x2[i] = t0i - t2i;
      x3[r] = t1r - t3r;
      x3[i] = t1i - t3i;
    }
  }
}

// Every forward butterfly span from `span` down to 2, over n points:
// natural-order input, bit-reversed output.
void Dif(double* a, std::size_t n, std::size_t span, const double* twiddles) {
  const std::size_t base = Radix4Base(span);
  for (std::size_t len = span; len >= base; len /= 4) {
    DifRadix4Pass(a, n, len, twiddles + Radix4Offset(len, base));
  }
  if (base == 8) Radix2Pass(a, n);
}

// Every butterfly span from 2 up to `span`, over n points: bit-reversed
// input, natural-order output.
template <bool kInverse>
void Dit(double* a, std::size_t n, std::size_t span, const double* twiddles) {
  const std::size_t base = Radix4Base(span);
  if (base == 8) Radix2Pass(a, n);
  for (std::size_t len = base; len <= span; len *= 4) {
    DitRadix4Pass<kInverse>(a, n, len, twiddles + Radix4Offset(len, base));
  }
}

}  // namespace

Plan::Plan(std::size_t n) : n_(n) {
  if (n == 0) {
    throw std::invalid_argument("fft::Plan: size must be positive");
  }
  const bool pow2 = IsPowerOfTwo(n);
  if (pow2) {
    m_ = n;
  } else {
    if (n > std::numeric_limits<std::size_t>::max() / 2) {
      throw std::length_error(
          "fft::Plan: Bluestein extension 2n-1 overflows size_t");
    }
    m_ = detail::NextPowerOfTwoChecked(2 * n - 1);
  }
  if (m_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("fft::Plan: kernel size exceeds bitrev range");
  }

  // Radix-4 twiddles for the inner kernel, every factor from its own
  // cos/sin evaluation (no `w *= wlen` recurrence drift). Bluestein
  // peels the outermost stage (span m) off into its zero-aware first
  // and last passes, so its inner kernel spans m/2.
  const std::size_t span = pow2 ? m_ : m_ / 2;
  const std::size_t base = Radix4Base(span);
  for (std::size_t len = base; len <= span; len *= 4) {
    const double step = -kTwoPi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 4; ++k) {
      for (std::size_t j = 1; j <= 3; ++j) {
        const double angle = step * static_cast<double>(j * k);
        twiddles_.push_back(std::cos(angle));
        twiddles_.push_back(std::sin(angle));
      }
    }
  }

  if (pow2) {
    // Bit-reversal permutation, tabulated once with an incremental
    // carry walk; Execute gathers through it.
    bitrev_.resize(n);
    std::size_t j = 0;
    for (std::size_t i = 1; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      bitrev_[i] = util::CheckedNarrow<std::uint32_t>(j);
    }
  } else {
    const std::size_t h = m_ / 2;
    outer_.reserve(m_);
    const double step = -kTwoPi / static_cast<double>(m_);
    for (std::size_t k = 0; k < h; ++k) {
      const double angle = step * static_cast<double>(k);
      outer_.push_back(std::cos(angle));
      outer_.push_back(std::sin(angle));
    }

    // Chirp factors w_k = exp(-i*pi*k^2/n); the widened k^2 mod 2n keeps
    // the angle small (accuracy) and unwrapped (correctness at large n).
    chirp_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const auto k2 = static_cast<double>(detail::ChirpIndex(k, n));
      const double angle = std::numbers::pi * k2 / static_cast<double>(n);
      chirp_[k] = Complex{std::cos(angle), -std::sin(angle)};
    }

    // Frequency-domain Bluestein kernel FFT(b), computed once here by
    // the same DIF passes the transforms run, so it lands in the
    // bit-reversed order their convolution works in. 1/m, the inverse
    // FFT's normalization, is folded in.
    fft_b_.assign(m_, Complex{});
    fft_b_[0] = std::conj(chirp_[0]);
    for (std::size_t k = 1; k < n; ++k) {
      fft_b_[k] = std::conj(chirp_[k]);
      fft_b_[m_ - k] = fft_b_[k];  // circular symmetry for negative lags
    }
    double* b = Interleaved(fft_b_.data());
    for (std::size_t r = 0; r < m_; r += 2) {  // DIF stage at span m
      const std::size_t i = r + 1;
      const double dr = b[r] - b[r + m_];
      const double di = b[i] - b[i + m_];
      b[r] += b[r + m_];
      b[i] += b[i + m_];
      b[r + m_] = dr;
      b[i + m_] = di;
      Rotate<false>(b[r + m_], b[i + m_], outer_.data() + r);
    }
    Dif(b, m_, h, twiddles_.data());
    const double scale = 1.0 / static_cast<double>(m_);
    for (auto& value : fft_b_) value *= scale;
  }

  // Packed real-input path: even n folds into one n/2 complex transform
  // plus an O(n) twiddle unpack. n == 2 gains nothing over complexifying.
  if (n % 2 == 0 && n >= 4) {
    const std::size_t h = n / 2;
    real_twiddles_.resize(h);
    for (std::size_t k = 0; k < h; ++k) {
      const double angle = -kTwoPi * static_cast<double>(k) /
                           static_cast<double>(n);
      real_twiddles_[k] = Complex{std::cos(angle), std::sin(angle)};
    }
    half_ = std::make_unique<const Plan>(h);
  }
}

template <bool kInverse, typename Load>
void Plan::Execute(const Load& load, FftScratch& scratch,
                   std::vector<Complex>& out) const {
  if (radix2()) {
    // Gather straight into bit-reversed order, then DIT back to natural.
    out.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) out[k] = load(bitrev_[k]);
    Dit<kInverse>(Interleaved(out.data()), n_, n_, twiddles_.data());
    return;
  }

  // Bluestein: X = chirp . (IFFT(FFT(chirp . x) . FFT(b))), run without
  // a single permutation. The forward FFT is DIF (natural in, bit-
  // reversed out), fft_b_ is stored bit-reversed, and the inverse FFT is
  // DIT (bit-reversed in, natural out). Because m >= 2n, the padded
  // input's upper half is zero, so the span-m DIF stage reduces to
  // (u, 0) -> (u, u*W^k); and only outputs k < n are read, so the
  // span-m DIT stage computes just its lower half.
  const std::size_t m = m_;
  const std::size_t h = m / 2;
  scratch.conv.resize(m);
  double* a = Interleaved(scratch.conv.data());
  const double* chirp = Interleaved(chirp_.data());
  const double* outer = outer_.data();
  for (std::size_t r = 0; r < 2 * n_; r += 2) {
    const Complex x = load(r / 2);
    double ur = x.real();
    double ui = x.imag();
    Rotate<kInverse>(ur, ui, chirp + r);
    a[r] = ur;
    a[r + 1] = ui;
    Rotate<false>(ur, ui, outer + r);
    a[r + m] = ur;
    a[r + m + 1] = ui;
  }
  std::fill(a + 2 * n_, a + m, 0.0);
  std::fill(a + m + 2 * n_, a + 2 * m, 0.0);
  Dif(a, m, h, twiddles_.data());

  // FFT(conj b) = conj(FFT(b)) elementwise (b is index-symmetric, so
  // FFT(b) is even), in bit-reversed order as in natural order.
  const double* fb = Interleaved(fft_b_.data());
  for (std::size_t r = 0; r < 2 * m; r += 2) {
    Rotate<kInverse>(a[r], a[r + 1], fb + r);
  }

  Dit<true>(a, m, h, twiddles_.data());
  out.resize(n_);
  double* y = Interleaved(out.data());
  for (std::size_t r = 0; r < 2 * n_; r += 2) {
    double vr = a[r + m];
    double vi = a[r + m + 1];
    Rotate<true>(vr, vi, outer + r);
    y[r] = a[r] + vr;
    y[r + 1] = a[r + 1] + vi;
    Rotate<kInverse>(y[r], y[r + 1], chirp + r);
  }
}

void Plan::Forward(std::span<const Complex> in, FftScratch& scratch,
                   std::vector<Complex>& out) const {
  CheckSize(in.size(), n_);
  Execute<false>([in](std::size_t k) { return in[k]; }, scratch, out);
}

void Plan::Inverse(std::span<const Complex> in, FftScratch& scratch,
                   std::vector<Complex>& out) const {
  CheckSize(in.size(), n_);
  Execute<true>([in](std::size_t k) { return in[k]; }, scratch, out);
  const double scale = 1.0 / static_cast<double>(n_);
  for (auto& value : out) value *= scale;
}

void Plan::ForwardReal(std::span<const double> in, FftScratch& scratch,
                       std::vector<Complex>& out) const {
  CheckSize(in.size(), n_);
  if (half_ == nullptr) {
    // Odd or tiny sizes: the general path over the complexified input.
    Execute<false>([in](std::size_t k) { return Complex{in[k], 0.0}; },
                   scratch, out);
    return;
  }

  // Fold x[2j], x[2j+1] into z[j] = x[2j] + i*x[2j+1] and transform at
  // half size; the even/odd sub-spectra then separate algebraically:
  //   E[k] = (Z[k] + conj(Z[h-k])) / 2,  O[k] = -i*(Z[k] - conj(Z[h-k])) / 2,
  //   X[k] = E[k] + W^k O[k],  X[k+h] = E[k] - W^k O[k].
  const std::size_t h = n_ / 2;
  half_->Execute<false>(
      [in](std::size_t j) { return Complex{in[2 * j], in[2 * j + 1]}; },
      scratch, scratch.half);

  out.resize(n_);
  const double* z = Interleaved(scratch.half.data());
  const double* w = Interleaved(real_twiddles_.data());
  double* x = Interleaved(out.data());
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t r = 2 * k;
    const std::size_t mirror = 2 * ((h - k) % h);
    const double zr = z[r];
    const double zi = z[r + 1];
    const double mr = z[mirror];
    const double mi = -z[mirror + 1];
    const double even_r = 0.5 * (zr + mr);
    const double even_i = 0.5 * (zi + mi);
    double odd_r = 0.5 * (zi - mi);
    double odd_i = -0.5 * (zr - mr);
    Rotate<false>(odd_r, odd_i, w + r);
    x[r] = even_r + odd_r;
    x[r + 1] = even_i + odd_i;
    x[r + n_] = even_r - odd_r;
    x[r + n_ + 1] = even_i - odd_i;
  }
}

PlanCache& PlanCache::Global() {
  static PlanCache* const cache = new PlanCache;
  return *cache;
}

std::shared_ptr<const Plan> PlanCache::Get(std::size_t n) {
  {
    util::MutexLock lock(mutex_);
    auto it = plans_.find(n);
    if (it != plans_.end()) return it->second;
  }
  // Build outside the lock: construction is trig-heavy and would
  // otherwise serialize every worker behind the first cold size. A
  // racing duplicate is bitwise identical (construction is
  // deterministic), so first-insert-wins loses nothing.
  auto built = std::make_shared<const Plan>(n);
  util::MutexLock lock(mutex_);
  auto [it, inserted] = plans_.emplace(n, std::move(built));
  return it->second;
}

std::size_t PlanCache::cached_plans() const {
  util::MutexLock lock(mutex_);
  return plans_.size();
}

std::shared_ptr<const Plan> GetPlan(std::size_t n) {
  return PlanCache::Global().Get(n);
}

}  // namespace sleepwalk::fft
