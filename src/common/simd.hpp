// Portable SIMD kernels for the measured hot loops, with compile-time
// dispatch and a bit-identical scalar fallback.
//
// Backend selection is purely compile-time, driven by the ISA feature
// macros the compiler already defines (no runtime dispatch, no new
// dependencies):
//
//   GPPM_SIMD_FORCE_SCALAR   -> scalar   (set by -DGPPM_SIMD=off)
//   __AVX2__                 -> avx2     (4 doubles per vector)
//   __ARM_NEON               -> neon     (2 doubles per vector)
//   __SSE2__ / x86-64        -> sse2     (2 doubles per vector)
//   anything else            -> scalar
//
// Bit-identity is the design constraint, not an afterthought.  Every
// reduction kernel — on every backend, including the scalar fallback —
// computes the SAME fixed summation tree: eight logical accumulator lanes
// striding the input (element i lands in lane i % 8), spilled to an array
// and combined by one shared expression.  IEEE-754 arithmetic is
// deterministic per operation, so two backends running the same tree over
// the same input produce the same bits, denormals included.  NaNs are the
// exception: IEEE-754 leaves the sign and payload of a NaN result to the
// hardware (x86 keeps the first NaN operand's), and the backends order the
// operands of their adds differently, so combine8 returns one canonical
// quiet NaN for every NaN result.  The
// `simd` ctest label pins this: kernels are compared bitwise against
// gppm::simd::scalar::* (always compiled) on randomized inputs, and a
// -DGPPM_SIMD=off build must reproduce the default build's model
// artifacts byte for byte.
//
// Corollary: kernels never use FMA intrinsics, and the build sets
// -ffp-contract=off, so a*b+c cannot silently contract to fma(a,b,c) on
// one backend and not another.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

#if defined(GPPM_SIMD_FORCE_SCALAR)
// Scalar fallback requested (-DGPPM_SIMD=off): no ISA headers.
#elif defined(__AVX2__)
#define GPPM_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define GPPM_SIMD_NEON 1
#include <arm_neon.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define GPPM_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace gppm::simd {

/// Logical accumulator lanes per reduction.  Fixed across backends — it is
/// part of the numeric contract, not a tuning knob.
inline constexpr std::size_t kAccumLanes = 8;

/// Combine the eight spilled accumulator lanes.  One shared tree shape for
/// every backend; changing it changes every artifact, so don't.  A NaN
/// total comes back as the canonical quiet NaN, whatever sign and payload
/// the adds left on it.
inline double combine8(const double lanes[kAccumLanes]) {
  const double total = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
                       ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
  return std::isnan(total) ? std::numeric_limits<double>::quiet_NaN() : total;
}

/// Reference kernels: the canonical 8-lane tree written out scalarly.
/// Always compiled, whatever backend is active — the parity suite compares
/// the active backend against these bitwise.
namespace scalar {

inline double dot(const double* a, const double* b, std::size_t n) {
  double lanes[kAccumLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    for (std::size_t l = 0; l < kAccumLanes; ++l) {
      lanes[l] += a[i + l] * b[i + l];
    }
  }
  for (std::size_t l = 0; n8 + l < n; ++l) lanes[l] += a[n8 + l] * b[n8 + l];
  return combine8(lanes);
}

inline double sum(const double* a, std::size_t n) {
  double lanes[kAccumLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    for (std::size_t l = 0; l < kAccumLanes; ++l) lanes[l] += a[i + l];
  }
  for (std::size_t l = 0; n8 + l < n; ++l) lanes[l] += a[n8 + l];
  return combine8(lanes);
}

/// Fused single pass producing sum(a) and dot(a, y) — the Gram builder's
/// per-column pair (intercept cross term + X^T y entry).
inline void sum_dot(const double* a, const double* y, std::size_t n,
                    double& sum_out, double& dot_out) {
  double s[kAccumLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  double d[kAccumLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    for (std::size_t l = 0; l < kAccumLanes; ++l) {
      s[l] += a[i + l];
      d[l] += a[i + l] * y[i + l];
    }
  }
  for (std::size_t l = 0; n8 + l < n; ++l) {
    s[l] += a[n8 + l];
    d[l] += a[n8 + l] * y[n8 + l];
  }
  sum_out = combine8(s);
  dot_out = combine8(d);
}

}  // namespace scalar

/// Strided dot product over the same 8-lane tree (element i in lane i % 8).
/// Row-major column access has no contiguous layout to vectorize over, so
/// this stays scalar on every backend — but because it computes the
/// canonical tree, Matrix::col_dot(c, c) is bit-identical to simd::dot over
/// the same column copied contiguous (the column-panel path in GramSystem).
inline double dot_strided(const double* a, const double* b, std::size_t n,
                          std::size_t stride_a, std::size_t stride_b) {
  double lanes[kAccumLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    for (std::size_t l = 0; l < kAccumLanes; ++l) {
      lanes[l] += a[(i + l) * stride_a] * b[(i + l) * stride_b];
    }
  }
  for (std::size_t l = 0; n8 + l < n; ++l) {
    lanes[l] += a[(n8 + l) * stride_a] * b[(n8 + l) * stride_b];
  }
  return combine8(lanes);
}

#if defined(GPPM_SIMD_AVX2)

inline constexpr const char* kBackend = "avx2";
inline constexpr std::size_t kLaneWidth = 4;

/// Two 4-wide accumulators = logical lanes 0-3 and 4-7.  The vector loads
/// map element i+l to lane l in order, matching the scalar reference's
/// striding exactly.
inline double dot(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                             _mm256_loadu_pd(b + i + 4)));
  }
  double lanes[kAccumLanes];
  _mm256_storeu_pd(lanes, acc0);
  _mm256_storeu_pd(lanes + 4, acc1);
  for (std::size_t l = 0; n8 + l < n; ++l) lanes[l] += a[n8 + l] * b[n8 + l];
  return combine8(lanes);
}

inline double sum(const double* a, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(a + i + 4));
  }
  double lanes[kAccumLanes];
  _mm256_storeu_pd(lanes, acc0);
  _mm256_storeu_pd(lanes + 4, acc1);
  for (std::size_t l = 0; n8 + l < n; ++l) lanes[l] += a[n8 + l];
  return combine8(lanes);
}

inline void sum_dot(const double* a, const double* y, std::size_t n,
                    double& sum_out, double& dot_out) {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  __m256d d0 = _mm256_setzero_pd(), d1 = _mm256_setzero_pd();
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    const __m256d a0 = _mm256_loadu_pd(a + i);
    const __m256d a1 = _mm256_loadu_pd(a + i + 4);
    s0 = _mm256_add_pd(s0, a0);
    s1 = _mm256_add_pd(s1, a1);
    d0 = _mm256_add_pd(d0, _mm256_mul_pd(a0, _mm256_loadu_pd(y + i)));
    d1 = _mm256_add_pd(d1, _mm256_mul_pd(a1, _mm256_loadu_pd(y + i + 4)));
  }
  double s[kAccumLanes], d[kAccumLanes];
  _mm256_storeu_pd(s, s0);
  _mm256_storeu_pd(s + 4, s1);
  _mm256_storeu_pd(d, d0);
  _mm256_storeu_pd(d + 4, d1);
  for (std::size_t l = 0; n8 + l < n; ++l) {
    s[l] += a[n8 + l];
    d[l] += a[n8 + l] * y[n8 + l];
  }
  sum_out = combine8(s);
  dot_out = combine8(d);
}

#elif defined(GPPM_SIMD_NEON)

inline constexpr const char* kBackend = "neon";
inline constexpr std::size_t kLaneWidth = 2;

/// Four 2-wide accumulators = logical lane pairs (0,1) (2,3) (4,5) (6,7).
inline double dot(const double* a, const double* b, std::size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0), acc3 = vdupq_n_f64(0.0);
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    acc0 = vaddq_f64(acc0, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    acc1 = vaddq_f64(acc1,
                     vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
    acc2 = vaddq_f64(acc2,
                     vmulq_f64(vld1q_f64(a + i + 4), vld1q_f64(b + i + 4)));
    acc3 = vaddq_f64(acc3,
                     vmulq_f64(vld1q_f64(a + i + 6), vld1q_f64(b + i + 6)));
  }
  double lanes[kAccumLanes];
  vst1q_f64(lanes, acc0);
  vst1q_f64(lanes + 2, acc1);
  vst1q_f64(lanes + 4, acc2);
  vst1q_f64(lanes + 6, acc3);
  for (std::size_t l = 0; n8 + l < n; ++l) lanes[l] += a[n8 + l] * b[n8 + l];
  return combine8(lanes);
}

inline double sum(const double* a, std::size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0), acc3 = vdupq_n_f64(0.0);
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    acc0 = vaddq_f64(acc0, vld1q_f64(a + i));
    acc1 = vaddq_f64(acc1, vld1q_f64(a + i + 2));
    acc2 = vaddq_f64(acc2, vld1q_f64(a + i + 4));
    acc3 = vaddq_f64(acc3, vld1q_f64(a + i + 6));
  }
  double lanes[kAccumLanes];
  vst1q_f64(lanes, acc0);
  vst1q_f64(lanes + 2, acc1);
  vst1q_f64(lanes + 4, acc2);
  vst1q_f64(lanes + 6, acc3);
  for (std::size_t l = 0; n8 + l < n; ++l) lanes[l] += a[n8 + l];
  return combine8(lanes);
}

inline void sum_dot(const double* a, const double* y, std::size_t n,
                    double& sum_out, double& dot_out) {
  float64x2_t s0 = vdupq_n_f64(0.0), s1 = vdupq_n_f64(0.0);
  float64x2_t s2 = vdupq_n_f64(0.0), s3 = vdupq_n_f64(0.0);
  float64x2_t d0 = vdupq_n_f64(0.0), d1 = vdupq_n_f64(0.0);
  float64x2_t d2 = vdupq_n_f64(0.0), d3 = vdupq_n_f64(0.0);
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    const float64x2_t a0 = vld1q_f64(a + i);
    const float64x2_t a1 = vld1q_f64(a + i + 2);
    const float64x2_t a2 = vld1q_f64(a + i + 4);
    const float64x2_t a3 = vld1q_f64(a + i + 6);
    s0 = vaddq_f64(s0, a0);
    s1 = vaddq_f64(s1, a1);
    s2 = vaddq_f64(s2, a2);
    s3 = vaddq_f64(s3, a3);
    d0 = vaddq_f64(d0, vmulq_f64(a0, vld1q_f64(y + i)));
    d1 = vaddq_f64(d1, vmulq_f64(a1, vld1q_f64(y + i + 2)));
    d2 = vaddq_f64(d2, vmulq_f64(a2, vld1q_f64(y + i + 4)));
    d3 = vaddq_f64(d3, vmulq_f64(a3, vld1q_f64(y + i + 6)));
  }
  double s[kAccumLanes], d[kAccumLanes];
  vst1q_f64(s, s0);
  vst1q_f64(s + 2, s1);
  vst1q_f64(s + 4, s2);
  vst1q_f64(s + 6, s3);
  vst1q_f64(d, d0);
  vst1q_f64(d + 2, d1);
  vst1q_f64(d + 4, d2);
  vst1q_f64(d + 6, d3);
  for (std::size_t l = 0; n8 + l < n; ++l) {
    s[l] += a[n8 + l];
    d[l] += a[n8 + l] * y[n8 + l];
  }
  sum_out = combine8(s);
  dot_out = combine8(d);
}

#elif defined(GPPM_SIMD_SSE2)

inline constexpr const char* kBackend = "sse2";
inline constexpr std::size_t kLaneWidth = 2;

/// Four 2-wide accumulators = logical lane pairs (0,1) (2,3) (4,5) (6,7).
inline double dot(const double* a, const double* b, std::size_t n) {
  __m128d acc0 = _mm_setzero_pd(), acc1 = _mm_setzero_pd();
  __m128d acc2 = _mm_setzero_pd(), acc3 = _mm_setzero_pd();
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    acc0 = _mm_add_pd(acc0,
                      _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    acc1 = _mm_add_pd(
        acc1, _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
    acc2 = _mm_add_pd(
        acc2, _mm_mul_pd(_mm_loadu_pd(a + i + 4), _mm_loadu_pd(b + i + 4)));
    acc3 = _mm_add_pd(
        acc3, _mm_mul_pd(_mm_loadu_pd(a + i + 6), _mm_loadu_pd(b + i + 6)));
  }
  double lanes[kAccumLanes];
  _mm_storeu_pd(lanes, acc0);
  _mm_storeu_pd(lanes + 2, acc1);
  _mm_storeu_pd(lanes + 4, acc2);
  _mm_storeu_pd(lanes + 6, acc3);
  for (std::size_t l = 0; n8 + l < n; ++l) lanes[l] += a[n8 + l] * b[n8 + l];
  return combine8(lanes);
}

inline double sum(const double* a, std::size_t n) {
  __m128d acc0 = _mm_setzero_pd(), acc1 = _mm_setzero_pd();
  __m128d acc2 = _mm_setzero_pd(), acc3 = _mm_setzero_pd();
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    acc0 = _mm_add_pd(acc0, _mm_loadu_pd(a + i));
    acc1 = _mm_add_pd(acc1, _mm_loadu_pd(a + i + 2));
    acc2 = _mm_add_pd(acc2, _mm_loadu_pd(a + i + 4));
    acc3 = _mm_add_pd(acc3, _mm_loadu_pd(a + i + 6));
  }
  double lanes[kAccumLanes];
  _mm_storeu_pd(lanes, acc0);
  _mm_storeu_pd(lanes + 2, acc1);
  _mm_storeu_pd(lanes + 4, acc2);
  _mm_storeu_pd(lanes + 6, acc3);
  for (std::size_t l = 0; n8 + l < n; ++l) lanes[l] += a[n8 + l];
  return combine8(lanes);
}

inline void sum_dot(const double* a, const double* y, std::size_t n,
                    double& sum_out, double& dot_out) {
  __m128d s0 = _mm_setzero_pd(), s1 = _mm_setzero_pd();
  __m128d s2 = _mm_setzero_pd(), s3 = _mm_setzero_pd();
  __m128d d0 = _mm_setzero_pd(), d1 = _mm_setzero_pd();
  __m128d d2 = _mm_setzero_pd(), d3 = _mm_setzero_pd();
  const std::size_t n8 = n & ~(kAccumLanes - 1);
  for (std::size_t i = 0; i < n8; i += kAccumLanes) {
    const __m128d a0 = _mm_loadu_pd(a + i);
    const __m128d a1 = _mm_loadu_pd(a + i + 2);
    const __m128d a2 = _mm_loadu_pd(a + i + 4);
    const __m128d a3 = _mm_loadu_pd(a + i + 6);
    s0 = _mm_add_pd(s0, a0);
    s1 = _mm_add_pd(s1, a1);
    s2 = _mm_add_pd(s2, a2);
    s3 = _mm_add_pd(s3, a3);
    d0 = _mm_add_pd(d0, _mm_mul_pd(a0, _mm_loadu_pd(y + i)));
    d1 = _mm_add_pd(d1, _mm_mul_pd(a1, _mm_loadu_pd(y + i + 2)));
    d2 = _mm_add_pd(d2, _mm_mul_pd(a2, _mm_loadu_pd(y + i + 4)));
    d3 = _mm_add_pd(d3, _mm_mul_pd(a3, _mm_loadu_pd(y + i + 6)));
  }
  double s[kAccumLanes], d[kAccumLanes];
  _mm_storeu_pd(s, s0);
  _mm_storeu_pd(s + 2, s1);
  _mm_storeu_pd(s + 4, s2);
  _mm_storeu_pd(s + 6, s3);
  _mm_storeu_pd(d, d0);
  _mm_storeu_pd(d + 2, d1);
  _mm_storeu_pd(d + 4, d2);
  _mm_storeu_pd(d + 6, d3);
  for (std::size_t l = 0; n8 + l < n; ++l) {
    s[l] += a[n8 + l];
    d[l] += a[n8 + l] * y[n8 + l];
  }
  sum_out = combine8(s);
  dot_out = combine8(d);
}

#else

inline constexpr const char* kBackend = "scalar";
inline constexpr std::size_t kLaneWidth = 1;

using scalar::dot;
using scalar::sum;
using scalar::sum_dot;

#endif

}  // namespace gppm::simd
