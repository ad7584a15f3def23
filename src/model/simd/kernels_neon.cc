// NEON (aarch64) measurement kernels. A64 NEON has no 64-bit vector
// multiply, and scalar 64-bit MUL issues at full rate there, so the
// integer hashing runs scalar while the double math — the exact IEEE
// div / sqrt / min / max / blend chain — runs 2-wide. Compiled without
// -ffast-math or FMA contraction, every lane reproduces the scalar
// reference bit-for-bit (same argument as the AVX2 unit).
#if defined(__aarch64__)

#include <arm_neon.h>

#include "model/flow_model.h"
#include "model/simd/kernels.h"
#include "sim/hash_rng.h"

namespace cronets::model::simd::detail {

void ar1_weighted_sums_neon(int nf, const std::uint64_t* streams,
                            const std::int64_t* ns, const int* horizons,
                            const double* wt, int maxh, double* acc) {
  (void)horizons;  // maxh covers every lane; shorter lanes see zero weights
  // Two 2-wide chains covering lanes {0,1} and {2,3} of the 4-lane group
  // layout. Integer hashing stays scalar (no 64-bit vector multiply on
  // A64); the weighted fold — the latency-bound part — runs per lane in
  // strict j order, so each lane reproduces the scalar fold bitwise (the
  // zero-padded terms add exact +/-0.0, a no-op; see dispatch.h).
  // hash_combine(a, b) mixes a ^ (b + C + (a<<6) + (a>>2)); the
  // a-dependent terms fold into one constant per lane.
  std::uint64_t add[4];
  for (int k = 0; k < 4; ++k) {
    add[k] = 0x9e3779b97f4a7c15ull + (streams[k] << 6) + (streams[k] >> 2);
  }
  const float64x2_t half = vdupq_n_f64(0.5);
  const float64x2_t scale = vdupq_n_f64(0x1.0p-53);
  const float64x2_t spread = vdupq_n_f64(3.4641016151377544);
  float64x2_t acc_lo = vdupq_n_f64(0.0);
  float64x2_t acc_hi = vdupq_n_f64(0.0);
  for (int j = 0; j < maxh; ++j) {
    std::uint64_t bits[4];
    for (int k = 0; k < 4; ++k) {
      const std::uint64_t b = static_cast<std::uint64_t>(ns[k] - j);
      bits[k] = sim::splitmix64(sim::splitmix64(streams[k] ^ (b + add[k]))) >> 11;
    }
    const float64x2_t u01_lo = vmulq_f64(
        vaddq_f64(vcvtq_f64_u64(vcombine_u64(vcreate_u64(bits[0]),
                                             vcreate_u64(bits[1]))),
                  half),
        scale);
    const float64x2_t u01_hi = vmulq_f64(
        vaddq_f64(vcvtq_f64_u64(vcombine_u64(vcreate_u64(bits[2]),
                                             vcreate_u64(bits[3]))),
                  half),
        scale);
    const float64x2_t innov_lo = vmulq_f64(vsubq_f64(u01_lo, half), spread);
    const float64x2_t innov_hi = vmulq_f64(vsubq_f64(u01_hi, half), spread);
    acc_lo = vaddq_f64(acc_lo, vmulq_f64(vld1q_f64(wt + 4 * j), innov_lo));
    acc_hi = vaddq_f64(acc_hi, vmulq_f64(vld1q_f64(wt + 4 * j + 2), innov_hi));
  }
  double lanes[4];
  vst1q_f64(lanes, acc_lo);
  vst1q_f64(lanes + 2, acc_hi);
  for (int k = 0; k < nf; ++k) acc[k] = lanes[k];
}

void pftk_batch_neon(std::size_t n, const double* rtt_ms, const double* loss,
                     const double* residual_bps, const double* capacity_bps,
                     const double* rwnd_bytes, const TcpModelParams& p,
                     double* out_bps) {
  const float64x2_t c1e3 = vdupq_n_f64(1e3);
  const float64x2_t rtt_floor = vdupq_n_f64(1e-4);
  const float64x2_t loss_gate = vdupq_n_f64(1e-9);
  const float64x2_t vb = vdupq_n_f64(p.b);
  const float64x2_t numer = vdupq_n_f64(p.aggressiveness * p.mss);
  const float64x2_t sentinel = vdupq_n_f64(1e18);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t vloss = vld1q_f64(loss + i);
    const float64x2_t rtt =
        vmaxq_f64(vdivq_f64(vld1q_f64(rtt_ms + i), c1e3), rtt_floor);
    const float64x2_t bp = vmulq_f64(vb, vloss);
    const float64x2_t t0 =
        vmaxq_f64(vdupq_n_f64(0.2), vmulq_f64(vdupq_n_f64(2.0), rtt));
    const float64x2_t sq1 = vsqrtq_f64(
        vdivq_f64(vmulq_f64(vdupq_n_f64(2.0), bp), vdupq_n_f64(3.0)));
    const float64x2_t sq2 = vmulq_f64(
        vdupq_n_f64(3.0),
        vsqrtq_f64(vdivq_f64(vmulq_f64(vdupq_n_f64(3.0), bp), vdupq_n_f64(8.0))));
    const float64x2_t poly = vaddq_f64(
        vdupq_n_f64(1.0), vmulq_f64(vmulq_f64(vdupq_n_f64(32.0), vloss), vloss));
    const float64x2_t denom = vaddq_f64(
        vmulq_f64(rtt, sq1),
        vmulq_f64(vmulq_f64(vmulq_f64(t0, vminq_f64(sq2, vdupq_n_f64(1.0))),
                            vloss),
                  poly));
    const uint64x2_t gated = vcgtq_f64(vloss, loss_gate);
    const float64x2_t loss_bound =
        vbslq_f64(gated, vdivq_f64(numer, denom), sentinel);
    const float64x2_t wnd_bound = vdivq_f64(vld1q_f64(rwnd_bytes + i), rtt);
    const float64x2_t cap = vdivq_f64(
        vminq_f64(vld1q_f64(residual_bps + i), vld1q_f64(capacity_bps + i)),
        vdupq_n_f64(8.0));
    const float64x2_t best = vminq_f64(vminq_f64(loss_bound, wnd_bound), cap);
    vst1q_f64(out_bps + i, vmulq_f64(vdupq_n_f64(8.0), best));
  }
  if (i < n) {
    pftk_batch_scalar(n - i, rtt_ms + i, loss + i, residual_bps + i,
                      capacity_bps + i, rwnd_bytes + i, p, out_bps + i);
  }
}

}  // namespace cronets::model::simd::detail

#endif  // aarch64
