// sim::DrawStream, the counter-based per-pair measurement-noise stream:
// draw i is a pure function of (key, i), and its uniform/normal outputs
// have the advertised range and moments.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "sim/hash_rng.h"

namespace cronets::sim {
namespace {

TEST(DrawStream, PureFunctionOfKeyAndIndex) {
  // Two streams with one key agree draw for draw, whatever the mix.
  DrawStream a(0x1234), b(0x1234), c(0x1235);
  int differ = 0;
  for (int i = 0; i < 1000; ++i) {
    const double ua = a.uniform(0.0, 1.0), ub = b.uniform(0.0, 1.0);
    const double na = a.normal(0.0, 1.0), nb = b.normal(0.0, 1.0);
    EXPECT_EQ(ua, ub);
    EXPECT_EQ(na, nb);
    const double uc = c.uniform(0.0, 1.0);
    const double nc = c.normal(0.0, 1.0);
    differ += (ua != uc) + (na != nc);
  }
  EXPECT_EQ(a.counter(), 3000u);  // one counter per uniform, two per normal
  EXPECT_EQ(differ, 2000);        // a neighbouring key shares no draw

  // Draw i is splitmix64(key + kGamma * i): no hidden state besides the
  // counter, so a draw can be recomputed from (key, index) alone.
  const std::uint64_t key = pair_seed(42, 3, 7, 1'000'000'000);
  DrawStream s(key);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const double want =
        static_cast<double>(splitmix64(key + DrawStream::kGamma * i) >> 11) *
        0x1.0p-53;
    EXPECT_EQ(s.uniform(0.0, 1.0), want);
  }
  // A normal owns the next two counters (Box-Muller on both halves).
  const double u1 = hash_u01(key + DrawStream::kGamma * 8);
  const double u2 = hash_u01(key + DrawStream::kGamma * 9);
  EXPECT_EQ(s.normal(0.0, 1.0),
            std::sqrt(-2.0 * std::log(u1)) *
                std::cos(6.28318530717958647692 * u2));
  EXPECT_EQ(s.counter(), 10u);
}

TEST(DrawStream, NormalHasUnitMomentsOver200kDraws) {
  constexpr int kDraws = 200'000;
  // One long stream, and the first draw of many per-pair streams (the
  // measurement path's shape: few draws per key).
  double sum = 0, sum2 = 0, first_sum = 0, first_sum2 = 0;
  DrawStream s(7);
  for (int i = 0; i < kDraws; ++i) {
    const double x = s.normal(0.0, 1.0);
    sum += x;
    sum2 += x * x;
    DrawStream pair(pair_seed(7, i % 500, i / 500, 60'000'000'000));
    const double y = pair.normal(0.0, 1.0);
    first_sum += y;
    first_sum2 += y * y;
  }
  for (const auto& [s1, s2] : {std::pair{sum, sum2},
                              std::pair{first_sum, first_sum2}}) {
    const double mean = s1 / kDraws;
    const double sd = std::sqrt(s2 / kDraws - mean * mean);
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(sd, 1.0, 0.01);
  }
  // mean and sd are applied affinely.
  DrawStream u(9), v(9);
  EXPECT_EQ(u.normal(3.0, 0.5), 3.0 + 0.5 * v.normal(0.0, 1.0));
}

TEST(DrawStream, UniformStaysInHalfOpenRange) {
  DrawStream s(11);
  double sum = 0;
  for (int i = 0; i < 100'000; ++i) {
    const double x = s.uniform(0.88, 0.96);
    ASSERT_GE(x, 0.88);
    ASSERT_LT(x, 0.96);
    sum += x;
    const double y = s.uniform(-2.0, 5.0);
    ASSERT_GE(y, -2.0);
    ASSERT_LT(y, 5.0);
  }
  EXPECT_NEAR(sum / 100'000, 0.92, 0.001);
  // A one-ulp range: lo + (hi - lo) * u rounds to hi for u > 1/2, and the
  // stream still returns a value below hi.
  const double lo = 1.0, hi = std::nextafter(1.0, 2.0);
  for (int i = 0; i < 1000; ++i) {
    const double x = s.uniform(lo, hi);
    ASSERT_GE(x, lo);
    ASSERT_LT(x, hi);
  }
}

}  // namespace
}  // namespace cronets::sim
