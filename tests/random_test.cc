// Statistical tests for the noise samplers. Tolerances are loose enough to be
// deterministic under the fixed seeds yet tight enough to catch scale bugs
// (e.g. variance off by 2×).

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"
#include "common/random.h"

namespace dpstarj {
namespace {

constexpr int kSamples = 200000;

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform01() == b.Uniform01()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng child = a.Fork();
  // The fork must not replay the parent stream.
  Rng fresh(7);
  fresh.Uniform01();  // parent consumed one draw to fork
  EXPECT_NE(child.Uniform01(), fresh.Uniform01());
}

TEST(RngTest, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
  }
}

TEST(RngTest, LaplaceMoments) {
  Rng rng(11);
  double scale = 3.0;
  std::vector<double> xs(kSamples);
  for (auto& x : xs) x = rng.Laplace(scale);
  // E = 0, Var = 2b².
  EXPECT_NEAR(Mean(xs), 0.0, 0.05);
  double var = StdDev(xs) * StdDev(xs);
  EXPECT_NEAR(var, 2 * scale * scale, 0.05 * 2 * scale * scale);
}

TEST(RngTest, LaplaceZeroScaleIsZero) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.Laplace(0.0), 0.0);
}

TEST(RngTest, LaplaceTailProbability) {
  Rng rng(13);
  double b = 1.0;
  int beyond = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (std::abs(rng.Laplace(b)) > 3.0 * b) ++beyond;
  }
  // P(|X| > 3b) = e^{-3} ≈ 0.0498.
  double frac = static_cast<double>(beyond) / kSamples;
  EXPECT_NEAR(frac, std::exp(-3.0), 0.01);
}

TEST(RngTest, GeneralCauchyGamma4HasUnitScaleMedianSpread) {
  Rng rng(17);
  // For density ∝ 1/(1+|z|⁴) the quartiles sit near ±0.59; check the
  // interquartile spread is far narrower than standard Cauchy's (±1).
  std::vector<double> xs(kSamples);
  for (auto& x : xs) x = rng.GeneralCauchy(4.0, 1.0);
  EXPECT_NEAR(Mean(xs), 0.0, 0.05);
  std::sort(xs.begin(), xs.end());
  double q1 = xs[kSamples / 4];
  double q3 = xs[3 * kSamples / 4];
  EXPECT_NEAR(q3, -q1, 0.08);     // symmetry
  EXPECT_GT(q3, 0.35);
  EXPECT_LT(q3, 0.85);
}

TEST(RngTest, GeneralCauchyScaleMultiplies) {
  Rng a(19), b(19);
  for (int i = 0; i < 100; ++i) {
    double x1 = a.GeneralCauchy(4.0, 1.0);
    double x2 = b.GeneralCauchy(4.0, 10.0);
    EXPECT_NEAR(x2, 10.0 * x1, 1e-9);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  std::vector<double> xs(kSamples);
  for (auto& x : xs) x = rng.Exponential(2.0);
  EXPECT_NEAR(Mean(xs), 0.5, 0.02);
  for (double x : xs) EXPECT_GE(x, 0.0);
}

TEST(RngTest, GammaMoments) {
  Rng rng(29);
  std::vector<double> xs(kSamples);
  for (auto& x : xs) x = rng.Gamma(2.0, 3.0);
  EXPECT_NEAR(Mean(xs), 6.0, 0.15);  // kθ
  double var = StdDev(xs) * StdDev(xs);
  EXPECT_NEAR(var, 18.0, 1.0);  // kθ²
}

TEST(RngTest, GaussianMoments) {
  Rng rng(31);
  std::vector<double> xs(kSamples);
  for (auto& x : xs) x = rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(Mean(xs), 5.0, 0.05);
  EXPECT_NEAR(StdDev(xs), 2.0, 0.05);
}

TEST(RngTest, GaussianMixtureBimodal) {
  Rng rng(37);
  std::vector<double> xs(kSamples);
  for (auto& x : xs) {
    x = rng.GaussianMixture({1.0, 1.0}, {-4.0, 4.0}, {0.5, 0.5});
  }
  EXPECT_NEAR(Mean(xs), 0.0, 0.1);
  // Hardly any mass near zero for well-separated modes.
  int near_zero = 0;
  for (double x : xs) {
    if (std::abs(x) < 1.0) ++near_zero;
  }
  EXPECT_LT(near_zero, kSamples / 100);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(43);
  int heads = 0;
  for (int i = 0; i < kSamples; ++i) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / kSamples, 0.3, 0.01);
}

TEST(RngTest, DiscreteFromCdfRespectsWeights) {
  Rng rng(47);
  std::vector<double> cdf = BuildCdf({1.0, 0.0, 3.0});
  ASSERT_EQ(cdf.size(), 3u);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.DiscreteFromCdf(cdf)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kSamples, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kSamples, 0.75, 0.01);
}

TEST(RngTest, BuildCdfRejectsEmptyMass) {
  EXPECT_TRUE(BuildCdf({}).empty());
  EXPECT_TRUE(BuildCdf({0.0, -1.0}).empty());
}

}  // namespace
}  // namespace dpstarj
