#include "common/random.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"

namespace dpstarj {

Rng Rng::Fork() { return Rng(engine_()); }

double Rng::Uniform01() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  DPSTARJ_CHECK(lo <= hi, "UniformInt requires lo <= hi");
  return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
}

double Rng::Laplace(double scale) {
  DPSTARJ_CHECK(scale >= 0.0, "Laplace scale must be non-negative");
  if (scale == 0.0) return 0.0;
  // Inverse CDF: u ~ U(-1/2, 1/2); x = -b * sgn(u) * ln(1 - 2|u|).
  double u = Uniform01() - 0.5;
  double sign = (u < 0) ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::abs(u));
}

double Rng::Cauchy(double scale) {
  DPSTARJ_CHECK(scale >= 0.0, "Cauchy scale must be non-negative");
  if (scale == 0.0) return 0.0;
  return std::cauchy_distribution<double>(0.0, scale)(engine_);
}

double Rng::GeneralCauchy(double gamma, double scale) {
  DPSTARJ_CHECK(gamma >= 2.0, "GeneralCauchy requires gamma >= 2");
  DPSTARJ_CHECK(scale >= 0.0, "GeneralCauchy scale must be non-negative");
  if (scale == 0.0) return 0.0;
  // Rejection sampling with standard Cauchy envelope:
  // target f(z) ∝ 1/(1+|z|^γ); envelope g(z) ∝ 1/(1+z²).
  // ratio f/g = (1+z²)/(1+|z|^γ) ≤ M with M ≤ 2 for γ ≥ 2.
  for (int iter = 0; iter < 10000; ++iter) {
    double z = std::cauchy_distribution<double>(0.0, 1.0)(engine_);
    double accept = (1.0 + z * z) / (1.0 + std::pow(std::abs(z), gamma)) / 2.0;
    if (Uniform01() < accept) return z * scale;
  }
  // Unreachable in practice (acceptance prob is Θ(1)); fall back to center.
  return 0.0;
}

double Rng::Exponential(double lambda) {
  DPSTARJ_CHECK(lambda > 0.0, "Exponential rate must be positive");
  return std::exponential_distribution<double>(lambda)(engine_);
}

double Rng::Gamma(double shape, double scale) {
  DPSTARJ_CHECK(shape > 0.0 && scale > 0.0, "Gamma parameters must be positive");
  return std::gamma_distribution<double>(shape, scale)(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  DPSTARJ_CHECK(stddev >= 0.0, "Gaussian stddev must be non-negative");
  if (stddev == 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::GaussianMixture(const std::vector<double>& weights,
                            const std::vector<double>& means,
                            const std::vector<double>& stddevs) {
  DPSTARJ_CHECK(weights.size() == means.size() && means.size() == stddevs.size(),
                "GaussianMixture component vectors must have equal size");
  DPSTARJ_CHECK(!weights.empty(), "GaussianMixture needs at least one component");
  std::vector<double> cdf = BuildCdf(weights);
  DPSTARJ_CHECK(!cdf.empty(), "GaussianMixture weights must have positive mass");
  size_t i = DiscreteFromCdf(cdf);
  return Gaussian(means[i], stddevs[i]);
}

bool Rng::Bernoulli(double p) {
  DPSTARJ_CHECK(p >= 0.0 && p <= 1.0, "Bernoulli p in [0,1]");
  return Uniform01() < p;
}

size_t Rng::DiscreteFromCdf(const std::vector<double>& cdf) {
  DPSTARJ_CHECK(!cdf.empty() && cdf.back() > 0.0, "DiscreteFromCdf needs mass");
  double u = Uniform01() * cdf.back();
  auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<size_t>(it - cdf.begin());
}

std::vector<double> BuildCdf(const std::vector<double>& weights) {
  std::vector<double> cdf;
  cdf.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    acc += std::max(0.0, w);
    cdf.push_back(acc);
  }
  if (cdf.empty() || cdf.back() <= 0.0) return {};
  return cdf;
}

}  // namespace dpstarj
