// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Seeded random number generation and the noise distributions used by the DP
// mechanisms (Laplace, general Cauchy) plus the data-skew distributions used
// by the benchmark generators (exponential, gamma, Gaussian mixture).

#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace dpstarj {

/// \brief A seedable random engine with the samplers the library needs.
///
/// All randomness in dpstarj flows through this class so that experiments are
/// reproducible given a seed. The engine is mt19937_64. Not thread-safe; use
/// one Rng per thread (see Fork()).
class Rng {
 public:
  /// Constructs with a fixed default seed (reproducible runs).
  Rng() : engine_(kDefaultSeed) {}
  /// Constructs with the given seed.
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Default seed used by the no-arg constructor.
  static constexpr uint64_t kDefaultSeed = 0x5bd1e995u;

  /// Returns a new Rng seeded from this one (for per-thread streams).
  Rng Fork();

  /// Uniform double in [0, 1).
  double Uniform01();
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief Laplace noise with the given scale b (density ∝ exp(-|x|/b)).
  ///
  /// Variance is 2·b². The Laplace mechanism adds Laplace(sensitivity/ε).
  double Laplace(double scale);

  /// \brief Standard Cauchy noise scaled by `scale` (heavy polynomial tail).
  ///
  /// Used by the LS baseline: noise Cauchy(L̂S/β) with β = ε/(2(γ+1)).
  double Cauchy(double scale);

  /// \brief General Cauchy with parameter gamma: density ∝ 1/(1+|z|^γ).
  ///
  /// Sampled by rejection from the standard Cauchy envelope. γ = 4 gives the
  /// distribution quoted in the paper (§4) with Var = 1 before scaling.
  double GeneralCauchy(double gamma, double scale);

  /// Exponential with rate lambda (mean 1/lambda).
  double Exponential(double lambda);

  /// Gamma with shape k and scale theta.
  double Gamma(double shape, double scale);

  /// Gaussian with the given mean and stddev.
  double Gaussian(double mean, double stddev);

  /// \brief Sample from a mixture of Gaussians: component i has weight
  /// weights[i], mean means[i], stddev stddevs[i]. Weights need not sum to 1.
  double GaussianMixture(const std::vector<double>& weights,
                         const std::vector<double>& means,
                         const std::vector<double>& stddevs);

  /// Bernoulli with probability p.
  bool Bernoulli(double p);

  /// \brief Samples an index in [0, cdf.size()) from a discrete distribution
  /// given its (non-normalized) cumulative weights. cdf must be non-decreasing
  /// with cdf.back() > 0.
  size_t DiscreteFromCdf(const std::vector<double>& cdf);

  /// Direct access to the engine for std:: distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// \brief Builds a cumulative weight vector from raw weights (for
/// Rng::DiscreteFromCdf). Returns an empty vector if weights are empty or all
/// non-positive.
std::vector<double> BuildCdf(const std::vector<double>& weights);

}  // namespace dpstarj
