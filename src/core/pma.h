// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// PMA — Predicate Mechanism for an Attribute (paper Algorithm 2).
//
// Point constraint a = v:   v̂ = v + Lap(|dom(a)|/ε), rounded and clamped into
//                           the domain.
// Range constraint a∈[l,r]: two readings of Algorithm 2 are provided:
//   * kSharedShift (default) — one Laplace draw Lap(|dom|/ε) translates the
//     whole interval, clamped so it stays inside the domain; the width is
//     preserved exactly. This is the only reading consistent with the paper's
//     reported utility: Table 1's Qc4 keeps ~8% error at ε = 0.1 although the
//     per-endpoint noise scale (2·7/0.025 = 560) dwarfs the year domain — a
//     mechanism that can change the range *width* at that scale answers with
//     the wrong selectivity almost surely (docs/design.md).
//   * kIndependentEndpoints — the verbatim text: each endpoint gets ε/2 of
//     the budget (noise Lap(2·|dom|/ε)), clamped into the domain, resampled
//     until the interval is proper (l̂ < r̂), with a bounded retry count and
//     an order-and-widen fallback to guarantee termination.
//
// All arithmetic happens in domain-index space [0, m); the global sensitivity
// of a predicate is its attribute's domain size m (Theorem 5.2).

#pragma once

#include "common/random.h"
#include "common/result.h"
#include "query/predicate.h"

namespace dpstarj::core {

/// How range constraints are perturbed (see file comment).
enum class PmaRangeMode : int {
  kSharedShift = 0,
  kIndependentEndpoints = 1,
};

/// \brief Tunables for PMA.
struct PmaOptions {
  /// Range perturbation reading.
  PmaRangeMode range_mode = PmaRangeMode::kSharedShift;
  /// kIndependentEndpoints: resample attempts for degenerate perturbed ranges
  /// before falling back to ordering-and-widening the endpoints.
  int max_range_retries = 64;
};

/// \brief Algorithm 2: perturbs one bound predicate with budget ε.
///
/// The returned predicate has the same table/column/domain with noisy
/// lo/hi indices; feeding it back through the executor (as a predicate
/// override) yields the noisy query of Algorithm 1.
Result<query::BoundPredicate> PerturbPredicate(const query::BoundPredicate& pred,
                                               double epsilon, Rng* rng,
                                               const PmaOptions& options = {});

/// \brief The Laplace scale PMA uses for a point constraint: m/ε.
double PmaPointScale(int64_t domain_size, double epsilon);
/// \brief The Laplace scale PMA uses per range endpoint: 2m/ε.
double PmaRangeScale(int64_t domain_size, double epsilon);

}  // namespace dpstarj::core
