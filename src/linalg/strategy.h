// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Strategy matrices for the Workload Decomposition mechanism (Algorithm 4).
// A strategy over a domain of size m is a set of *interval* queries — each
// strategy row must remain a valid predicate (point or range constraint) so
// it can be perturbed by the Predicate Mechanism for an Attribute (PMA).

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace dpstarj::linalg {

/// \brief A strategy: an ordered list of closed index intervals [lo, hi] over
/// a finite domain {0, ..., domain_size-1}. Points are intervals with lo==hi.
struct IntervalStrategy {
  int domain_size = 0;
  std::vector<std::pair<int, int>> intervals;

  /// The 0/1 indicator matrix (|intervals| × domain_size).
  Matrix AsMatrix() const;

  /// Human-readable strategy name, for logs and bench diagnostics.
  std::string description;
};

/// \brief Identity strategy: one point query per domain cell. Optimal for
/// workloads of disjoint point predicates.
IntervalStrategy MakeIdentityStrategy(int domain_size);

/// \brief Hierarchical (binary interval tree) strategy: the full domain, its
/// halves, quarters, ... down to single cells. Answers any prefix/range query
/// as a combination of O(log m) strategy rows; the classic choice for
/// cumulative workloads.
IntervalStrategy MakeHierarchicalStrategy(int domain_size);

/// \brief Heuristic: does the workload's per-dimension predicate matrix have
/// range structure (rows selecting ≥2 contiguous cells)? If so the
/// hierarchical strategy pays off, otherwise identity.
bool HasRangeStructure(const Matrix& predicate_matrix);

/// \brief Chooses a strategy for a predicate matrix over the given domain:
/// hierarchical when HasRangeStructure, identity otherwise.
IntervalStrategy ChooseStrategy(const Matrix& predicate_matrix, int domain_size);

/// \brief Solves X = P·A⁺ so that P ≈ X·A (exact when rowspace(P) ⊆
/// rowspace(A), which holds for both built-in strategies since they span the
/// full domain).
Result<Matrix> SolveDecomposition(const Matrix& predicate_matrix,
                                  const Matrix& strategy_matrix);

}  // namespace dpstarj::linalg
