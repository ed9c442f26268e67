// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// A small dense row-major matrix used by the Workload Decomposition mechanism
// (Algorithm 4): predicate matrices, strategy matrices, pseudoinverses.

#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace dpstarj::linalg {

/// \brief Dense row-major matrix of doubles.
class Matrix {
 public:
  /// Zero matrix of the given shape (both dimensions may be 0).
  Matrix() = default;
  Matrix(int rows, int cols);

  /// Identity of size n.
  static Matrix Identity(int n);
  /// Builds from nested initializer data (rows must have equal length).
  static Result<Matrix> FromRows(const std::vector<std::vector<double>>& rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Element access (bounds-checked in debug builds).
  double& At(int r, int c);
  double At(int r, int c) const;

  /// One row as a vector.
  std::vector<double> Row(int r) const;

  /// Transpose.
  Matrix Transposed() const;

  /// Matrix product; shape mismatch returns InvalidArgument.
  Result<Matrix> Multiply(const Matrix& other) const;

  /// \brief Inverse via Gauss–Jordan with partial pivoting. Requires square;
  /// singular matrices return InvalidArgument.
  Result<Matrix> Inverse() const;

  /// \brief Moore–Penrose pseudoinverse.
  ///
  /// Full-column-rank: (AᵀA)⁻¹Aᵀ; full-row-rank: Aᵀ(AAᵀ)⁻¹. When the Gram
  /// matrix is singular, a small ridge (λI, λ = 1e-10·trace) is applied —
  /// adequate for the well-conditioned 0/1 strategy matrices WD uses.
  Result<Matrix> PseudoInverse() const;

  bool operator==(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;  // row-major
};

}  // namespace dpstarj::linalg
