#include "linalg/matrix.h"

#include <cmath>

#include "common/string_util.h"

namespace dpstarj::linalg {

Matrix::Matrix(int rows, int cols)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, 0.0) {
  DPSTARJ_CHECK(rows >= 0 && cols >= 0, "matrix shape must be non-negative");
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Result<Matrix> Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix(0, 0);
  size_t cols = rows[0].size();
  for (const auto& r : rows) {
    if (r.size() != cols) {
      return Status::InvalidArgument("FromRows: ragged row lengths");
    }
  }
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(cols));
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m.At(static_cast<int>(i), static_cast<int>(j)) = rows[i][j];
    }
  }
  return m;
}

double& Matrix::At(int r, int c) {
  DPSTARJ_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "matrix index OOB");
  return data_[static_cast<size_t>(r) * cols_ + c];
}

double Matrix::At(int r, int c) const {
  DPSTARJ_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "matrix index OOB");
  return data_[static_cast<size_t>(r) * cols_ + c];
}

std::vector<double> Matrix::Row(int r) const {
  DPSTARJ_CHECK(r >= 0 && r < rows_, "row index OOB");
  return std::vector<double>(data_.begin() + static_cast<long>(r) * cols_,
                             data_.begin() + static_cast<long>(r + 1) * cols_);
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) t.At(c, r) = At(r, c);
  }
  return t;
}

Result<Matrix> Matrix::Multiply(const Matrix& other) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument(
        Format("matmul shape mismatch: %dx%d * %dx%d", rows_, cols_, other.rows_,
               other.cols_));
  }
  Matrix out(rows_, other.cols_);
  for (int i = 0; i < rows_; ++i) {
    for (int k = 0; k < cols_; ++k) {
      double a = At(i, k);
      if (a == 0.0) continue;
      for (int j = 0; j < other.cols_; ++j) {
        out.At(i, j) += a * other.At(k, j);
      }
    }
  }
  return out;
}

Result<Matrix> Matrix::Inverse() const {
  if (rows_ != cols_) return Status::InvalidArgument("inverse requires square matrix");
  int n = rows_;
  // Augmented [A | I], Gauss-Jordan with partial pivoting.
  Matrix a = *this;
  Matrix inv = Identity(n);
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    double best = std::abs(a.At(col, col));
    for (int r = col + 1; r < n; ++r) {
      if (std::abs(a.At(r, col)) > best) {
        best = std::abs(a.At(r, col));
        pivot = r;
      }
    }
    if (best < 1e-12) return Status::InvalidArgument("matrix is singular");
    if (pivot != col) {
      for (int c = 0; c < n; ++c) {
        std::swap(a.At(pivot, c), a.At(col, c));
        std::swap(inv.At(pivot, c), inv.At(col, c));
      }
    }
    double d = a.At(col, col);
    for (int c = 0; c < n; ++c) {
      a.At(col, c) /= d;
      inv.At(col, c) /= d;
    }
    for (int r = 0; r < n; ++r) {
      if (r == col) continue;
      double f = a.At(r, col);
      if (f == 0.0) continue;
      for (int c = 0; c < n; ++c) {
        a.At(r, c) -= f * a.At(col, c);
        inv.At(r, c) -= f * inv.At(col, c);
      }
    }
  }
  return inv;
}

namespace {
Result<Matrix> RidgeInverse(const Matrix& gram) {
  auto inv = gram.Inverse();
  if (inv.ok()) return inv;
  // Tikhonov fallback for numerically singular Gram matrices.
  double trace = 0.0;
  for (int i = 0; i < gram.rows(); ++i) trace += gram.At(i, i);
  double lambda = 1e-10 * (trace > 0 ? trace : 1.0);
  Matrix ridged = gram;
  for (int i = 0; i < gram.rows(); ++i) ridged.At(i, i) += lambda;
  return ridged.Inverse();
}
}  // namespace

Result<Matrix> Matrix::PseudoInverse() const {
  if (rows_ == 0 || cols_ == 0) return Status::InvalidArgument("empty matrix");
  Matrix t = Transposed();
  if (rows_ >= cols_) {
    // A⁺ = (AᵀA)⁻¹Aᵀ
    DPSTARJ_ASSIGN_OR_RETURN(Matrix gram, t.Multiply(*this));
    DPSTARJ_ASSIGN_OR_RETURN(Matrix gram_inv, RidgeInverse(gram));
    return gram_inv.Multiply(t);
  }
  // A⁺ = Aᵀ(AAᵀ)⁻¹
  DPSTARJ_ASSIGN_OR_RETURN(Matrix gram, Multiply(t));
  DPSTARJ_ASSIGN_OR_RETURN(Matrix gram_inv, RidgeInverse(gram));
  return t.Multiply(gram_inv);
}

}  // namespace dpstarj::linalg
