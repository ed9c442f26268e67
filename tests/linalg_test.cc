// Tests for the dense matrix library and WD strategy builders, including
// parameterized pseudoinverse property sweeps (A·A⁺·A = A).

#include <gtest/gtest.h>

#include "common/random.h"
#include "linalg/matrix.h"
#include "linalg/strategy.h"

namespace dpstarj::linalg {
namespace {

Matrix FromRowsOrDie(const std::vector<std::vector<double>>& rows) {
  auto m = Matrix::FromRows(rows);
  EXPECT_TRUE(m.ok());
  return *m;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.0);
  m.At(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
}

TEST(MatrixTest, FromRowsRejectsRagged) {
  EXPECT_FALSE(Matrix::FromRows({{1, 2}, {3}}).ok());
}

TEST(MatrixTest, Row) {
  Matrix m = FromRowsOrDie({{1, 2}, {3, 4}});
  EXPECT_EQ(m.Row(1), (std::vector<double>{3, 4}));
}

TEST(MatrixTest, TransposeMultiply) {
  Matrix a = FromRowsOrDie({{1, 2, 3}, {4, 5, 6}});
  Matrix at = a.Transposed();
  EXPECT_EQ(at.rows(), 3);
  EXPECT_DOUBLE_EQ(at.At(2, 1), 6.0);
  auto prod = a.Multiply(at);  // 2x2
  ASSERT_TRUE(prod.ok());
  EXPECT_DOUBLE_EQ(prod->At(0, 0), 14.0);
  EXPECT_DOUBLE_EQ(prod->At(0, 1), 32.0);
  EXPECT_DOUBLE_EQ(prod->At(1, 1), 77.0);
  EXPECT_FALSE(a.Multiply(a).ok());  // shape mismatch
}

TEST(MatrixTest, InverseKnownMatrix) {
  Matrix a = FromRowsOrDie({{4, 7}, {2, 6}});
  auto inv = a.Inverse();
  ASSERT_TRUE(inv.ok());
  auto prod = a.Multiply(*inv);
  ASSERT_TRUE(prod.ok());
  EXPECT_NEAR(prod->At(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(prod->At(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(prod->At(1, 0), 0.0, 1e-9);
  EXPECT_NEAR(prod->At(1, 1), 1.0, 1e-9);
}

TEST(MatrixTest, InverseRejectsSingularAndNonSquare) {
  EXPECT_FALSE(FromRowsOrDie({{1, 2}, {2, 4}}).Inverse().ok());
  EXPECT_FALSE(Matrix(2, 3).Inverse().ok());
}

// --- pseudoinverse property: A·A⁺·A = A over random shapes -------------------

class PseudoInverseProperty : public ::testing::TestWithParam<int> {};

TEST_P(PseudoInverseProperty, ReconstructsA) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  int rows = static_cast<int>(rng.UniformInt(1, 8));
  int cols = static_cast<int>(rng.UniformInt(1, 8));
  Matrix a(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) a.At(r, c) = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  auto pinv = a.PseudoInverse();
  ASSERT_TRUE(pinv.ok());
  auto reconstructed = a.Multiply(*pinv)->Multiply(a);
  ASSERT_TRUE(reconstructed.ok());
  // With the tiny ridge fallback, allow a loose-but-meaningful tolerance.
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      EXPECT_NEAR(reconstructed->At(r, c), a.At(r, c), 1e-4)
          << "seed=" << GetParam() << " at (" << r << "," << c << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, PseudoInverseProperty,
                         ::testing::Range(0, 25));

TEST(StrategyTest, IdentityStrategy) {
  IntervalStrategy s = MakeIdentityStrategy(4);
  EXPECT_EQ(s.intervals.size(), 4u);
  Matrix m = s.AsMatrix();
  EXPECT_EQ(m, Matrix::Identity(4));
}

TEST(StrategyTest, HierarchicalCoversAllLevels) {
  IntervalStrategy s = MakeHierarchicalStrategy(7);
  // Root must be the full domain; leaves must include every unit cell.
  EXPECT_EQ(s.intervals.front(), std::make_pair(0, 6));
  int unit_cells = 0;
  for (auto [lo, hi] : s.intervals) {
    EXPECT_LE(lo, hi);
    if (lo == hi) ++unit_cells;
  }
  EXPECT_EQ(unit_cells, 7);
  // Row space spans the domain: identity decomposes exactly.
  auto x = SolveDecomposition(Matrix::Identity(7), s.AsMatrix());
  ASSERT_TRUE(x.ok());
  auto recon = x->Multiply(s.AsMatrix());
  ASSERT_TRUE(recon.ok());
  for (int r = 0; r < 7; ++r) {
    for (int c = 0; c < 7; ++c) {
      EXPECT_NEAR(recon->At(r, c), r == c ? 1.0 : 0.0, 1e-6);
    }
  }
}

TEST(StrategyTest, RangeStructureDetection) {
  Matrix points = FromRowsOrDie({{1, 0, 0}, {0, 0, 1}});
  EXPECT_FALSE(HasRangeStructure(points));
  Matrix ranges = FromRowsOrDie({{1, 1, 0}});
  EXPECT_TRUE(HasRangeStructure(ranges));
  EXPECT_EQ(ChooseStrategy(points, 3).description, "identity(3)");
  EXPECT_EQ(ChooseStrategy(ranges, 3).description, "hierarchical(3)");
}

class DecompositionProperty : public ::testing::TestWithParam<int> {};

// Any interval workload decomposes exactly over the hierarchical strategy.
TEST_P(DecompositionProperty, IntervalWorkloadsDecomposeExactly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  int m = static_cast<int>(rng.UniformInt(2, 12));
  int l = static_cast<int>(rng.UniformInt(1, 6));
  Matrix p(l, m);
  for (int q = 0; q < l; ++q) {
    int lo = static_cast<int>(rng.UniformInt(0, m - 1));
    int hi = static_cast<int>(rng.UniformInt(lo, m - 1));
    for (int c = lo; c <= hi; ++c) p.At(q, c) = 1.0;
  }
  IntervalStrategy s = MakeHierarchicalStrategy(m);
  auto x = SolveDecomposition(p, s.AsMatrix());
  ASSERT_TRUE(x.ok());
  auto recon = x->Multiply(s.AsMatrix());
  ASSERT_TRUE(recon.ok());
  for (int q = 0; q < l; ++q) {
    for (int c = 0; c < m; ++c) {
      EXPECT_NEAR(recon->At(q, c), p.At(q, c), 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, DecompositionProperty,
                         ::testing::Range(0, 20));

TEST(StrategyTest, DecompositionShapeMismatch) {
  EXPECT_FALSE(SolveDecomposition(Matrix(2, 3), Matrix(3, 4)).ok());
}

}  // namespace
}  // namespace dpstarj::linalg
