// Tests for the linalg substrate: DenseMatrix ops and the truncated SVD
// the non-interactive baseline depends on.
#include <gtest/gtest.h>

#include <cmath>

#include "tmwia/linalg/dense_matrix.hpp"

namespace tmwia::linalg {
namespace {

TEST(DenseMatrix, ConstructAndIndex) {
  DenseMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(DenseMatrix, MatvecKnown) {
  DenseMatrix m(2, 3);
  // [1 2 3; 4 5 6]
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  std::vector<double> x{1, 0, -1}, y(2);
  m.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);

  std::vector<double> u{1, 1}, v(3);
  m.matvec_t(u, v);
  EXPECT_DOUBLE_EQ(v[0], 5.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
  EXPECT_DOUBLE_EQ(v[2], 9.0);
}

TEST(DenseMatrix, MatvecDimensionChecks) {
  DenseMatrix m(2, 3);
  std::vector<double> x(2), y(2);
  EXPECT_THROW(m.matvec(x, y), std::invalid_argument);
  std::vector<double> u(3), v(3);
  EXPECT_THROW(m.matvec_t(u, v), std::invalid_argument);
}

DenseMatrix rank_k_matrix(std::size_t n, std::size_t m, std::size_t k,
                          const std::vector<double>& sigmas) {
  // Build sum sigma_i * u_i v_i^T with orthogonal-ish indicator blocks.
  DenseMatrix a(n, m);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t r = i * (n / k); r < (i + 1) * (n / k); ++r) {
      for (std::size_t c = i * (m / k); c < (i + 1) * (m / k); ++c) {
        a(r, c) = sigmas[i] / std::sqrt(static_cast<double>((n / k) * (m / k)));
      }
    }
  }
  return a;
}

TEST(Svd, RecoversRankOne) {
  const auto a = rank_k_matrix(16, 16, 1, {10.0});
  const auto svd = truncated_svd(a, 1);
  EXPECT_NEAR(svd.sigma[0], 10.0, 1e-6);
  const auto r = reconstruct(svd);
  double err = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      err = std::max(err, std::abs(r(i, j) - a(i, j)));
    }
  }
  EXPECT_LT(err, 1e-6);
}

TEST(Svd, SigmasSortedAndAccurate) {
  const auto a = rank_k_matrix(24, 24, 3, {9.0, 5.0, 2.0});
  const auto svd = truncated_svd(a, 3);
  ASSERT_EQ(svd.sigma.size(), 3u);
  EXPECT_NEAR(svd.sigma[0], 9.0, 1e-5);
  EXPECT_NEAR(svd.sigma[1], 5.0, 1e-5);
  EXPECT_NEAR(svd.sigma[2], 2.0, 1e-5);
}

TEST(Svd, RankKReconstructionExactForRankKInput) {
  const auto a = rank_k_matrix(20, 40, 2, {7.0, 3.0});
  const auto svd = truncated_svd(a, 2);
  const auto r = reconstruct(svd);
  double err = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      err = std::max(err, std::abs(r(i, j) - a(i, j)));
    }
  }
  EXPECT_LT(err, 1e-6);
}

TEST(Svd, SingularVectorsOrthonormal) {
  const auto a = rank_k_matrix(24, 24, 3, {9.0, 5.0, 2.0});
  const auto svd = truncated_svd(a, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      double dot_v = 0;
      for (std::size_t c = 0; c < 24; ++c) dot_v += svd.v(c, i) * svd.v(c, j);
      EXPECT_NEAR(dot_v, i == j ? 1.0 : 0.0, 1e-8) << "v" << i << "." << j;
    }
  }
}

TEST(Svd, RejectsBadRank) {
  DenseMatrix a(4, 4);
  EXPECT_THROW(truncated_svd(a, 0), std::invalid_argument);
  EXPECT_THROW(truncated_svd(a, 5), std::invalid_argument);
}

TEST(Svd, DeterministicGivenSeed) {
  const auto a = rank_k_matrix(16, 16, 2, {4.0, 2.0});
  const auto s1 = truncated_svd(a, 2, 40, 999);
  const auto s2 = truncated_svd(a, 2, 40, 999);
  EXPECT_EQ(s1.sigma, s2.sigma);
  EXPECT_EQ(s1.u, s2.u);
}

TEST(Svd, HandlesZeroMatrix) {
  DenseMatrix a(8, 8);
  const auto svd = truncated_svd(a, 2);
  EXPECT_NEAR(svd.sigma[0], 0.0, 1e-9);
  EXPECT_NEAR(svd.sigma[1], 0.0, 1e-9);
}

}  // namespace
}  // namespace tmwia::linalg
