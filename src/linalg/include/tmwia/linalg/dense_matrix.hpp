// Dense linear algebra substrate for the non-interactive SVD baseline
// (Section 2 "non-interactive model": the Drineas/Azar/Papadimitriou
// line of work reconstructs the preference matrix from sparse samples
// via a low-rank projection). We implement exactly the pieces that
// baseline needs: a row-major dense matrix and a block-power-iteration
// truncated SVD.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tmwia::linalg {

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }

  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }

  /// y = A * x. Requires x.size() == cols(); y.size() == rows().
  void matvec(std::span<const double> x, std::span<double> y) const;

  /// y = A^T * x. Requires x.size() == rows(); y.size() == cols().
  void matvec_t(std::span<const double> x, std::span<double> y) const;

  bool operator==(const DenseMatrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Truncated SVD A ~= U * diag(sigma) * V^T with k factors.
struct Svd {
  DenseMatrix u;              // rows x k
  std::vector<double> sigma;  // k, non-increasing
  DenseMatrix v;              // cols x k
};

/// Top-k SVD by block power (orthogonal) iteration on A^T A with
/// Gram-Schmidt re-orthogonalization. Deterministic given `seed`.
/// `iters` sweeps are plenty for the well-separated spectra the SVD
/// baseline assumes (and its failure on flat spectra is exactly the
/// phenomenon experiment E9 demonstrates).
Svd truncated_svd(const DenseMatrix& a, std::size_t k, std::size_t iters = 60,
                  std::uint64_t seed = 12345);

/// Rank-k reconstruction U * diag(sigma) * V^T.
DenseMatrix reconstruct(const Svd& svd);

}  // namespace tmwia::linalg
