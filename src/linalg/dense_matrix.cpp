#include "tmwia/linalg/dense_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace tmwia::linalg {
namespace {

// Local SplitMix64 so linalg does not depend on tmwia_rng.
std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::span<double> x, double alpha) {
  for (auto& v : x) v *= alpha;
}

}  // namespace

void DenseMatrix::matvec(std::span<const double> x, std::span<double> y) const {
  if (x.size() != cols_ || y.size() != rows_) {
    throw std::invalid_argument("DenseMatrix::matvec: dimension mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    y[r] = dot(row(r), x);
  }
}

void DenseMatrix::matvec_t(std::span<const double> x, std::span<double> y) const {
  if (x.size() != rows_ || y.size() != cols_) {
    throw std::invalid_argument("DenseMatrix::matvec_t: dimension mismatch");
  }
  for (auto& v : y) v = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    axpy(x[r], row(r), y);
  }
}

Svd truncated_svd(const DenseMatrix& a, std::size_t k, std::size_t iters, std::uint64_t seed) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  if (k == 0 || k > std::min(n, m)) {
    throw std::invalid_argument("truncated_svd: k out of range");
  }

  // Right singular block V: m x k, random init, orthonormalized.
  std::vector<std::vector<double>> v(k, std::vector<double>(m));
  std::uint64_t st = seed;
  for (auto& col : v) {
    for (auto& x : col) x = static_cast<double>(mix64(st) >> 11) * 0x1.0p-53 - 0.5;
  }

  std::vector<double> tmp_n(n);
  std::vector<double> tmp_m(m);

  auto orthonormalize = [&]() {
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        const double c = dot(v[i], v[j]);
        axpy(-c, v[j], v[i]);
      }
      const double nv = norm2(v[i]);
      if (nv > 1e-12) {
        scale(v[i], 1.0 / nv);
      } else {
        // Degenerate direction: re-randomize to keep the block full rank.
        for (auto& x : v[i]) x = static_cast<double>(mix64(st) >> 11) * 0x1.0p-53 - 0.5;
        const double n2 = norm2(v[i]);
        scale(v[i], 1.0 / n2);
      }
    }
  };

  orthonormalize();
  for (std::size_t it = 0; it < iters; ++it) {
    // v_i <- A^T (A v_i), then re-orthonormalize the block.
    for (std::size_t i = 0; i < k; ++i) {
      a.matvec(v[i], tmp_n);
      a.matvec_t(tmp_n, tmp_m);
      v[i] = tmp_m;
    }
    orthonormalize();
  }

  Svd out;
  out.v = DenseMatrix(m, k);
  out.u = DenseMatrix(n, k);
  out.sigma.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    a.matvec(v[i], tmp_n);
    const double s = norm2(tmp_n);
    out.sigma[i] = s;
    for (std::size_t r = 0; r < n; ++r) {
      out.u(r, i) = s > 1e-12 ? tmp_n[r] / s : 0.0;
    }
    for (std::size_t c = 0; c < m; ++c) {
      out.v(c, i) = v[i][c];
    }
  }

  // Sort factors by non-increasing sigma (power iteration usually
  // delivers them sorted, but Gram-Schmidt order is not guaranteed).
  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return out.sigma[x] > out.sigma[y]; });
  Svd sorted;
  sorted.u = DenseMatrix(n, k);
  sorted.v = DenseMatrix(m, k);
  sorted.sigma.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    sorted.sigma[i] = out.sigma[order[i]];
    for (std::size_t r = 0; r < n; ++r) sorted.u(r, i) = out.u(r, order[i]);
    for (std::size_t c = 0; c < m; ++c) sorted.v(c, i) = out.v(c, order[i]);
  }
  return sorted;
}

DenseMatrix reconstruct(const Svd& svd) {
  const std::size_t n = svd.u.rows();
  const std::size_t m = svd.v.rows();
  const std::size_t k = svd.sigma.size();
  DenseMatrix a(n, m);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      const double coef = svd.u(r, i) * svd.sigma[i];
      if (coef == 0.0) continue;
      auto out = a.row(r);
      for (std::size_t c = 0; c < m; ++c) {
        out[c] += coef * svd.v(c, i);
      }
    }
  }
  return a;
}

}  // namespace tmwia::linalg
