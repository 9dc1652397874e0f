#include "hslb/linalg/factor.hpp"

#include <cmath>
#include <numeric>

#include "hslb/common/error.hpp"

namespace hslb::linalg {

std::optional<LuFactor> LuFactor::compute(const Matrix& a) {
  HSLB_REQUIRE(a.rows() == a.cols(), "LU needs a square matrix");
  const std::size_t n = a.rows();
  LuFactor f;
  f.lu_ = a;
  f.perm_.resize(n);
  std::iota(f.perm_.begin(), f.perm_.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    std::size_t pivot = k;
    double best = std::fabs(f.lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(f.lu_(r, k));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-14) {
      return std::nullopt;  // numerically singular
    }
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(f.lu_(k, c), f.lu_(pivot, c));
      }
      std::swap(f.perm_[k], f.perm_[pivot]);
      f.perm_sign_ = -f.perm_sign_;
    }
    const double inv_pivot = 1.0 / f.lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mult = f.lu_(r, k) * inv_pivot;
      f.lu_(r, k) = mult;
      if (mult == 0.0) {
        continue;
      }
      for (std::size_t c = k + 1; c < n; ++c) {
        f.lu_(r, c) -= mult * f.lu_(k, c);
      }
    }
  }
  return f;
}

Vector LuFactor::solve(std::span<const double> b) const {
  const std::size_t n = dim();
  HSLB_REQUIRE(b.size() == n, "LU solve rhs size mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = b[perm_[i]];
  }
  // Forward substitution with unit-lower L.
  for (std::size_t i = 1; i < n; ++i) {
    double sum = x[i];
    for (std::size_t j = 0; j < i; ++j) {
      sum -= lu_(i, j) * x[j];
    }
    x[i] = sum;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      sum -= lu_(ii, j) * x[j];
    }
    x[ii] = sum / lu_(ii, ii);
  }
  return x;
}

double LuFactor::determinant() const {
  double det = perm_sign_;
  for (std::size_t i = 0; i < dim(); ++i) {
    det *= lu_(i, i);
  }
  return det;
}

std::optional<CholeskyFactor> CholeskyFactor::compute(const Matrix& a,
                                                      double initial_shift,
                                                      double max_shift) {
  HSLB_REQUIRE(a.rows() == a.cols(), "Cholesky needs a square matrix");
  const std::size_t n = a.rows();

  double shift = initial_shift;
  for (;;) {
    CholeskyFactor f;
    f.l_ = Matrix(n, n);
    f.shift_ = shift;
    bool ok = true;
    for (std::size_t j = 0; j < n && ok; ++j) {
      double diag = a(j, j) + shift;
      for (std::size_t k = 0; k < j; ++k) {
        diag -= f.l_(j, k) * f.l_(j, k);
      }
      if (diag <= 1e-14) {
        ok = false;
        break;
      }
      f.l_(j, j) = std::sqrt(diag);
      for (std::size_t i = j + 1; i < n; ++i) {
        double sum = a(i, j);
        for (std::size_t k = 0; k < j; ++k) {
          sum -= f.l_(i, k) * f.l_(j, k);
        }
        f.l_(i, j) = sum / f.l_(j, j);
      }
    }
    if (ok) {
      return f;
    }
    // Escalate the regularization geometrically from a floor scaled to A.
    const double floor = 1e-10 * std::max(1.0, a.frobenius_norm());
    shift = shift == 0.0 ? floor : shift * 10.0;
    if (shift > max_shift) {
      return std::nullopt;
    }
  }
}

Vector CholeskyFactor::solve(std::span<const double> b) const {
  const std::size_t n = dim();
  HSLB_REQUIRE(b.size() == n, "Cholesky solve rhs size mismatch");
  Vector x(b.begin(), b.end());
  // L y = b
  for (std::size_t i = 0; i < n; ++i) {
    double sum = x[i];
    for (std::size_t j = 0; j < i; ++j) {
      sum -= l_(i, j) * x[j];
    }
    x[i] = sum / l_(i, i);
  }
  // L^T x = y
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      sum -= l_(j, ii) * x[j];
    }
    x[ii] = sum / l_(ii, ii);
  }
  return x;
}

}  // namespace hslb::linalg
