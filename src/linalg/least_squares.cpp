#include "hslb/linalg/least_squares.hpp"

#include <cmath>

#include "hslb/common/error.hpp"

namespace hslb::linalg {

bool householder_solve(std::size_t m, std::size_t n, std::span<double> a,
                       std::span<double> qtb, std::span<double> v,
                       std::span<double> x) {
  HSLB_REQUIRE(m >= n, "least squares needs rows >= cols");
  HSLB_REQUIRE(a.size() >= m * n && qtb.size() >= m && v.size() >= m &&
                   x.size() >= n,
               "least squares buffer too small");
  const auto r = [&](std::size_t i, std::size_t j) -> double& {
    return a[i * n + j];
  };

  bool full_rank = true;
  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k, rows k..m-1.
    double alpha = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      alpha += r(i, k) * r(i, k);
    }
    alpha = std::sqrt(alpha);
    if (alpha < 1e-300) {
      full_rank = false;
      r(k, k) = 1e-150;  // regularize a dead column; its solution entry ~ 0
      continue;
    }
    if (r(k, k) > 0.0) {
      alpha = -alpha;
    }
    const std::span<double> vk = v.first(m - k);
    vk[0] = r(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) {
      vk[i - k] = r(i, k);
    }
    const double vnorm2 = dot(vk, vk);
    if (vnorm2 < 1e-300) {
      r(k, k) = alpha;
      continue;
    }
    // Apply H = I - 2 v v^T / (v^T v) to trailing columns and to qtb.
    for (std::size_t c = k; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i) {
        proj += vk[i - k] * r(i, c);
      }
      proj = 2.0 * proj / vnorm2;
      for (std::size_t i = k; i < m; ++i) {
        r(i, c) -= proj * vk[i - k];
      }
    }
    double proj = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      proj += vk[i - k] * qtb[i];
    }
    proj = 2.0 * proj / vnorm2;
    for (std::size_t i = k; i < m; ++i) {
      qtb[i] -= proj * vk[i - k];
    }
  }

  // Back substitution on the n x n upper triangle.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = qtb[ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      sum -= r(ii, j) * x[j];
    }
    const double diag = r(ii, ii);
    if (std::fabs(diag) < 1e-140) {
      x[ii] = 0.0;
      full_rank = false;
    } else {
      x[ii] = sum / diag;
    }
  }
  return full_rank;
}

LeastSquaresResult solve_least_squares(const Matrix& a,
                                       std::span<const double> b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  HSLB_REQUIRE(b.size() == m, "least squares rhs size mismatch");

  Matrix r = a;                    // becomes R in the upper triangle
  Vector qtb(b.begin(), b.end());  // becomes Q^T b
  Vector v(m);

  LeastSquaresResult out;
  out.x.assign(n, 0.0);
  out.full_rank = householder_solve(m, n, r.data(), qtb, v, out.x);

  const Vector resid = subtract(matvec(a, out.x), b);
  out.residual_norm = norm2(resid);
  return out;
}

}  // namespace hslb::linalg
