// Lawson-Hanson active-set NNLS.
#include "hslb/nlp/nnls.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hslb/common/error.hpp"
#include "hslb/linalg/least_squares.hpp"

namespace hslb::nlp {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// Per-thread scratch for solve_nnls.  The VarPro fitter issues thousands
/// of tiny NNLS solves per fit; reusing these buffers (vectors keep their
/// capacity) removes every steady-state heap allocation from the iteration
/// loop.  solve_nnls calls nothing that can re-enter it, so one workspace
/// per thread suffices.
struct NnlsWorkspace {
  Vector resid;  // A x - b
  Vector w;      // -A^T (A x - b)
  Vector z;      // passive-set least-squares point, 0 off the passive set
  Vector x_start;
  std::vector<bool> passive, passive_start;
  std::vector<std::size_t> cols;  // passive column indices, ascending
  Vector sub;                     // A restricted to `cols`, row-major
  Vector qtb, house, coef;        // Householder rhs, vector and solution
};

NnlsWorkspace& thread_workspace() {
  thread_local NnlsWorkspace ws;
  return ws;
}

/// ws.resid = A x - b, with the arithmetic of subtract(matvec(a, x), b).
void residual(const Matrix& a, std::span<const double> b,
              std::span<const double> x, NnlsWorkspace& ws) {
  linalg::matvec(a, x, ws.resid);
  for (std::size_t r = 0; r < b.size(); ++r) {
    ws.resid[r] -= b[r];
  }
}

/// ws.w = -A^T (A x - b), with the arithmetic of
/// scale(-1, matvec_t(a, subtract(matvec(a, x), b))).
void negative_gradient(const Matrix& a, std::span<const double> b,
                       std::span<const double> x, NnlsWorkspace& ws) {
  residual(a, b, x, ws);
  linalg::matvec_t(a, ws.resid, ws.w);
  for (double& wj : ws.w) {
    wj = -wj;
  }
}

/// ws.z = unconstrained least squares restricted to the passive column set.
void solve_on_passive(const Matrix& a, std::span<const double> b,
                      NnlsWorkspace& ws) {
  ws.cols.clear();
  for (std::size_t j = 0; j < ws.passive.size(); ++j) {
    if (ws.passive[j]) {
      ws.cols.push_back(j);
    }
  }
  std::fill(ws.z.begin(), ws.z.end(), 0.0);
  if (ws.cols.empty()) {
    return;
  }
  const std::size_t m = a.rows();
  const std::size_t k = ws.cols.size();
  ws.sub.resize(m * k);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      ws.sub[r * k + c] = a(r, ws.cols[c]);
    }
  }
  ws.qtb.assign(b.begin(), b.end());
  ws.house.resize(m);
  ws.coef.resize(k);
  (void)linalg::householder_solve(m, k, ws.sub, ws.qtb, ws.house, ws.coef);
  for (std::size_t c = 0; c < k; ++c) {
    ws.z[ws.cols[c]] = ws.coef[c];
  }
}

bool same_bits(std::span<const double> p, std::span<const double> q) {
  return std::memcmp(p.data(), q.data(), p.size() * sizeof(double)) == 0;
}

}  // namespace

NnlsResult solve_nnls(const Matrix& a, std::span<const double> b,
                      int max_iterations) {
  HSLB_REQUIRE(a.rows() == b.size(), "NNLS rhs size mismatch");
  const std::size_t n = a.cols();
  NnlsWorkspace& ws = thread_workspace();
  ws.resid.resize(a.rows());
  ws.w.resize(n);
  ws.z.resize(n);
  ws.passive.assign(n, false);

  NnlsResult out;
  out.x.assign(n, 0.0);
  out.converged = false;
  std::vector<bool>& passive = ws.passive;

  const double tol = 1e-10 * std::max(1.0, a.frobenius_norm());

  for (int iter = 0; iter < max_iterations; ++iter) {
    out.iterations = iter;
    // Gradient of 1/2||Ax-b||^2 is A^T (A x - b); w = -gradient.
    negative_gradient(a, b, out.x, ws);
    const Vector& w = ws.w;

    // Most-violating active column.
    std::ptrdiff_t best = -1;
    double best_w = tol;
    for (std::size_t j = 0; j < n; ++j) {
      if (!passive[j] && w[j] > best_w) {
        best_w = w[j];
        best = static_cast<std::ptrdiff_t>(j);
      }
    }
    if (best < 0) {
      out.converged = true;  // KKT satisfied
      break;
    }
    ws.x_start = out.x;
    ws.passive_start = passive;
    passive[static_cast<std::size_t>(best)] = true;

    // Inner loop: restore feasibility of the passive-set LS solution.
    for (;;) {
      solve_on_passive(a, b, ws);
      const Vector& z = ws.z;
      bool all_positive = true;
      for (std::size_t j = 0; j < n; ++j) {
        if (passive[j] && z[j] <= tol) {
          all_positive = false;
          break;
        }
      }
      if (all_positive) {
        out.x = z;
        break;
      }
      // Step from x toward z until the first passive coordinate hits zero.
      double alpha = 1.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (passive[j] && z[j] <= tol) {
          const double denom = out.x[j] - z[j];
          if (denom > 0.0) {
            alpha = std::min(alpha, out.x[j] / denom);
          }
        }
      }
      for (std::size_t j = 0; j < n; ++j) {
        out.x[j] += alpha * (z[j] - out.x[j]);
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (passive[j] && out.x[j] <= tol) {
          passive[j] = false;
          out.x[j] = 0.0;
        }
      }
    }

    // The next iteration is a function of x and the passive set alone.  If
    // this one left both as they were (the entering column dropped straight
    // back out), every later one would repeat it up to the cap: stop with
    // the answer the cap would return, KKT still unmet.
    if (passive == ws.passive_start && same_bits(out.x, ws.x_start)) {
      break;
    }
  }

  residual(a, b, out.x, ws);
  out.residual_norm = linalg::norm2(ws.resid);
  return out;
}

}  // namespace hslb::nlp
