// Unit tests for dense linear algebra: factorizations and least squares.
#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hslb/common/error.hpp"
#include "hslb/common/rng.hpp"
#include "hslb/linalg/factor.hpp"
#include "hslb/linalg/least_squares.hpp"
#include "hslb/linalg/matrix.hpp"
#include "hslb/linalg/sparse.hpp"

namespace hslb::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, common::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = rng.uniform(-1.0, 1.0);
    }
  }
  return m;
}

TEST(Matrix, IdentityAndTranspose) {
  const Matrix id = Matrix::identity(3);
  EXPECT_EQ(id(0, 0), 1.0);
  EXPECT_EQ(id(0, 1), 0.0);
  Matrix m = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t(0, 2), 5.0);
  EXPECT_EQ(t(1, 0), 2.0);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), InvalidArgument);
}

TEST(VectorOps, DotNormAxpy) {
  const Vector a{1, 2, 3};
  const Vector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2(Vector{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vector{-7, 2}), 7.0);
  Vector y{1, 1, 1};
  axpy(2.0, a, y);
  EXPECT_DOUBLE_EQ(y[2], 7.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  const Vector a{1, 2};
  const Vector b{1};
  EXPECT_THROW((void)dot(a, b), InvalidArgument);
  EXPECT_THROW((void)subtract(a, b), InvalidArgument);
}

TEST(MatrixOps, MatvecAndGram) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Vector x{1, 1};
  const Vector y = matvec(a, x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Matrix g = gram(a);  // A^T A
  EXPECT_DOUBLE_EQ(g(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 14.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 14.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 20.0);
}

TEST(MatrixOps, MatmulAgainstHand) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Lu, SolvesRandomSystems) {
  common::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 12));
    Matrix a = random_matrix(n, n, rng);
    for (std::size_t i = 0; i < n; ++i) {
      a(i, i) += 3.0;  // keep well-conditioned
    }
    Vector x_true(n);
    for (auto& v : x_true) {
      v = rng.uniform(-2.0, 2.0);
    }
    const Vector b = matvec(a, x_true);
    const auto lu = LuFactor::compute(a);
    ASSERT_TRUE(lu.has_value());
    const Vector x = lu->solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9) << "trial " << trial;
    }
  }
}

TEST(Lu, DetectsSingular) {
  const Matrix a = Matrix::from_rows({{1, 2}, {2, 4}});
  EXPECT_FALSE(LuFactor::compute(a).has_value());
}

TEST(Lu, DeterminantOfKnownMatrix) {
  const Matrix a = Matrix::from_rows({{2, 0}, {0, 3}});
  const auto lu = LuFactor::compute(a);
  ASSERT_TRUE(lu.has_value());
  EXPECT_NEAR(lu->determinant(), 6.0, 1e-12);
  // Permutation flips sign correctly.
  const Matrix b = Matrix::from_rows({{0, 1}, {1, 0}});
  EXPECT_NEAR(LuFactor::compute(b)->determinant(), -1.0, 1e-12);
}

TEST(Cholesky, SolvesSpdSystem) {
  common::Rng rng(7);
  const std::size_t n = 6;
  const Matrix m = random_matrix(n, n, rng);
  Matrix spd = gram(m);  // PSD
  for (std::size_t i = 0; i < n; ++i) {
    spd(i, i) += 1.0;  // PD
  }
  Vector x_true(n, 1.5);
  const Vector b = matvec(spd, x_true);
  const auto chol = CholeskyFactor::compute(spd);
  ASSERT_TRUE(chol.has_value());
  EXPECT_EQ(chol->shift(), 0.0);
  const Vector x = chol->solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], 1.5, 1e-8);
  }
}

TEST(Cholesky, RegularizesIndefinite) {
  Matrix indef = Matrix::from_rows({{1, 0}, {0, -1}});
  const auto chol = CholeskyFactor::compute(indef);
  ASSERT_TRUE(chol.has_value());
  EXPECT_GT(chol->shift(), 1.0 - 1e-9);  // must shift past the -1 eigenvalue
}

TEST(Cholesky, GivesUpBeyondMaxShift) {
  Matrix indef = Matrix::from_rows({{-1e12, 0}, {0, -1e12}});
  EXPECT_FALSE(CholeskyFactor::compute(indef, 0.0, 1e3).has_value());
}

TEST(LeastSquares, ExactOnSquareSystem) {
  const Matrix a = Matrix::from_rows({{2, 1}, {1, 3}});
  const Vector b{5, 10};
  const auto r = solve_least_squares(a, b);
  EXPECT_TRUE(r.full_rank);
  EXPECT_NEAR(r.x[0], 1.0, 1e-10);
  EXPECT_NEAR(r.x[1], 3.0, 1e-10);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-10);
}

TEST(LeastSquares, OverdeterminedMatchesNormalEquations) {
  common::Rng rng(3);
  const Matrix a = random_matrix(20, 4, rng);
  Vector b(20);
  for (auto& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto r = solve_least_squares(a, b);
  // At the LS optimum, A^T (A x - b) = 0.
  const Vector resid = subtract(matvec(a, r.x), b);
  const Vector grad = matvec_t(a, resid);
  EXPECT_LT(norm_inf(grad), 1e-10);
}

TEST(LeastSquares, FlagsRankDeficiency) {
  const Matrix a = Matrix::from_rows({{1, 1}, {1, 1}, {1, 1}});
  const Vector b{1, 2, 3};
  const auto r = solve_least_squares(a, b);
  EXPECT_FALSE(r.full_rank);
  // Residual must still be the LS-optimal one (projection onto span{(1,1)}).
  EXPECT_NEAR(r.residual_norm, std::sqrt(2.0), 1e-6);
}

TEST(LeastSquares, RequiresRowsGeCols) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}});
  const Vector b{1};
  EXPECT_THROW((void)solve_least_squares(a, b), InvalidArgument);
}

// --- Sparse LU + eta file (the revised-simplex basis machinery) ---------

SparseColumns from_dense(const Matrix& m) {
  SparseColumns out(static_cast<int>(m.rows()));
  for (std::size_t j = 0; j < m.cols(); ++j) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      out.add_entry(static_cast<int>(i), m(i, j));
    }
    out.finish_column();
  }
  return out;
}

Matrix random_sparse_square(std::size_t m, double density, common::Rng& rng) {
  Matrix out(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    out(i, i) = rng.uniform(0.5, 2.0) * (rng.uniform(0.0, 1.0) < 0.5 ? -1 : 1);
    for (std::size_t j = 0; j < m; ++j) {
      if (i != j && rng.uniform(0.0, 1.0) < density) {
        out(i, j) = rng.uniform(-1.0, 1.0);
      }
    }
  }
  return out;
}

TEST(SparseLu, SolvesMatchDenseLu) {
  common::Rng rng(91);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform(0.0, 24.0));
    const Matrix b = random_sparse_square(m, 0.2, rng);
    SparseLu lu;
    ASSERT_TRUE(lu.factorize(from_dense(b)));
    Vector rhs(m);
    for (double& v : rhs) {
      v = rng.uniform(-5.0, 5.0);
    }
    Vector x(m), y(m), work(m);
    lu.ftran(rhs, x, work);
    // Residual of B x = rhs.
    for (std::size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        acc += b(i, j) * x[j];
      }
      EXPECT_NEAR(acc, rhs[i], 1e-9) << "trial " << trial << " row " << i;
    }
    lu.btran(rhs, y, work);
    for (std::size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        acc += b(i, j) * y[i];
      }
      EXPECT_NEAR(acc, rhs[j], 1e-9) << "trial " << trial << " col " << j;
    }
  }
}

TEST(SparseLu, RejectsSingular) {
  Matrix b(3, 3);
  b(0, 0) = 1.0;
  b(1, 0) = 2.0;  // column 1 empty, column 2 a multiple of column 0
  b(0, 2) = 3.0;
  b(1, 2) = 6.0;
  SparseLu lu;
  EXPECT_FALSE(lu.factorize(from_dense(b)));
  EXPECT_FALSE(lu.valid());
}

TEST(SparseLu, DeterministicFactors) {
  common::Rng rng(17);
  const Matrix b = random_sparse_square(16, 0.3, rng);
  SparseLu first, second;
  ASSERT_TRUE(first.factorize(from_dense(b)));
  ASSERT_TRUE(second.factorize(from_dense(b)));
  Vector rhs(16, 1.0), x1(16), x2(16), work(16);
  first.ftran(rhs, x1, work);
  second.ftran(rhs, x2, work);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(x1[i], x2[i]);  // bit-identical, not merely close
  }
}

// Test-only reference: the Markowitz LU as first written, rescanning the
// whole active submatrix for counts, maxima and the pivot at every step.
// SparseLu must pick the same pivots and so produce bit-identical solves.
struct RescanningLu {
  int m = 0;
  std::vector<int> l_start, u_start, l_index, u_index;
  std::vector<double> l_value, u_value, u_diag;
  std::vector<int> row_at, col_at;
  int zero_updates = 0;  // column entries eliminated to exactly 0.0

  long factor_nnz() const {
    return static_cast<long>(l_index.size() + u_index.size()) + m;
  }

  bool factorize(const SparseColumns& b, const SparseLuOptions& opts) {
    m = b.rows();
    const auto sm = static_cast<std::size_t>(m);
    l_start.assign(1, 0);
    u_start.clear();
    l_index.clear();
    l_value.clear();
    u_index.clear();
    u_value.clear();
    u_diag.assign(sm, 0.0);
    row_at.assign(sm, 0);
    col_at.assign(sm, 0);
    std::vector<std::vector<std::pair<int, double>>> cols(sm);
    for (int j = 0; j < m; ++j) {
      const auto idx = b.col_index(j);
      const auto val = b.col_value(j);
      for (std::size_t t = 0; t < idx.size(); ++t) {
        cols[static_cast<std::size_t>(j)].emplace_back(idx[t], val[t]);
      }
    }
    std::vector<char> row_done(sm, 0), col_done(sm, 0);
    std::vector<int> row_count(sm, 0), col_count(sm, 0);
    std::vector<double> col_max(sm, 0.0);
    std::vector<int> pos_of_row(sm, -1), pos_of_col(sm, -1), mark(sm, -1);
    std::vector<int> u_step, u_col;
    std::vector<double> u_val;
    std::vector<std::pair<int, double>> scratch;

    for (int k = 0; k < m; ++k) {
      std::fill(row_count.begin(), row_count.end(), 0);
      for (std::size_t j = 0; j < sm; ++j) {
        if (col_done[j]) {
          continue;
        }
        int cc = 0;
        double cm = 0.0;
        for (const auto& [i, v] : cols[j]) {
          if (row_done[static_cast<std::size_t>(i)]) {
            continue;
          }
          ++cc;
          ++row_count[static_cast<std::size_t>(i)];
          cm = std::max(cm, std::fabs(v));
        }
        col_count[j] = cc;
        col_max[j] = cm;
      }

      int piv_row = -1;
      int piv_col = -1;
      long piv_score = 0;
      double piv_value = 0.0;
      for (int j = 0; j < m; ++j) {
        const auto sj = static_cast<std::size_t>(j);
        if (col_done[sj]) {
          continue;
        }
        const double thresh =
            std::max(opts.abs_pivot_tol, opts.rel_pivot_tol * col_max[sj]);
        for (const auto& [i, v] : cols[sj]) {
          if (row_done[static_cast<std::size_t>(i)] || std::fabs(v) < thresh) {
            continue;
          }
          const long score =
              static_cast<long>(row_count[static_cast<std::size_t>(i)] - 1) *
              static_cast<long>(col_count[sj] - 1);
          if (piv_row < 0 || score < piv_score ||
              (score == piv_score &&
               (j < piv_col || (j == piv_col && i < piv_row)))) {
            piv_row = i;
            piv_col = j;
            piv_score = score;
            piv_value = v;
          }
        }
      }
      if (piv_row < 0) {
        return false;
      }

      const auto sk = static_cast<std::size_t>(k);
      row_at[sk] = piv_row;
      col_at[sk] = piv_col;
      pos_of_row[static_cast<std::size_t>(piv_row)] = k;
      pos_of_col[static_cast<std::size_t>(piv_col)] = k;
      row_done[static_cast<std::size_t>(piv_row)] = 1;
      col_done[static_cast<std::size_t>(piv_col)] = 1;
      u_diag[sk] = piv_value;

      const std::size_t l_begin = l_index.size();
      for (const auto& [i, v] : cols[static_cast<std::size_t>(piv_col)]) {
        if (!row_done[static_cast<std::size_t>(i)]) {
          l_index.push_back(i);
          l_value.push_back(v / piv_value);
        }
      }
      l_start.push_back(static_cast<int>(l_index.size()));

      for (int j = 0; j < m; ++j) {
        const auto sj = static_cast<std::size_t>(j);
        if (col_done[sj]) {
          continue;
        }
        auto& cj = cols[sj];
        double u = 0.0;
        for (const auto& [i, v] : cj) {
          if (i == piv_row) {
            u = v;
            break;
          }
        }
        if (u == 0.0) {
          continue;
        }
        u_step.push_back(k);
        u_col.push_back(j);
        u_val.push_back(u);
        scratch.clear();
        for (const auto& [i, v] : cj) {
          if (row_done[static_cast<std::size_t>(i)]) {
            continue;
          }
          mark[static_cast<std::size_t>(i)] = static_cast<int>(scratch.size());
          scratch.emplace_back(i, v);
        }
        for (std::size_t t = l_begin; t < l_index.size(); ++t) {
          const int i = l_index[t];
          const double contrib = l_value[t] * u;
          const int at = mark[static_cast<std::size_t>(i)];
          if (at >= 0) {
            double& v = scratch[static_cast<std::size_t>(at)].second;
            v -= contrib;
            zero_updates += v == 0.0 ? 1 : 0;
          } else {
            scratch.emplace_back(i, -contrib);
          }
        }
        for (const auto& entry : scratch) {
          mark[static_cast<std::size_t>(entry.first)] = -1;
        }
        cj.swap(scratch);
      }
    }

    for (int& i : l_index) {
      i = pos_of_row[static_cast<std::size_t>(i)];
    }
    u_start.assign(sm + 1, 0);
    for (const int j : u_col) {
      ++u_start[static_cast<std::size_t>(pos_of_col[static_cast<std::size_t>(j)]) + 1];
    }
    for (std::size_t k = 0; k < sm; ++k) {
      u_start[k + 1] += u_start[k];
    }
    std::vector<int> fill_at(u_start.begin(), u_start.end() - 1);
    u_index.resize(u_step.size());
    u_value.resize(u_step.size());
    for (std::size_t t = 0; t < u_step.size(); ++t) {
      const int c = pos_of_col[static_cast<std::size_t>(u_col[t])];
      const int at = fill_at[static_cast<std::size_t>(c)]++;
      u_index[static_cast<std::size_t>(at)] = u_step[t];
      u_value[static_cast<std::size_t>(at)] = u_val[t];
    }
    return true;
  }

  void ftran(const Vector& rhs, Vector& out) const {
    const auto sm = static_cast<std::size_t>(m);
    Vector work(sm);
    for (std::size_t k = 0; k < sm; ++k) {
      work[k] = rhs[static_cast<std::size_t>(row_at[k])];
    }
    for (std::size_t k = 0; k < sm; ++k) {
      const double z = work[k];
      if (z != 0.0) {
        for (int t = l_start[k]; t < l_start[k + 1]; ++t) {
          work[static_cast<std::size_t>(l_index[static_cast<std::size_t>(t)])] -=
              l_value[static_cast<std::size_t>(t)] * z;
        }
      }
    }
    for (std::size_t k = sm; k-- > 0;) {
      const double z = work[k] / u_diag[k];
      work[k] = z;
      if (z != 0.0) {
        for (int t = u_start[k]; t < u_start[k + 1]; ++t) {
          work[static_cast<std::size_t>(u_index[static_cast<std::size_t>(t)])] -=
              u_value[static_cast<std::size_t>(t)] * z;
        }
      }
    }
    for (std::size_t k = 0; k < sm; ++k) {
      out[static_cast<std::size_t>(col_at[k])] = work[k];
    }
  }

  void btran(const Vector& rhs, Vector& out) const {
    const auto sm = static_cast<std::size_t>(m);
    Vector work(sm);
    for (std::size_t k = 0; k < sm; ++k) {
      work[k] = rhs[static_cast<std::size_t>(col_at[k])];
    }
    for (std::size_t k = 0; k < sm; ++k) {
      double s = work[k];
      for (int t = u_start[k]; t < u_start[k + 1]; ++t) {
        s -= u_value[static_cast<std::size_t>(t)] *
             work[static_cast<std::size_t>(u_index[static_cast<std::size_t>(t)])];
      }
      work[k] = s / u_diag[k];
    }
    for (std::size_t k = sm; k-- > 0;) {
      double s = work[k];
      for (int t = l_start[k]; t < l_start[k + 1]; ++t) {
        s -= l_value[static_cast<std::size_t>(t)] *
             work[static_cast<std::size_t>(l_index[static_cast<std::size_t>(t)])];
      }
      work[k] = s;
    }
    for (std::size_t k = 0; k < sm; ++k) {
      out[static_cast<std::size_t>(row_at[k])] = work[k];
    }
  }
};

// A simplex-shaped basis: a `singleton_frac` share of +/-1 slack or
// artificial columns on distinct rows, the rest structural columns with
// magnitudes spanning 10^-decades .. 10^decades.  Each structural column
// owns one of the rows no singleton covers, so the pattern has a
// transversal, plus one or two entries at random rows; columns are shuffled
// into random basis positions.
Matrix simplex_basis(std::size_t m, double singleton_frac, double decades,
                     common::Rng& rng) {
  std::vector<std::size_t> rows(m);
  for (std::size_t i = 0; i < m; ++i) {
    rows[i] = i;
  }
  std::shuffle(rows.begin(), rows.end(), rng);
  std::vector<std::size_t> cols = rows;
  std::shuffle(cols.begin(), cols.end(), rng);
  const auto singletons =
      static_cast<std::size_t>(singleton_frac * static_cast<double>(m));
  const auto magnitude = [&] {
    const double v = std::pow(10.0, rng.uniform(-decades, decades));
    return rng.uniform() < 0.5 ? -v : v;
  };
  Matrix out(m, m);
  for (std::size_t t = 0; t < m; ++t) {
    const std::size_t j = cols[t];
    if (t < singletons) {
      out(rows[t], j) = rng.uniform() < 0.5 ? -1.0 : 1.0;
      continue;
    }
    out(rows[t], j) = magnitude();
    const auto extra = rng.uniform_int(1, 2);
    for (std::int64_t e = 0; e < extra; ++e) {
      out(static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(m) - 1)),
          j) = magnitude();
    }
  }
  return out;
}

// Factor `b` both ways; verdicts, factor sizes and the solves of a few
// right-hand sides must agree bit for bit.  Returns the reference's verdict.
bool expect_matches_reference(const Matrix& b, const SparseLuOptions& opts,
                              SparseLu& lu, common::Rng& rng,
                              int* zero_updates = nullptr) {
  const std::size_t m = b.rows();
  const SparseColumns cols = from_dense(b);
  RescanningLu ref;
  const bool ok = ref.factorize(cols, opts);
  EXPECT_EQ(lu.factorize(cols, opts), ok);
  EXPECT_EQ(lu.valid(), ok);
  EXPECT_EQ(lu.factor_nnz(), ref.factor_nnz());
  if (zero_updates != nullptr) {
    *zero_updates += ref.zero_updates;
  }
  if (!ok) {
    return false;
  }
  Vector work(m), got(m), want(m);
  for (int trial = 0; trial < 3; ++trial) {
    Vector rhs(m, 0.0);
    if (trial == 0) {
      rhs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1))] = 1.0;
    } else {
      for (double& v : rhs) {
        v = rng.uniform(-3.0, 3.0);
      }
    }
    lu.ftran(rhs, got, work);
    ref.ftran(rhs, want);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(got[i], want[i]) << "ftran " << trial << " entry " << i;
    }
    lu.btran(rhs, got, work);
    ref.btran(rhs, want);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(got[i], want[i]) << "btran " << trial << " entry " << i;
    }
  }
  return true;
}

TEST(SparseLu, MatchesRescanningReference) {
  common::Rng rng(2014);
  const SparseLuOptions simplex_opts{0.1, 1e-14};  // what the LP engine uses
  SparseLu lu;  // reused throughout, as the LP engine reuses its factor
  int factored = 0;
  int singular = 0;

  // The random_sparse_square family.
  for (int trial = 0; trial < 40; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const Matrix b = random_sparse_square(m, rng.uniform(0.05, 0.4), rng);
    factored += expect_matches_reference(b, SparseLuOptions{}, lu, rng) ? 1 : 0;
  }

  // Simplex-shaped bases, then the same shape with structural magnitudes
  // from 1e-6 to 1e6, where some row singletons fail the 0.1 threshold.
  int failing_row_singletons = 0;
  for (const double decades : {0.5, 6.0}) {
    for (int trial = 0; trial < 24; ++trial) {
      const auto m = static_cast<std::size_t>(rng.uniform_int(20, 120));
      const Matrix b = simplex_basis(m, rng.uniform(0.7, 0.9), decades, rng);
      for (std::size_t i = 0; i < m; ++i) {
        std::size_t count = 0;
        std::size_t col = 0;
        for (std::size_t j = 0; j < m; ++j) {
          if (b(i, j) != 0.0) {
            ++count;
            col = j;
          }
        }
        double col_max = 0.0;
        for (std::size_t r = 0; r < m; ++r) {
          col_max = std::max(col_max, std::fabs(b(r, col)));
        }
        failing_row_singletons +=
            count == 1 && std::fabs(b(i, col)) < 0.1 * col_max ? 1 : 0;
      }
      factored += expect_matches_reference(b, simplex_opts, lu, rng) ? 1 : 0;
    }
  }
  EXPECT_GT(failing_row_singletons, 0);

  // Small-integer matrices where some rows copy another row everywhere but
  // on their own diagonal: eliminating one from its copy cancels to exact
  // zeros, which stay counted as entries and spread as exact-zero fill.
  int zero_updates = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(4, 30));
    Matrix b = random_sparse_square(m, rng.uniform(0.1, 0.3), rng);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        if (b(i, j) != 0.0) {
          b(i, j) = static_cast<double>(rng.uniform_int(1, 2)) *
                    (b(i, j) < 0.0 ? -1.0 : 1.0);
        }
      }
    }
    for (int copy = 0; copy < 3; ++copy) {
      const auto from = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
      const auto to = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
      for (std::size_t j = 0; j < m; ++j) {
        if (j != to) {
          b(to, j) = b(from, j);
        }
      }
    }
    const bool ok = expect_matches_reference(b, SparseLuOptions{}, lu, rng,
                                             &zero_updates);
    factored += ok ? 1 : 0;
    singular += ok ? 0 : 1;
  }
  EXPECT_GT(zero_updates, 0);

  // Rank-deficient bases: an empty row, a repeated column, a column that
  // sums two others.
  for (int trial = 0; trial < 18; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(3, 60));
    Matrix b = simplex_basis(m, rng.uniform(0.7, 0.9), 1.0, rng);
    const auto pick = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
    };
    const std::size_t a = pick();
    std::size_t c = pick();
    while (c == a) {
      c = pick();
    }
    for (std::size_t i = 0; i < m; ++i) {
      switch (trial % 3) {
        case 0:
          b(a, i) = 0.0;
          break;
        case 1:
          b(i, c) = b(i, a);
          break;
        default:
          b(i, c) = b(i, a) + b(i, (a + 1) % m == c ? (c + 1) % m : (a + 1) % m);
          break;
      }
    }
    const bool ok = expect_matches_reference(b, simplex_opts, lu, rng);
    EXPECT_FALSE(ok) << "trial " << trial;
    singular += ok ? 0 : 1;
  }

  EXPECT_GT(factored, 100);
  EXPECT_GT(singular, 18);
}

TEST(EtaFile, UpdatedSolvesMatchFreshFactorization) {
  // Replace basis columns one at a time; after each product-form update the
  // (base LU + eta file) solves must agree with a fresh LU of the explicitly
  // updated matrix.
  common::Rng rng(7);
  const std::size_t m = 12;
  Matrix b = random_sparse_square(m, 0.25, rng);
  SparseLu base;
  ASSERT_TRUE(base.factorize(from_dense(b)));
  EtaFile etas;
  Vector w(m), work(m);
  for (int update = 0; update < 8; ++update) {
    const std::size_t r = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
    Vector col(m, 0.0);
    col[r] = rng.uniform(0.5, 1.5);  // keep the replacement well-conditioned
    for (std::size_t i = 0; i < m; ++i) {
      if (rng.uniform(0.0, 1.0) < 0.2) {
        col[i] = rng.uniform(-1.0, 1.0);
      }
    }
    // FTRAN image of the new column through the current factor.
    base.ftran(col, w, work);
    etas.apply_ftran(w);
    if (!etas.append(w, static_cast<int>(r), 1e-8)) {
      continue;  // too ill-conditioned to update; a real engine refactorizes
    }
    for (std::size_t i = 0; i < m; ++i) {
      b(i, r) = col[i];
    }
    SparseLu fresh;
    ASSERT_TRUE(fresh.factorize(from_dense(b)));
    Vector rhs(m);
    for (double& v : rhs) {
      v = rng.uniform(-2.0, 2.0);
    }
    Vector via_eta(m), via_fresh(m);
    base.ftran(rhs, via_eta, work);
    etas.apply_ftran(via_eta);
    fresh.ftran(rhs, via_fresh, work);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(via_eta[i], via_fresh[i], 1e-8) << "update " << update;
    }
    Vector bt_eta = rhs;
    etas.apply_btran(bt_eta);
    Vector y_eta(m);
    base.btran(bt_eta, y_eta, work);
    Vector y_fresh(m);
    fresh.btran(rhs, y_fresh, work);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(y_eta[i], y_fresh[i], 1e-8) << "update " << update;
    }
  }
  EXPECT_GT(etas.count(), 0);
}

TEST(EtaFile, RefusesUnstablePivot) {
  EtaFile etas;
  Vector w{1.0, 1e-12, 3.0};  // pivot entry far below the stability floor
  EXPECT_FALSE(etas.append(w, 1, 1e-8));
  EXPECT_EQ(etas.count(), 0);
}

}  // namespace
}  // namespace hslb::linalg
