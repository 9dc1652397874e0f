// Dense linear algebra primitives.
//
// The optimization problems in this library are tiny (tens of variables,
// tens of constraints), so everything is dense, row-major, and written for
// clarity and numerical robustness rather than BLAS-level throughput.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hslb::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized (or filled with `value`).
  Matrix(std::size_t rows, std::size_t cols, double value = 0.0);

  /// Build from nested initializer data; every row must have equal length.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// View of row r.
  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// All rows x cols entries, row-major.
  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// Transposed copy.
  Matrix transposed() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(double scale);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// --- Vector operations (free functions over std::vector<double>) ---------

/// Dot product; sizes must match.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double norm2(std::span<const double> v);

/// Infinity norm.
double norm_inf(std::span<const double> v);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// Elementwise a - b.
Vector subtract(std::span<const double> a, std::span<const double> b);

/// Elementwise a + b.
Vector add(std::span<const double> a, std::span<const double> b);

/// alpha * v.
Vector scale(double alpha, std::span<const double> v);

// --- Matrix operations ----------------------------------------------------

/// Matrix-vector product A*x.
Vector matvec(const Matrix& a, std::span<const double> x);

/// y = A*x into a caller-owned y of a.rows() entries (same arithmetic).
void matvec(const Matrix& a, std::span<const double> x, std::span<double> y);

/// Transposed matrix-vector product A^T*x.
Vector matvec_t(const Matrix& a, std::span<const double> x);

/// y = A^T*x into a caller-owned y of a.cols() entries (same arithmetic).
void matvec_t(const Matrix& a, std::span<const double> x, std::span<double> y);

/// Matrix-matrix product A*B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// A^T * A (Gram matrix), exploiting symmetry.
Matrix gram(const Matrix& a);

}  // namespace hslb::linalg
