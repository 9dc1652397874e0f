#include "hslb/linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "hslb/common/error.hpp"

namespace hslb::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  HSLB_REQUIRE(!rows.empty(), "from_rows needs at least one row");
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    HSLB_REQUIRE(rows[r].size() == m.cols_, "ragged rows in from_rows");
    for (std::size_t c = 0; c < m.cols_; ++c) {
      m(r, c) = rows[r][c];
    }
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
  }
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

double Matrix::frobenius_norm() const {
  double sum = 0.0;
  for (double v : data_) {
    sum += v * v;
  }
  return std::sqrt(sum);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  HSLB_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "matrix += shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator*=(double scalefactor) {
  for (double& v : data_) {
    v *= scalefactor;
  }
  return *this;
}

double dot(std::span<const double> a, std::span<const double> b) {
  HSLB_REQUIRE(a.size() == b.size(), "dot size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

double norm2(std::span<const double> v) {
  return std::sqrt(dot(v, v));
}

double norm_inf(std::span<const double> v) {
  double m = 0.0;
  for (double x : v) {
    m = std::max(m, std::fabs(x));
  }
  return m;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  HSLB_REQUIRE(x.size() == y.size(), "axpy size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

Vector subtract(std::span<const double> a, std::span<const double> b) {
  HSLB_REQUIRE(a.size() == b.size(), "subtract size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

Vector add(std::span<const double> a, std::span<const double> b) {
  HSLB_REQUIRE(a.size() == b.size(), "add size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] + b[i];
  }
  return out;
}

Vector scale(double alpha, std::span<const double> v) {
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = alpha * v[i];
  }
  return out;
}

void matvec(const Matrix& a, std::span<const double> x, std::span<double> y) {
  HSLB_REQUIRE(a.cols() == x.size(), "matvec size mismatch");
  HSLB_REQUIRE(a.rows() == y.size(), "matvec output size mismatch");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    y[r] = dot(a.row(r), x);
  }
}

Vector matvec(const Matrix& a, std::span<const double> x) {
  Vector y(a.rows(), 0.0);
  matvec(a, x, y);
  return y;
}

void matvec_t(const Matrix& a, std::span<const double> x,
              std::span<double> y) {
  HSLB_REQUIRE(a.rows() == x.size(), "matvec_t size mismatch");
  HSLB_REQUIRE(a.cols() == y.size(), "matvec_t output size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    axpy(x[r], a.row(r), y);
  }
}

Vector matvec_t(const Matrix& a, std::span<const double> x) {
  Vector y(a.cols(), 0.0);
  matvec_t(a, x, y);
  return y;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  HSLB_REQUIRE(a.cols() == b.rows(), "matmul size mismatch");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) {
        continue;
      }
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

Matrix gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      if (row[i] == 0.0) {
        continue;
      }
      for (std::size_t j = i; j < a.cols(); ++j) {
        g(i, j) += row[i] * row[j];
      }
    }
  }
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      g(i, j) = g(j, i);
    }
  }
  return g;
}

}  // namespace hslb::linalg
