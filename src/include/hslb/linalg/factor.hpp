// Dense factorizations: LU with partial pivoting and a modified-Cholesky
// (LDL^T with diagonal regularization) used by the Newton steps of the
// barrier NLP solver.
#pragma once

#include <optional>

#include "hslb/linalg/matrix.hpp"

namespace hslb::linalg {

/// LU factorization with partial pivoting of a square matrix.
class LuFactor {
 public:
  /// Factor `a`; returns std::nullopt if the matrix is numerically singular.
  static std::optional<LuFactor> compute(const Matrix& a);

  /// Solve A x = b.
  Vector solve(std::span<const double> b) const;

  /// Determinant of A (product of pivots with sign).
  double determinant() const;

  std::size_t dim() const { return lu_.rows(); }

 private:
  LuFactor() = default;
  Matrix lu_;                  // combined L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation
  int perm_sign_ = 1;
};

/// Modified Cholesky: factors A + tau*I = L L^T for the smallest tau >= 0
/// (from a geometric schedule) that makes the shifted matrix positive
/// definite.  Returns the shift actually applied; Newton methods use it to
/// detect indefiniteness.
class CholeskyFactor {
 public:
  /// Factor the symmetric matrix `a` (only the lower triangle is read).
  /// `max_shift` bounds the regularization; beyond it, returns nullopt.
  static std::optional<CholeskyFactor> compute(const Matrix& a,
                                               double initial_shift = 0.0,
                                               double max_shift = 1e10);

  /// Solve (A + tau I) x = b via forward/back substitution.
  Vector solve(std::span<const double> b) const;

  /// The diagonal shift tau that was applied (0 if A was already SPD).
  double shift() const { return shift_; }

  std::size_t dim() const { return l_.rows(); }

 private:
  CholeskyFactor() = default;
  Matrix l_;  // lower-triangular factor
  double shift_ = 0.0;
};

}  // namespace hslb::linalg
