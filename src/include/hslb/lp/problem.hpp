// Linear program container.
//
// The LP layer plays the role of CLP inside MINOTAUR: it solves the MILP /
// LP relaxations produced by the outer-approximation branch-and-bound.
// Constraint rows are stored once, compressed by row (CSR): each row keeps
// only its nonzero (column, coefficient) terms, in ascending column order,
// next to its bounds.  The node LPs of the branch-and-bound are nearly
// empty -- the Table I models with binary set expansion average about 83
// rows x 946 columns with 2,000 nonzeros (2.6%), the pipeline's models 39
// rows x 1,240-1,300 columns with 2,500-2,700 -- so a dense row would cost
// a write per column to build and the simplex a read per column to find its
// nonzeros again.  Variables and rows carry no names.
#pragma once

#include <initializer_list>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "hslb/linalg/matrix.hpp"

namespace hslb::lp {

/// +infinity sentinel for unbounded row/column limits.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One (column, coefficient) entry of a constraint row.
using Term = std::pair<std::size_t, double>;

/// A stored constraint row: lower <= sum of coeff * x[column] <= upper.
/// `terms` lists the nonzero coefficients in strictly ascending column
/// order.  The view stays valid until the next add_row().
struct Row {
  std::span<const Term> terms;
  double lower = -kInf;
  double upper = kInf;
};

/// Minimization LP:  min c.x + offset  s.t.  row bounds and column bounds.
class LpProblem {
 public:
  LpProblem() = default;

  /// Add a variable; returns its column index.
  std::size_t add_variable(double lower, double upper, double cost);

  /// Add the row lower <= sum(terms) <= upper (add all variables first).
  /// Terms may come in any order and may repeat a column: repeats are
  /// summed in term order starting from +0.0, and a column whose sum is
  /// +-0.0 is not stored.  Sorting is an in-place insertion sort, so a row
  /// costs O(terms + inversions) and no allocation beyond the stored
  /// terms.  `terms` must not point into this problem's own rows.  Returns
  /// the row index.
  std::size_t add_row(std::span<const Term> terms, double lower, double upper);
  std::size_t add_row(std::initializer_list<Term> terms, double lower,
                      double upper) {
    return add_row(std::span<const Term>(terms.begin(), terms.size()), lower,
                   upper);
  }

  std::size_t num_vars() const { return cost_.size(); }
  std::size_t num_rows() const { return row_lower_.size(); }

  const linalg::Vector& cost() const { return cost_; }
  double objective_offset() const { return offset_; }
  void set_objective_offset(double offset) { offset_ = offset; }
  void set_cost(std::size_t var, double cost);

  const linalg::Vector& col_lower() const { return col_lower_; }
  const linalg::Vector& col_upper() const { return col_upper_; }
  void set_col_bounds(std::size_t var, double lower, double upper);

  /// Row i as stored.
  Row row(std::size_t i) const {
    return {std::span<const Term>(terms_).subspan(
                row_start_[i], row_start_[i + 1] - row_start_[i]),
            row_lower_[i], row_upper_[i]};
  }

  /// The CSR arrays: row i's terms are terms()[row_start()[i] ..
  /// row_start()[i + 1]).
  std::span<const std::size_t> row_start() const { return row_start_; }
  std::span<const Term> terms() const { return terms_; }

 private:
  linalg::Vector cost_;
  linalg::Vector col_lower_;
  linalg::Vector col_upper_;
  std::vector<std::size_t> row_start_{0};
  std::vector<Term> terms_;
  linalg::Vector row_lower_;
  linalg::Vector row_upper_;
  double offset_ = 0.0;
};

}  // namespace hslb::lp
