#include "hslb/lp/problem.hpp"

#include "hslb/common/error.hpp"

namespace hslb::lp {

std::size_t LpProblem::add_variable(double lower, double upper, double cost) {
  HSLB_REQUIRE(lower <= upper, "variable bounds crossed");
  HSLB_REQUIRE(num_rows() == 0, "add all variables before adding rows");
  cost_.push_back(cost);
  col_lower_.push_back(lower);
  col_upper_.push_back(upper);
  return cost_.size() - 1;
}

std::size_t LpProblem::add_row(std::span<const Term> terms, double lower,
                               double upper) {
  for (const Term& t : terms) {
    HSLB_REQUIRE(t.first < num_vars(), "row term column out of range");
  }
  HSLB_REQUIRE(lower <= upper, "row bounds crossed");

  // Append, then insertion-sort the new row by column.  The sort is stable,
  // so repeats of a column stay in term order for the summation below.
  const auto first = static_cast<std::ptrdiff_t>(terms_.size());
  terms_.insert(terms_.end(), terms.begin(), terms.end());
  const auto begin = terms_.begin() + first;
  for (auto it = begin; it != terms_.end(); ++it) {
    const Term t = *it;
    auto hole = it;
    for (; hole != begin && (hole - 1)->first > t.first; --hole) {
      *hole = *(hole - 1);
    }
    *hole = t;
  }

  // Sum each column's repeats from +0.0 and keep the nonzero sums.
  auto out = begin;
  for (auto it = begin; it != terms_.end();) {
    const std::size_t col = it->first;
    double sum = 0.0;
    for (; it != terms_.end() && it->first == col; ++it) {
      sum += it->second;
    }
    if (sum != 0.0) {
      *out++ = Term{col, sum};
    }
  }
  terms_.erase(out, terms_.end());

  row_start_.push_back(terms_.size());
  row_lower_.push_back(lower);
  row_upper_.push_back(upper);
  return num_rows() - 1;
}

void LpProblem::set_cost(std::size_t var, double cost) {
  HSLB_REQUIRE(var < num_vars(), "set_cost: variable index out of range");
  cost_[var] = cost;
}

void LpProblem::set_col_bounds(std::size_t var, double lower, double upper) {
  HSLB_REQUIRE(var < num_vars(), "set_col_bounds: index out of range");
  HSLB_REQUIRE(lower <= upper, "set_col_bounds: bounds crossed");
  col_lower_[var] = lower;
  col_upper_[var] = upper;
}

}  // namespace hslb::lp
