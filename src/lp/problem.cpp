#include "hslb/lp/problem.hpp"

#include "hslb/common/error.hpp"

namespace hslb::lp {

std::size_t LpProblem::add_variable(double lower, double upper, double cost,
                                    std::string name) {
  HSLB_REQUIRE(lower <= upper, "variable bounds crossed");
  HSLB_REQUIRE(rows_.empty(), "add all variables before adding rows");
  cost_.push_back(cost);
  col_lower_.push_back(lower);
  col_upper_.push_back(upper);
  names_.push_back(
      name.empty() ? std::string("x").append(std::to_string(cost_.size() - 1))
                   : std::move(name));
  return cost_.size() - 1;
}

std::size_t LpProblem::add_row(linalg::Vector coeffs, double lower,
                               double upper, std::string name) {
  HSLB_REQUIRE(coeffs.size() == num_vars(),
               "row coefficient count must equal variable count");
  HSLB_REQUIRE(lower <= upper, "row bounds crossed");
  rows_.push_back(Row{std::move(coeffs), lower, upper, std::move(name)});
  return rows_.size() - 1;
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
