#include "hslb/minlp/relaxation.hpp"

#include <cmath>

#include "hslb/common/error.hpp"
#include "hslb/lp/simplex.hpp"

namespace hslb::minlp {
namespace {

bool same_point(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

bool CutPool::has_link_tangent(std::size_t link_index, double point) const {
  for (const CutRow& cut : rows_) {
    if (cut.link == static_cast<int>(link_index) && same_point(cut.point, point)) {
      return true;
    }
  }
  return false;
}

bool CutPool::add_link_tangent(const Model& model,
                               const std::vector<Curvature>& curvature,
                               std::size_t link_index, double point,
                               std::uint64_t id) {
  HSLB_REQUIRE(link_index < model.links().size(), "unknown link index");
  if (has_link_tangent(link_index, point)) {
    return false;  // already have (numerically) this tangent
  }
  const UnivariateLink& link = model.links()[link_index];
  const double f = link.fn.value(point);
  const double df = link.fn.deriv(point);
  if (!std::isfinite(f) || !std::isfinite(df)) {
    return false;
  }
  // Tangent line: t {>=,<=} f + df * (n - point)
  //   =>  t - df * n  {>=,<=}  f - df * point.
  CutRow cut;
  cut.terms = {{link.t_var, 1.0}, {link.n_var, -df}};
  const double rhs = f - df * point;
  if (curvature[link_index] == Curvature::kConvex) {
    cut.lower = rhs;
  } else {
    cut.upper = rhs;
  }
  cut.id = id;
  cut.link = static_cast<int>(link_index);
  cut.point = point;
  rows_.push_back(std::move(cut));
  return true;
}

void CutPool::add_nonlinear_cut(const Model& model, std::size_t nc_index,
                                std::span<const double> x, std::uint64_t id) {
  HSLB_REQUIRE(nc_index < model.nonlinear_constraints().size(),
               "unknown nonlinear constraint index");
  const NonlinearConstraint& nc = model.nonlinear_constraints()[nc_index];
  const auto vg = expr::eval_grad(nc.g, x, model.num_vars());
  // g(x0) + grad . (x - x0) <= ub  =>  grad . x <= ub - g(x0) + grad . x0.
  CutRow cut;
  double rhs = nc.upper - vg.value;
  for (std::size_t j = 0; j < model.num_vars(); ++j) {
    if (vg.grad[j] != 0.0) {
      cut.terms.emplace_back(j, vg.grad[j]);
      rhs += vg.grad[j] * x[j];
    }
  }
  cut.upper = rhs;
  cut.id = id;
  rows_.push_back(std::move(cut));
}

std::size_t CutPool::absorb(const CutPool& delta) {
  std::size_t added = 0;
  for (const CutRow& cut : delta.rows_) {
    if (cut.link >= 0 &&
        has_link_tangent(static_cast<std::size_t>(cut.link), cut.point)) {
      continue;
    }
    bool duplicate_id = false;
    for (const CutRow& mine : rows_) {
      if (mine.id == cut.id) {
        duplicate_id = true;
        break;
      }
    }
    if (duplicate_id) {
      continue;
    }
    rows_.push_back(cut);
    ++added;
  }
  return added;
}

void CutPool::age_to(std::size_t max_rows) {
  if (rows_.size() <= max_rows) {
    return;
  }
  std::size_t excess = rows_.size() - max_rows;
  std::vector<CutRow> kept;
  kept.reserve(max_rows);
  for (CutRow& cut : rows_) {
    const bool root_cut = cut.id < (1ULL << 16);
    if (excess > 0 && !root_cut) {
      --excess;  // oldest non-root cuts go first
      continue;
    }
    kept.push_back(std::move(cut));
  }
  rows_ = std::move(kept);
}

std::vector<Curvature> resolve_curvatures(const Model& model) {
  std::vector<Curvature> out;
  out.reserve(model.links().size());
  for (const UnivariateLink& link : model.links()) {
    if (link.fn.curvature != Curvature::kAuto) {
      out.push_back(link.fn.curvature);
      continue;
    }
    const Variable& nv = model.variables()[link.n_var];
    HSLB_REQUIRE(std::isfinite(nv.lower) && std::isfinite(nv.upper),
                 "curvature auto-detection needs finite bounds on " + nv.name);
    if (nv.lower >= nv.upper) {
      out.push_back(Curvature::kConvex);  // degenerate interval; exact anyway
    } else {
      out.push_back(detect_curvature(link.fn, nv.lower, nv.upper));
    }
  }
  return out;
}

lp::LpProblem build_master_lp(const Model& model, const CutPool& pool,
                              const std::vector<Curvature>& curvature,
                              std::span<const double> node_lower,
                              std::span<const double> node_upper,
                              const CutPool* extra,
                              std::vector<std::uint64_t>* row_keys) {
  const std::size_t n = model.num_vars();
  HSLB_REQUIRE(node_lower.size() == n && node_upper.size() == n,
               "node bound sizes must match variable count");

  lp::LpProblem master;
  for (std::size_t j = 0; j < n; ++j) {
    master.add_variable(node_lower[j], node_upper[j],
                        model.objective_coeffs()[j]);
  }
  master.set_objective_offset(model.objective_offset());
  if (row_keys != nullptr) {
    row_keys->clear();
  }
  const auto key = [row_keys](std::uint64_t k) {
    if (row_keys != nullptr) {
      row_keys->push_back(k);
    }
  };

  for (std::size_t ci = 0; ci < model.linear_constraints().size(); ++ci) {
    const LinearConstraint& c = model.linear_constraints()[ci];
    master.add_row(c.terms, c.lower, c.upper);
    key(row_key::linear(ci));
  }
  for (const CutRow& cut : pool.rows()) {
    master.add_row(cut.terms, cut.lower, cut.upper);
    key(row_key::cut(cut.id));
  }
  if (extra != nullptr) {
    for (const CutRow& cut : extra->rows()) {
      master.add_row(cut.terms, cut.lower, cut.upper);
      key(row_key::cut(cut.id));
    }
  }

  // Node-local chords (secants).  For a convex fn the chord lies above the
  // graph, so  t <= chord(n)  is the valid upper relaxation of t == fn(n);
  // for a concave fn the chord lies below and gives the lower relaxation.
  for (std::size_t li = 0; li < model.links().size(); ++li) {
    const UnivariateLink& link = model.links()[li];
    const double lo = node_lower[link.n_var];
    const double hi = node_upper[link.n_var];
    if (lo >= hi) {
      // Interval closed: the link is exact; pin t.
      const double f = link.fn.value(lo);
      master.set_col_bounds(link.t_var, f, f);
      continue;
    }
    if (!std::isfinite(lo) || !std::isfinite(hi)) {
      continue;  // no finite chord available
    }
    const double flo = link.fn.value(lo);
    const double fhi = link.fn.value(hi);
    if (!std::isfinite(flo) || !std::isfinite(fhi)) {
      continue;
    }
    const double slope = (fhi - flo) / (hi - lo);
    // Chord: t {<=,>=} flo + slope * (n - lo)
    //   =>   t - slope * n {<=,>=} flo - slope * lo.
    const double rhs = flo - slope * lo;
    const bool convex = curvature[li] == Curvature::kConvex;
    master.add_row({{link.t_var, 1.0}, {link.n_var, -slope}},
                   convex ? -lp::kInf : rhs, convex ? rhs : lp::kInf);
    key(row_key::chord(li));
  }
  return master;
}

std::optional<Completion> complete_integer_point(
    const Model& model, const CutPool& pool,
    const std::vector<Curvature>& curvature, std::span<const double> x,
    std::span<const double> node_lower, std::span<const double> node_upper,
    const CutPool* extra, const lp::Basis* warm,
    std::span<const std::uint64_t> warm_keys) {
  const std::size_t n = model.num_vars();
  linalg::Vector lo(node_lower.begin(), node_lower.end());
  linalg::Vector hi(node_upper.begin(), node_upper.end());
  for (std::size_t j = 0; j < n; ++j) {
    if (model.variables()[j].type != VarType::kContinuous) {
      const double v = std::round(x[j]);
      if (v < lo[j] - 1e-9 || v > hi[j] + 1e-9) {
        return std::nullopt;  // rounded value escapes the node box
      }
      lo[j] = hi[j] = v;
    }
  }

  std::vector<std::uint64_t> keys;
  const bool want_warm = warm != nullptr && !warm->empty();
  lp::LpProblem fixed = build_master_lp(model, pool, curvature, lo, hi, extra,
                                        want_warm ? &keys : nullptr);
  // build_master_lp pins each link variable exactly because every link's n
  // interval is now closed (links always hang off integer node-count vars in
  // this library; pin defensively here for links on continuous vars too).
  for (const UnivariateLink& link : model.links()) {
    const double nval = lo[link.n_var];
    if (nval == hi[link.n_var]) {
      const double f = link.fn.value(nval);
      fixed.set_col_bounds(link.t_var, f, f);
    }
  }
  lp::LpSolution sol;
  if (want_warm) {
    const lp::Basis mapped = lp::map_basis(*warm, warm_keys, keys);
    sol = lp::resolve_from_basis(fixed, mapped);
  } else {
    sol = lp::solve(fixed);
  }
  if (sol.status != lp::LpStatus::kOptimal) {
    return std::nullopt;
  }
  // Verify against the true model (general nonlinear constraints included).
  if (model.check_feasible(sol.x, 1e-6)) {
    return std::nullopt;
  }
  return Completion{sol.x, model.objective_value(sol.x)};
}

}  // namespace hslb::minlp
