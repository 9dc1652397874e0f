// Two-phase bounded-variable primal simplex.
//
// Internal standard form: one slack per row turns `rlo <= a.x <= rup` into
// `a.x - s = 0, s in [rlo, rup]`, and Phase I adds one artificial column per
// row with a +/-1 coefficient chosen so the artificial starts nonnegative.
//
// SparseSimplex transposes the problem's compressed rows into CSC form once
// per solve (a counting sort, O(nnz + n)), factorizes the basis once per
// (re)start with a Markowitz sparse LU, and absorbs each pivot as a
// product-form eta update; a deterministic trigger (eta count, eta fill, or
// a refused unstable update) forces a refactorization.  Every solve factors
// its own starting basis; a warm re-solve inherits only the parent's basis.
// See DESIGN.md section 15.
//
// Primal pricing is incremental and exact.  Within one optimize() call (one
// phase) neither the cost vector nor the columns change, so a structural
// column's reduced cost d_j = c_j - sum_i y_i a_ij depends only on the duals
// y_i on its own rows.  After each BTRAN the duals are compared with the
// previous pricing's bit for bit; the structural columns on rows whose dual
// changed are marked stale, and a stale column is recomputed -- by the same
// loop, in the same order, as a full scan -- when it is scored while
// nonbasic and not fixed.  Every other kept d_j already holds the bits a
// full scan would compute, so the pivots are those of a full Dantzig scan.
//
// Warm starts (resolve_from_basis) reuse a captured basis when it is still
// complete and factorizable.  If the basis is also primal feasible, Phase I
// is skipped outright; if not (the branch-and-bound norm: a child's bound
// change or a new cut exists precisely to cut off the parent's optimum), a
// dual-simplex repair phase pivots the violated basics out until the basis
// is primal feasible again, and only then does Phase II run.  The repair
// phase needs no dual-feasibility precondition for correctness: any valid
// basis change sequence that ends primal feasible is a legitimate Phase-II
// start, and its iteration cap sends everything else to the cold path.
#include "hslb/lp/simplex.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "hslb/common/error.hpp"
#include "hslb/common/timing.hpp"
#include "hslb/linalg/sparse.hpp"
#include "hslb/obs/obs.hpp"

namespace hslb::lp {

namespace {

using linalg::EtaFile;
using linalg::SparseColumns;
using linalg::SparseLu;
using linalg::SparseLuOptions;
using linalg::Vector;

enum class VarStatus { kBasic, kAtLower, kAtUpper, kFree, kFixed };

/// How a warm basis was absorbed into the working state.
enum class WarmMode {
  kCold,        ///< no usable warm data; all-artificial start
  kReuse,       ///< warm basis primal feasible; Phase I skipped
  kDualRepair,  ///< warm basis repaired by dual pivots; Phase I skipped
};

/// The basis representation: a sparse LU of the basis at the last
/// (re)factorization plus the eta file of the pivots since.
class MaintainedFactor {
 public:
  /// Fresh factorization of the basis columns; clears the eta file.
  /// Retains the LU's and eta file's capacity across calls.
  bool refactorize(const SparseColumns& cols, const SparseLuOptions& opts) {
    etas_.clear();
    work_.resize(static_cast<std::size_t>(cols.cols()));
    return lu_.factorize(cols, opts);
  }

  /// Append a product-form update at position r (w = FTRAN image of the
  /// entering column).  False => unstable pivot, caller must refactorize.
  bool update(std::span<const double> w, int r, double stability_tol) {
    return etas_.append(w, r, stability_tol);
  }

  long total_etas() const { return etas_.count(); }
  long eta_entries() const { return etas_.nnz(); }
  long base_nnz() const { return lu_.factor_nnz(); }

  /// Solve B x = rhs; `rhs` indexed by row, `out` by basis position.
  void ftran(std::span<const double> rhs, std::span<double> out) {
    lu_.ftran(rhs, out, work_);
    etas_.apply_ftran(out);
  }

  /// Solve B^T y = rhs; `rhs` indexed by basis position, `out` by row.
  void btran(std::span<const double> rhs, std::span<double> out) {
    std::copy(rhs.begin(), rhs.end(), out.begin());
    etas_.apply_btran(out);
    lu_.btran(out, out, work_);
  }

 private:
  SparseLu lu_;
  EtaFile etas_;
  std::vector<double> work_;
};

/// Per-thread scratch for the simplex.  Branch-and-bound issues
/// thousands of tiny LP solves per second per worker; reusing these
/// buffers (vectors keep capacity, the eta file keeps its pools, the CSC
/// builders keep their arrays) removes every steady-state heap allocation
/// from the solve path.  `in_use` guards reentrancy: a nested solve on the
/// same thread falls back to a heap-allocated private workspace.
struct LpWorkspace {
  bool in_use = false;
  Vector lower, upper, value, cost, phase1_cost, y, w, rhs, cb;
  std::vector<VarStatus> status;
  std::vector<std::size_t> basis;
  std::vector<std::size_t> warm_basis;  // prepare_warm's candidates
  Vector art_sign;
  // Pricing caches, rebuilt by the first pricing of every optimize() call.
  Vector y_prev;                      // duals of the previous pricing
  Vector reduced;                     // structural d_j, valid where !stale
  Vector score;                       // |d_j| if column j may enter, else -inf
  std::vector<unsigned char> stale;   // structural d_j awaits a recompute
  std::vector<std::size_t> changed_rows;  // rows whose dual changed bits
  SparseColumns csc;         // structural columns of the current problem
  SparseColumns basis_cols;  // basis columns fed to the factorization
  MaintainedFactor factor;
};

LpWorkspace& thread_workspace() {
  thread_local LpWorkspace ws;
  return ws;
}

/// Revised simplex over a maintained sparse factorization.  Basic values
/// move incrementally with each pivot and are recomputed through the
/// factor at factorization points and on optimal exit.  The pivot rules
/// (pricing, ratio test, Bland fallback, dual repair eligibility and
/// tie-breaks) have no second implementation to agree with; the
/// brute-force vertex oracle in tests/lp_property_test.cpp checks them.
class SparseSimplex {
 public:
  SparseSimplex(const LpProblem& problem, const SimplexOptions& options,
                LpWorkspace& ws)
      : problem_(problem), opts_(options), ws_(ws) {
    n_ = problem.num_vars();
    m_ = problem.num_rows();
    total_ = n_ + 2 * m_;  // structural | slack | artificial

    ws_.lower.assign(total_, -kInf);
    ws_.upper.assign(total_, kInf);
    for (std::size_t j = 0; j < n_; ++j) {
      ws_.lower[j] = problem.col_lower()[j];
      ws_.upper[j] = problem.col_upper()[j];
    }
    for (std::size_t i = 0; i < m_; ++i) {
      const Row row = problem.row(i);
      ws_.lower[n_ + i] = row.lower;
      ws_.upper[n_ + i] = row.upper;
      ws_.lower[n_ + m_ + i] = 0.0;  // artificials
    }
    ws_.art_sign.assign(m_, 1.0);
    ws_.status.assign(total_, VarStatus::kAtLower);
    ws_.value.assign(total_, 0.0);
    for (std::size_t j = 0; j < total_; ++j) {
      init_nonbasic(j);
    }
    init_basis();

    // CSC of the structural columns, built once per solve by one counting
    // transpose of the problem's rows, O(nnz + n).  Rows are visited in
    // order, so each column lists its nonzeros in ascending row order, the
    // order every column loop below sums in.  Slack and artificial columns
    // are singletons and stay implicit, so the pricing loop and the
    // basis-column gather handle them inline (and an art_sign flip never
    // invalidates this matrix).
    ws_.csc.assign_transpose(static_cast<int>(n_), problem.row_start(),
                             problem.terms());

    ws_.y.assign(m_, 0.0);
    ws_.y_prev.assign(m_, 0.0);
    ws_.reduced.resize(n_);
    ws_.score.resize(total_);
    ws_.stale.resize(n_);
    ws_.w.assign(m_, 0.0);
    ws_.rhs.assign(m_, 0.0);
    ws_.cb.assign(m_, 0.0);
  }

  LpSolution run(const Basis* warm) {
    LpSolution out;

    ws_.cost.assign(total_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      ws_.cost[j] = problem_.cost()[j];
    }

    WarmMode mode = WarmMode::kCold;
    if (warm != nullptr && !warm->empty()) {
      mode = prepare_warm(*warm, ws_.cost);
    }
    out.warm_used = mode != WarmMode::kCold;
    out.warm_phase1_skipped = mode != WarmMode::kCold;

    if (mode == WarmMode::kCold) {
      // The all-artificial basis is diag(+/-1): its factorization cannot
      // fail unless something is structurally broken, in which case the
      // caller's cold-retry assertion fires.
      if (!factorize_current()) {
        numeric_failure_ = true;
        out.status = LpStatus::kIterationLimit;
        finalize(out);
        return out;
      }
      refresh_basics();
      // ---- Phase I: minimize the sum of artificial values. ----
      ws_.phase1_cost.assign(total_, 0.0);
      for (std::size_t i = 0; i < m_; ++i) {
        ws_.phase1_cost[n_ + m_ + i] = 1.0;
      }
      const LpStatus st1 = optimize(ws_.phase1_cost);
      out.phase1_iterations = iterations_;
      if (st1 == LpStatus::kIterationLimit) {
        out.status = st1;
        finalize(out);
        return out;
      }
      double infeasibility = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        infeasibility += ws_.value[n_ + m_ + i];
      }
      if (infeasibility >
          opts_.feasibility_tol * std::max<double>(1.0, static_cast<double>(m_))) {
        out.status = LpStatus::kInfeasible;
        finalize(out);
        return out;
      }
    }

    // Freeze artificials at zero for Phase II.
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t a = n_ + m_ + i;
      ws_.lower[a] = ws_.upper[a] = 0.0;
      if (ws_.status[a] != VarStatus::kBasic) {
        ws_.status[a] = VarStatus::kFixed;
        ws_.value[a] = 0.0;
      }
    }

    // ---- Phase II: the real objective. ----
    const LpStatus st2 = optimize(ws_.cost);
    out.status = st2;
    finalize(out);
    if (st2 == LpStatus::kOptimal) {
      out.x.assign(ws_.value.begin(),
                   ws_.value.begin() + static_cast<std::ptrdiff_t>(n_));
      out.objective = problem_.objective_offset();
      for (std::size_t j = 0; j < n_; ++j) {
        out.objective += problem_.cost()[j] * out.x[j];
      }
      if (opts_.capture_basis) {
        capture_basis(out.basis);
      }
    }
    return out;
  }

  bool numeric_failure() const { return numeric_failure_; }

 private:
  void finalize(LpSolution& out) const {
    out.iterations = iterations_;
    out.factorizations = factorizations_;
    out.refactorizations = refactorizations_;
    out.eta_updates = eta_updates_;
    out.bound_flips = bound_flips_;
    out.priced_columns = priced_columns_;
    out.factor_seconds = factor_seconds_;
    out.update_seconds = update_seconds_;
  }

  void init_nonbasic(std::size_t j) {
    const double lo = ws_.lower[j];
    const double hi = ws_.upper[j];
    if (lo == hi) {
      ws_.status[j] = VarStatus::kFixed;
      ws_.value[j] = lo;
    } else if (std::isfinite(lo) && std::isfinite(hi)) {
      const bool lower_closer = std::fabs(lo) <= std::fabs(hi);
      ws_.status[j] = lower_closer ? VarStatus::kAtLower : VarStatus::kAtUpper;
      ws_.value[j] = lower_closer ? lo : hi;
    } else if (std::isfinite(lo)) {
      ws_.status[j] = VarStatus::kAtLower;
      ws_.value[j] = lo;
    } else if (std::isfinite(hi)) {
      ws_.status[j] = VarStatus::kAtUpper;
      ws_.value[j] = hi;
    } else {
      ws_.status[j] = VarStatus::kFree;
      ws_.value[j] = 0.0;
    }
  }

  void init_basis() {
    ws_.basis.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      // The nonzeros give the same bits as the whole row would: a zero
      // product leaves v unchanged, since v starts at +0.0 and no sum of
      // finite terms turns it into -0.0.
      double v = 0.0;
      for (const auto& [j, a] : problem_.row(i).terms) {
        v += a * ws_.value[j];
      }
      v -= ws_.value[n_ + i];  // slack column is -1
      ws_.art_sign[i] = v > 0.0 ? -1.0 : 1.0;
      const std::size_t a = n_ + m_ + i;
      ws_.basis[i] = a;
      ws_.status[a] = VarStatus::kBasic;
      ws_.value[a] = std::fabs(v);
    }
  }

  /// Gather column j of [A | -I | G] into ws_.rhs (dense by row).
  void gather_column(std::size_t j) {
    std::fill(ws_.rhs.begin(), ws_.rhs.end(), 0.0);
    if (j < n_) {
      const auto idx = ws_.csc.col_index(static_cast<int>(j));
      const auto val = ws_.csc.col_value(static_cast<int>(j));
      for (std::size_t k = 0; k < idx.size(); ++k) {
        ws_.rhs[static_cast<std::size_t>(idx[k])] = val[k];
      }
    } else if (j < n_ + m_) {
      ws_.rhs[j - n_] = -1.0;
    } else {
      ws_.rhs[j - n_ - m_] = ws_.art_sign[j - n_ - m_];
    }
  }

  /// Fresh sparse LU of the current basis.  The absolute pivot threshold
  /// is 1e-14 and every column magnitude passes the relative one, so a false
  /// "singular" verdict needs the whole column below 1e-14 -- at which
  /// point the basis is singular for every practical purpose.
  bool factorize_current() {
    common::WallTimer timer;
    ws_.basis_cols.reset(static_cast<int>(m_));
    for (std::size_t k = 0; k < m_; ++k) {
      const std::size_t j = ws_.basis[k];
      if (j < n_) {
        const auto idx = ws_.csc.col_index(static_cast<int>(j));
        const auto val = ws_.csc.col_value(static_cast<int>(j));
        for (std::size_t e = 0; e < idx.size(); ++e) {
          ws_.basis_cols.add_entry(idx[e], val[e]);
        }
      } else if (j < n_ + m_) {
        ws_.basis_cols.add_entry(static_cast<int>(j - n_), -1.0);
      } else {
        ws_.basis_cols.add_entry(static_cast<int>(j - n_ - m_),
                                 ws_.art_sign[j - n_ - m_]);
      }
      ws_.basis_cols.finish_column();
    }
    const bool ok =
        ws_.factor.refactorize(ws_.basis_cols, SparseLuOptions{0.1, 1e-14});
    factor_seconds_ += timer.seconds();
    if (ok) {
      ++factorizations_;
    }
    return ok;
  }

  /// Recompute basic values from the nonbasic resting values through the
  /// maintained factor: B x_B = -N x_N.
  void refresh_basics() {
    std::fill(ws_.rhs.begin(), ws_.rhs.end(), 0.0);
    for (std::size_t j = 0; j < total_; ++j) {
      if (ws_.status[j] == VarStatus::kBasic || ws_.value[j] == 0.0) {
        continue;
      }
      const double v = ws_.value[j];
      if (j < n_) {
        const auto idx = ws_.csc.col_index(static_cast<int>(j));
        const auto val = ws_.csc.col_value(static_cast<int>(j));
        for (std::size_t k = 0; k < idx.size(); ++k) {
          ws_.rhs[static_cast<std::size_t>(idx[k])] -= val[k] * v;
        }
      } else if (j < n_ + m_) {
        ws_.rhs[j - n_] += v;  // -(-1 * v)
      } else {
        ws_.rhs[j - n_ - m_] -= ws_.art_sign[j - n_ - m_] * v;
      }
    }
    ws_.factor.ftran(ws_.rhs, ws_.w);
    for (std::size_t i = 0; i < m_; ++i) {
      ws_.value[ws_.basis[i]] = ws_.w[i];
    }
  }

  bool basics_feasible() const {
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t bj = ws_.basis[i];
      const double v = ws_.value[bj];
      if (v < ws_.lower[bj] - opts_.feasibility_tol ||
          v > ws_.upper[bj] + opts_.feasibility_tol) {
        return false;
      }
    }
    return true;
  }

  /// Absorb a pivot at basis position r: try a product-form update first
  /// (w must be the FTRAN image of the new basic column through the
  /// current factor); on a refused (unstable) eta, or once the
  /// deterministic budget trips -- eta count, or eta fill beyond
  /// eta_fill_factor x base fill plus a per-row allowance
  /// -- rebuild the factorization of the *new* basis.  Returns false only
  /// when that rebuild finds the basis singular.
  bool pivot_factor_update(int r) {
    common::WallTimer timer;
    const bool updated = ws_.factor.update(ws_.w, r, opts_.eta_stability_tol);
    update_seconds_ += timer.seconds();
    if (updated) {
      ++eta_updates_;
      const long allowance = 4 * static_cast<long>(m_);
      const long fill_budget =
          static_cast<long>(opts_.eta_fill_factor *
                            static_cast<double>(ws_.factor.base_nnz())) +
          allowance;
      if (ws_.factor.total_etas() < opts_.refactor_interval &&
          ws_.factor.eta_entries() < fill_budget) {
        return true;
      }
    }
    if (!factorize_current()) {
      return false;
    }
    ++refactorizations_;
    refresh_basics();
    return true;
  }

  WarmMode prepare_warm(const Basis& warm, const Vector& phase2_cost) {
    if (warm.cols.size() != n_ || warm.row_slacks.size() != m_) {
      return WarmMode::kCold;
    }
    // The candidate list lives in the workspace and is swapped into the
    // basis, so a warm solve allocates nothing in steady state.
    std::vector<std::size_t>& candidates = ws_.warm_basis;
    candidates.clear();
    for (std::size_t j = 0; j < n_ + m_; ++j) {
      const BasisStatus s =
          j < n_ ? warm.cols[j] : warm.row_slacks[j - n_];
      switch (s) {
        case BasisStatus::kBasic:
          candidates.push_back(j);
          break;
        case BasisStatus::kAtLower:
          if (std::isfinite(ws_.lower[j]) && ws_.lower[j] != ws_.upper[j]) {
            ws_.status[j] = VarStatus::kAtLower;
            ws_.value[j] = ws_.lower[j];
          }
          break;
        case BasisStatus::kAtUpper:
          if (std::isfinite(ws_.upper[j]) && ws_.lower[j] != ws_.upper[j]) {
            ws_.status[j] = VarStatus::kAtUpper;
            ws_.value[j] = ws_.upper[j];
          }
          break;
        case BasisStatus::kFree:
          if (!std::isfinite(ws_.lower[j]) && !std::isfinite(ws_.upper[j])) {
            ws_.status[j] = VarStatus::kFree;
            ws_.value[j] = 0.0;
          }
          break;
        case BasisStatus::kFixed:
        case BasisStatus::kUnset:
          break;  // keep the constructor's resting placement
      }
    }

    if (candidates.size() == m_) {
      std::swap(ws_.basis, candidates);
      for (const std::size_t c : ws_.basis) {
        ws_.status[c] = VarStatus::kBasic;
      }
      for (std::size_t i = 0; i < m_; ++i) {
        const std::size_t a = n_ + m_ + i;
        ws_.status[a] = VarStatus::kAtLower;
        ws_.value[a] = 0.0;
      }
      // One factorization serves both FTRAN and BTRAN.
      if (factorize_current()) {
        refresh_basics();
        if (basics_feasible()) {
          return WarmMode::kReuse;
        }
        if (dual_repair(phase2_cost)) {
          return WarmMode::kDualRepair;
        }
      }
    }
    // No reuse: rebuild the cold start from scratch.
    for (std::size_t j = 0; j < total_; ++j) {
      init_nonbasic(j);
    }
    init_basis();
    return WarmMode::kCold;
  }

  /// Dual-simplex repair on the maintained factor: the most violated basic
  /// leaves, and the eligible column with the least |d_j| / |alpha_j|
  /// enters (near-ties to the larger |alpha_j|).  Each pivot is
  /// absorbed as an eta update (or a refactorization when refused), and a
  /// singular rebuild bails to the cold start like every other failure.
  bool dual_repair(const Vector& cost) {
    const int cap = std::min(opts_.max_iterations - iterations_,
                             static_cast<int>(m_) + 10);
    const double pivot_tol = 1e-7;
    for (int it = 0;; ++it) {
      refresh_basics();

      std::ptrdiff_t r = -1;
      bool above = false;
      double worst = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        const std::size_t bj = ws_.basis[i];
        const double v = ws_.value[bj];
        if (v < ws_.lower[bj] - opts_.feasibility_tol &&
            ws_.lower[bj] - v > worst) {
          worst = ws_.lower[bj] - v;
          r = static_cast<std::ptrdiff_t>(i);
          above = false;
        } else if (v > ws_.upper[bj] + opts_.feasibility_tol &&
                   v - ws_.upper[bj] > worst) {
          worst = v - ws_.upper[bj];
          r = static_cast<std::ptrdiff_t>(i);
          above = true;
        }
      }
      if (r < 0) {
        return true;  // primal feasible: ready for Phase II
      }
      if (it >= cap) {
        return false;
      }
      // Row r of B^{-1}A via B^T w = e_r, and the duals y = B^{-T} c_B.
      std::fill(ws_.cb.begin(), ws_.cb.end(), 0.0);
      ws_.cb[static_cast<std::size_t>(r)] = 1.0;
      ws_.factor.btran(ws_.cb, ws_.w);
      Vector& wrow = ws_.w;  // by row
      for (std::size_t i = 0; i < m_; ++i) {
        ws_.cb[i] = cost[ws_.basis[i]];
      }
      ws_.factor.btran(ws_.cb, ws_.y);

      std::size_t entering = total_;
      double best_ratio = kInf;
      double best_alpha = 0.0;
      for (std::size_t j = 0; j < n_ + m_; ++j) {
        const VarStatus st = ws_.status[j];
        if (st == VarStatus::kBasic || st == VarStatus::kFixed) {
          continue;
        }
        double alpha = 0.0;
        double d = cost[j];
        if (j < n_) {
          const auto idx = ws_.csc.col_index(static_cast<int>(j));
          const auto val = ws_.csc.col_value(static_cast<int>(j));
          for (std::size_t k = 0; k < idx.size(); ++k) {
            const auto row = static_cast<std::size_t>(idx[k]);
            alpha += wrow[row] * val[k];
            d -= ws_.y[row] * val[k];
          }
        } else {
          alpha -= wrow[j - n_];  // slack coefficient -1
          d += ws_.y[j - n_];
        }
        if (std::fabs(alpha) <= pivot_tol) {
          continue;
        }
        bool eligible = st == VarStatus::kFree;
        if (!eligible && st == VarStatus::kAtLower) {
          eligible = above ? alpha > 0.0 : alpha < 0.0;
        }
        if (!eligible && st == VarStatus::kAtUpper) {
          eligible = above ? alpha < 0.0 : alpha > 0.0;
        }
        if (!eligible) {
          continue;
        }
        const double ratio = std::fabs(d) / std::fabs(alpha);
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 && std::fabs(alpha) > best_alpha)) {
          best_ratio = std::min(best_ratio, ratio);
          best_alpha = std::fabs(alpha);
          entering = j;
        }
      }
      if (entering == total_) {
        return false;  // no eligible pivot: likely primal infeasible
      }

      // Absorb the pivot into the factor before mutating the basis: the
      // eta needs the entering column's FTRAN image through the *old* B.
      gather_column(entering);
      ws_.factor.ftran(ws_.rhs, ws_.w);
      const std::size_t out_var = ws_.basis[static_cast<std::size_t>(r)];
      ws_.status[out_var] = above ? VarStatus::kAtUpper : VarStatus::kAtLower;
      ws_.value[out_var] = above ? ws_.upper[out_var] : ws_.lower[out_var];
      ws_.basis[static_cast<std::size_t>(r)] = entering;
      ws_.status[entering] = VarStatus::kBasic;
      if (!pivot_factor_update(static_cast<int>(r))) {
        return false;
      }
      ++iterations_;
    }
  }

  void capture_basis(Basis& out) const {
    for (std::size_t i = 0; i < m_; ++i) {
      if (ws_.status[n_ + m_ + i] == VarStatus::kBasic) {
        return;
      }
    }
    const auto to_basis = [](VarStatus s) {
      switch (s) {
        case VarStatus::kBasic:
          return BasisStatus::kBasic;
        case VarStatus::kAtLower:
          return BasisStatus::kAtLower;
        case VarStatus::kAtUpper:
          return BasisStatus::kAtUpper;
        case VarStatus::kFree:
          return BasisStatus::kFree;
        case VarStatus::kFixed:
          return BasisStatus::kFixed;
      }
      return BasisStatus::kUnset;
    };
    out.cols.resize(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      out.cols[j] = to_basis(ws_.status[j]);
    }
    out.row_slacks.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      out.row_slacks[i] = to_basis(ws_.status[n_ + i]);
    }
  }

  /// Reduced cost of structural column j under the current duals, summed
  /// in the CSC's ascending row order.  The one place primal pricing
  /// computes a structural d_j.
  double price_structural(std::size_t j, const Vector& cost) {
    ++priced_columns_;
    double d = cost[j];
    const auto idx = ws_.csc.col_index(static_cast<int>(j));
    const auto val = ws_.csc.col_value(static_cast<int>(j));
    for (std::size_t k = 0; k < idx.size(); ++k) {
      d -= ws_.y[static_cast<std::size_t>(idx[k])] * val[k];
    }
    return d;
  }

  /// d_j under the current duals: kept for structural columns (recomputed
  /// when stale), direct for the singleton slack and artificial columns.
  double reduced_cost(std::size_t j, const Vector& cost) {
    if (j < n_) {
      if (ws_.stale[j] != 0) {
        ws_.reduced[j] = price_structural(j, cost);
        ws_.stale[j] = 0;
      }
      return ws_.reduced[j];
    }
    if (j < n_ + m_) {
      return cost[j] + ws_.y[j - n_];  // slack coefficient -1
    }
    return cost[j] - ws_.y[j - n_ - m_] * ws_.art_sign[j - n_ - m_];
  }

  /// +1 (increase) or -1 (decrease) when a nonbasic column with status st
  /// and reduced cost d may enter, else 0 (NaN included).
  int entry_direction(VarStatus st, double d) const {
    if ((st == VarStatus::kAtLower || st == VarStatus::kFree) &&
        d < -opts_.optimality_tol) {
      return +1;
    }
    if ((st == VarStatus::kAtUpper || st == VarStatus::kFree) &&
        d > opts_.optimality_tol) {
      return -1;
    }
    return 0;
  }

  /// Score column j: |d_j| when it may enter, else -inf.  Basic and fixed
  /// columns are not priced, so a stale one stays stale until a pivot
  /// changes its status.
  void rescore(std::size_t j, const Vector& cost) {
    const VarStatus st = ws_.status[j];
    double score = -kInf;
    if (st != VarStatus::kBasic && st != VarStatus::kFixed) {
      const double d = reduced_cost(j, cost);
      if (entry_direction(st, d) != 0) {
        score = std::fabs(d);
      }
    }
    ws_.score[j] = score;
  }

  /// Pricing: y = B^{-T} c_B through the maintained factor, then bring the
  /// scores up to date.  `rebuild` (the first pricing of an optimize()
  /// call) scores every column in one pass.  Otherwise only columns whose
  /// score can have changed are rescored: those on rows whose dual changed
  /// bit pattern since the previous pricing (a structural one is marked
  /// stale first, so one on several changed rows is priced once), and
  /// `moved`, the columns whose status the previous pivot changed.
  void price(const Vector& cost, bool rebuild,
             std::span<const std::size_t> moved) {
    for (std::size_t i = 0; i < m_; ++i) {
      ws_.cb[i] = cost[ws_.basis[i]];
    }
    if (rebuild) {
      ws_.factor.btran(ws_.cb, ws_.y);
      std::fill(ws_.stale.begin(), ws_.stale.end(), 1);
      for (std::size_t j = 0; j < total_; ++j) {
        rescore(j, cost);
      }
      return;
    }
    std::swap(ws_.y, ws_.y_prev);
    ws_.factor.btran(ws_.cb, ws_.y);
    ws_.changed_rows.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      if (std::bit_cast<std::uint64_t>(ws_.y[i]) !=
          std::bit_cast<std::uint64_t>(ws_.y_prev[i])) {
        ws_.changed_rows.push_back(i);
        for (const Term& t : problem_.row(i).terms) {
          ws_.stale[t.first] = 1;
        }
      }
    }
    for (const std::size_t j : moved) {
      if (j < total_) {
        rescore(j, cost);
      }
    }
    for (const std::size_t i : ws_.changed_rows) {
      for (const Term& t : problem_.row(i).terms) {
        if (ws_.stale[t.first] != 0) {
          rescore(t.first, cost);
        }
      }
      rescore(n_ + i, cost);
      rescore(n_ + m_ + i, cost);
    }
  }

  /// The entering column from the kept scores, total_ when none may enter.
  /// Bland: the smallest index that may enter.  Dantzig: the largest score,
  /// ties to the smallest index (a strict `>` scan in index order); every
  /// eligible score exceeds the optimality tolerance and every other one
  /// is -inf, which never wins.
  std::size_t choose_entering(bool bland) const {
    std::size_t entering = total_;
    double best = -kInf;
    for (std::size_t j = 0; j < total_; ++j) {
      if (ws_.score[j] > best) {
        entering = j;
        if (bland) {
          break;
        }
        best = ws_.score[j];
      }
    }
    return entering;
  }

  LpStatus optimize(const Vector& cost) {
    const int bland_threshold =
        5 * static_cast<int>(total_ + m_) + 200;
    int phase_iterations = 0;
    // Columns whose status the previous pivot changed (total_: none).
    std::array<std::size_t, 2> moved{total_, total_};

    for (bool rebuild = true;; rebuild = false) {
      if (iterations_ >= opts_.max_iterations) {
        return LpStatus::kIterationLimit;
      }
      const bool bland = phase_iterations > bland_threshold;

      // Pricing reprices only the structural columns on rows whose dual
      // changed bit pattern; a stale basic or fixed column waits for the
      // pivot that changes its status.  Each kept d_j holds the bits a full
      // scan would compute, so the entering column is a full scan's.
      price(cost, rebuild, moved);
      const std::size_t entering = choose_entering(bland);
      if (entering == total_) {
        // Optimal under this objective.  Values were maintained
        // incrementally since the last factorization; recompute them once
        // through the factor so the Phase-I infeasibility sum and the
        // reported vertex see solve-quality numbers.
        refresh_basics();
        return LpStatus::kOptimal;
      }
      const int direction =
          entry_direction(ws_.status[entering], reduced_cost(entering, cost));

      // Direction through the basics: w = B^{-1} A_e.
      gather_column(entering);
      ws_.factor.ftran(ws_.rhs, ws_.w);
      Vector& w = ws_.w;

      // Ratio test; near-ties (within 1e-12) go to the larger |w_i|.
      double t_max = kInf;
      if (std::isfinite(ws_.lower[entering]) &&
          std::isfinite(ws_.upper[entering])) {
        t_max = ws_.upper[entering] - ws_.lower[entering];
      }
      std::ptrdiff_t leaving = -1;  // -1 => bound flip
      bool leaving_to_upper = false;
      double leaving_pivot_mag = 0.0;
      const double pivot_tol = 1e-9;
      for (std::size_t i = 0; i < m_; ++i) {
        const double rate = direction * w[i];  // basic i decreases at `rate`
        const std::size_t bj = ws_.basis[i];
        double limit = kInf;
        bool to_upper = false;
        if (rate > pivot_tol) {
          if (std::isfinite(ws_.lower[bj])) {
            limit = (ws_.value[bj] - ws_.lower[bj]) / rate;
          }
        } else if (rate < -pivot_tol) {
          if (std::isfinite(ws_.upper[bj])) {
            limit = (ws_.value[bj] - ws_.upper[bj]) / rate;
            to_upper = true;
          }
        } else {
          continue;
        }
        limit = std::max(limit, 0.0);  // degeneracy snap
        const bool better =
            limit < t_max - 1e-12 ||
            (limit < t_max + 1e-12 && std::fabs(w[i]) > leaving_pivot_mag);
        if (better && limit <= t_max + 1e-12) {
          t_max = std::min(t_max, limit);
          leaving = static_cast<std::ptrdiff_t>(i);
          leaving_to_upper = to_upper;
          leaving_pivot_mag = std::fabs(w[i]);
        }
      }

      if (!std::isfinite(t_max)) {
        return LpStatus::kUnbounded;
      }

      // Apply the step incrementally; refresh_basics recomputes the basics
      // through the factor at the next factorization or optimal exit.
      for (std::size_t i = 0; i < m_; ++i) {
        ws_.value[ws_.basis[i]] -= t_max * direction * w[i];
      }
      ws_.value[entering] += direction * t_max;

      if (leaving < 0) {
        // Bound flip: entering traverses its whole span; the basis -- and
        // therefore the factorization -- is unchanged.
        ws_.status[entering] = direction > 0 ? VarStatus::kAtUpper
                                             : VarStatus::kAtLower;
        ws_.value[entering] =
            direction > 0 ? ws_.upper[entering] : ws_.lower[entering];
        ++bound_flips_;
        moved = {entering, total_};
      } else {
        const std::size_t out_var =
            ws_.basis[static_cast<std::size_t>(leaving)];
        ws_.status[out_var] =
            leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
        ws_.value[out_var] =
            leaving_to_upper ? ws_.upper[out_var] : ws_.lower[out_var];
        ws_.basis[static_cast<std::size_t>(leaving)] = entering;
        ws_.status[entering] = VarStatus::kBasic;
        moved = {entering, out_var};
        if (!pivot_factor_update(static_cast<int>(leaving))) {
          // A pivot reached a numerically singular basis -- possible only
          // on warm trajectories; the caller retries the solve cold.
          numeric_failure_ = true;
          return LpStatus::kIterationLimit;
        }
      }

      ++iterations_;
      ++phase_iterations;
    }
  }

  const LpProblem& problem_;
  SimplexOptions opts_;
  LpWorkspace& ws_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t total_ = 0;
  int iterations_ = 0;
  long factorizations_ = 0;
  long refactorizations_ = 0;
  long eta_updates_ = 0;
  long bound_flips_ = 0;
  long priced_columns_ = 0;
  double factor_seconds_ = 0.0;
  double update_seconds_ = 0.0;
  bool numeric_failure_ = false;
};

/// Clears the reentrancy flag even when an assertion unwinds mid-solve.
struct WorkspaceGuard {
  LpWorkspace* ws;
  ~WorkspaceGuard() { ws->in_use = false; }
};

LpSolution solve_impl(const LpProblem& problem, const SimplexOptions& options,
                      const Basis* warm) {
  if (problem.num_vars() == 0) {
    // Every row's activity is 0: feasible exactly when each row admits 0.
    LpSolution out;
    out.status = LpStatus::kOptimal;
    for (std::size_t i = 0; i < problem.num_rows(); ++i) {
      const Row row = problem.row(i);
      if (row.lower > options.feasibility_tol ||
          row.upper < -options.feasibility_tol) {
        out.status = LpStatus::kInfeasible;
        return out;
      }
    }
    out.objective = problem.objective_offset();
    return out;
  }
  common::WallTimer total_timer;
  // The simplex solves out of a per-thread workspace; a reentrant solve on
  // the same thread (none exist today, but the flag is cheap insurance)
  // gets a private heap-allocated one.
  LpWorkspace& shared = thread_workspace();
  std::unique_ptr<LpWorkspace> local;
  LpWorkspace* ws = &shared;
  if (shared.in_use) {
    local = std::make_unique<LpWorkspace>();
    ws = local.get();
  }
  ws->in_use = true;
  WorkspaceGuard guard{ws};
  SparseSimplex simplex(problem, options, *ws);
  LpSolution out = simplex.run(warm);
  if (simplex.numeric_failure()) {
    // Only a warm-started trajectory can pivot into a singular basis; for
    // a cold solve this is a genuine invariant violation.
    HSLB_ASSERT(warm != nullptr && !warm->empty(), "singular simplex basis");
    SparseSimplex retry(problem, options, *ws);
    out = retry.run(nullptr);
    HSLB_ASSERT(!retry.numeric_failure(), "singular simplex basis");
  }
  // Wall clock not spent factoring or updating is pivot work (pricing,
  // ratio tests, dual repair).  Timing never feeds fingerprints.
  out.pivot_seconds = std::max(
      0.0, total_timer.seconds() - out.factor_seconds - out.update_seconds);
  // Counters only (no span): B&B issues thousands of tiny LP solves and a
  // span per solve would swamp the trace.
  if (obs::Registry* metrics = obs::current_metrics()) {
    metrics->counter("lp.simplex.solves").add(1.0);
    metrics->counter("lp.simplex.pivots")
        .add(static_cast<double>(out.iterations));
    metrics
        ->histogram("lp.simplex.pivots_per_solve",
                    obs::Registry::hdr_count_bounds())
        .observe(static_cast<double>(out.iterations));
    if (out.warm_used) {
      metrics->counter("lp.simplex.warm_solves").add(1.0);
      if (out.warm_phase1_skipped) {
        metrics->counter("lp.simplex.warm_phase1_skips").add(1.0);
      }
    }
    metrics->counter("lp.simplex.factorizations")
        .add(static_cast<double>(out.factorizations));
    if (out.refactorizations > 0) {
      metrics->counter("lp.simplex.refactorizations")
          .add(static_cast<double>(out.refactorizations));
    }
    if (out.eta_updates > 0) {
      metrics->counter("lp.simplex.eta_updates")
          .add(static_cast<double>(out.eta_updates));
    }
    if (out.bound_flips > 0) {
      metrics->counter("lp.simplex.bound_flips")
          .add(static_cast<double>(out.bound_flips));
    }
    if (out.priced_columns > 0) {
      metrics->counter("lp.simplex.priced_columns")
          .add(static_cast<double>(out.priced_columns));
    }
  }
  return out;
}

}  // namespace

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

Basis map_basis(const Basis& from, std::span<const std::uint64_t> from_keys,
                std::span<const std::uint64_t> to_keys) {
  Basis out;
  out.cols = from.cols;
  // Rows with no match in the source basis are NEW rows: their slack enters
  // the basis (the textbook basis extension).  If the new row holds at the
  // warm point the extended basis is still primal feasible and Phase I is
  // skipped; if it cuts the point off, prepare_warm's feasibility check
  // rejects the basis and the solve falls back to a cold start.  kUnset here
  // would instead leave the basis short one member and force the cold path
  // for every added cut.
  out.row_slacks.assign(to_keys.size(), BasisStatus::kBasic);
  std::unordered_map<std::uint64_t, BasisStatus> by_key;
  const std::size_t known = std::min(from_keys.size(), from.row_slacks.size());
  by_key.reserve(known);
  for (std::size_t i = 0; i < known; ++i) {
    by_key.emplace(from_keys[i], from.row_slacks[i]);  // first wins
  }
  for (std::size_t i = 0; i < to_keys.size(); ++i) {
    if (const auto it = by_key.find(to_keys[i]); it != by_key.end()) {
      out.row_slacks[i] = it->second;
    }
  }
  return out;
}

LpSolution solve(const LpProblem& problem, const SimplexOptions& options) {
  return solve_impl(problem, options, nullptr);
}

LpSolution resolve_from_basis(const LpProblem& problem, const Basis& warm,
                              const SimplexOptions& options) {
  return solve_impl(problem, options, &warm);
}

}  // namespace hslb::lp
