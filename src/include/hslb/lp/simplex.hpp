// Bounded-variable primal simplex.
//
// Two-phase revised simplex with implicit handling of variable bounds
// (nonbasic variables rest at a finite bound and may "bound flip" without a
// basis change) and artificial variables for Phase I.  Dantzig pricing with
// a Bland's-rule fallback guarantees termination.
//
// The constraint matrix is stored in CSC form, the basis is factorized once
// per (re)start with a Markowitz-pivoting sparse LU, and each pivot is
// absorbed as a product-form eta update -- pricing runs through BTRAN/FTRAN
// on the maintained factor, and a deterministic trigger (eta count / fill /
// pivot stability) forces a refactorization when the eta file degrades
// (see DESIGN.md section 15).
//
// Warm starts: a solve may capture its optimal Basis (statuses of the
// structural columns and the row slacks), and resolve_from_basis() restarts
// a *related* problem from it -- same columns, rows added/removed/reordered
// by the caller via map_basis().  A complete, factorizable warm basis skips
// Phase I entirely: directly when it is still primal feasible, and through
// a dual-simplex repair phase when the new problem cuts the old optimum off
// (the branch-and-bound norm -- tightened bounds and fresh cuts exist
// precisely to exclude the parent's vertex).  The repair needs no dual
// feasibility to be correct: any valid pivot sequence ending primal
// feasible is a legitimate Phase-II start, and its iteration cap falls back
// to the ordinary cold start.  Either way Phase II runs the ordinary pivot
// rules afterwards, so a warm solve is exactly as correct as a cold one
// (property-tested).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hslb/lp/problem.hpp"

namespace hslb::lp {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* to_string(LpStatus status);

/// Status of one column (or row slack) in a captured simplex basis.
enum class BasisStatus : unsigned char {
  kUnset,    ///< no information; the solver uses its default resting point
  kBasic,
  kAtLower,
  kAtUpper,
  kFree,
  kFixed,
};

/// A captured simplex basis: one status per structural column and one per
/// row slack.  `cols` is indexed like the problem's variables; `row_slacks`
/// like its rows.  Empty vectors mean "no basis" (cold solve).
struct Basis {
  std::vector<BasisStatus> cols;
  std::vector<BasisStatus> row_slacks;

  bool empty() const { return cols.empty() && row_slacks.empty(); }
};

/// Remap a captured basis onto a problem whose rows moved.  `from_keys[i]`
/// names row i of the problem the basis was captured on; `to_keys[i]` names
/// row i of the new problem (any caller-chosen stable identifiers).  Rows of
/// the new problem with no match get a BASIC slack (the textbook basis
/// extension: if the new row holds at the warm point, the extended basis is
/// still primal feasible and Phase I is skipped); rows that vanished simply
/// drop out, which leaves the basis short and forces the cold fallback.
/// Column statuses pass through unchanged (the column set must be identical
/// between the two problems).
[[nodiscard]] Basis map_basis(const Basis& from,
                              std::span<const std::uint64_t> from_keys,
                              std::span<const std::uint64_t> to_keys);

struct SimplexOptions {
  double feasibility_tol = 1e-7;   ///< bound/row violation tolerance
  double optimality_tol = 1e-8;    ///< reduced-cost tolerance
  int max_iterations = 50000;      ///< across both phases
  /// Capture the final basis into LpSolution::basis on optimal termination
  /// (for warm-starting a related re-solve).  Off by default: capturing
  /// copies two status vectors per solve.
  bool capture_basis = false;
  /// Refactorize once this many eta updates accumulate.
  int refactor_interval = 64;
  /// Refactorize when the eta file's entries exceed this multiple of the
  /// base factor's fill (plus a small per-row allowance).
  double eta_fill_factor = 4.0;
  /// Refuse an eta whose pivot |w_r| falls below this fraction of
  /// max(1, ||w||_inf) and refactorize instead.
  double eta_stability_tol = 1e-8;
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;       ///< includes the problem's objective offset
  linalg::Vector x;             ///< primal point (structural variables only)
  int iterations = 0;           ///< simplex pivots performed
  int phase1_iterations = 0;    ///< pivots spent in Phase I (0: skipped)
  /// True when the warm basis was actually reused; false when the solve
  /// fell back to the cold all-artificial start.
  bool warm_used = false;
  /// True when basis reuse skipped Phase I -- either the warm basis was
  /// still primal feasible, or the dual repair phase restored feasibility.
  bool warm_phase1_skipped = false;
  /// Final basis (only when SimplexOptions::capture_basis and optimal;
  /// empty when an artificial remained basic -- such a basis is not
  /// reusable).
  Basis basis;

  // --- work accounting (all deterministic) ---
  long factorizations = 0;    ///< fresh basis LUs built
  long refactorizations = 0;  ///< LUs forced by an eta trigger mid-solve
  long eta_updates = 0;       ///< product-form updates appended
  long bound_flips = 0;       ///< pivots resolved without a basis change
  /// Structural reduced costs computed by primal pricing (each a column
  /// dot product with the duals); reused ones are not counted.
  long priced_columns = 0;

  // --- phase timing (wall clock; excluded from fingerprints) ---
  double factor_seconds = 0.0;  ///< building LU factorizations
  double update_seconds = 0.0;  ///< appending eta updates
  double pivot_seconds = 0.0;   ///< everything else in the pivot loops
};

/// Solve the LP by two-phase bounded-variable primal simplex.
[[nodiscard]] LpSolution solve(const LpProblem& problem,
                               const SimplexOptions& options = {});

/// Solve starting from a previously captured (and caller-remapped) basis.
/// Falls back to the cold path when the basis is empty or unusable; the
/// result is identical to solve() up to degenerate vertex choice.
[[nodiscard]] LpSolution resolve_from_basis(const LpProblem& problem,
                                            const Basis& warm,
                                            const SimplexOptions& options = {});

}  // namespace hslb::lp
