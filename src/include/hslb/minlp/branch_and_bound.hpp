// LP/NLP-based branch-and-bound (outer approximation) for convex MINLPs.
//
// The algorithm follows the description in the paper (Quesada-Grossmann
// LP/NLP-based branch-and-bound as implemented in MINOTAUR):
//   * an LP master relaxation carrying linearization cuts,
//   * a branch-and-bound tree over integer variables and SOS1 sets,
//   * new linearizations added lazily when an (integer-feasible) master
//     solution violates the nonlinear constraints,
//   * SOS1 branching on the discrete allocation sets (the feature the paper
//     credits with a two-orders-of-magnitude speedup over branching on the
//     individual binary variables).
// Univariate links t == fn(n) additionally get node-local chord rows, which
// close the relaxation gap as the tree tightens variable intervals, so the
// solver is exact for the (possibly concave) fitted performance functions.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hslb/lp/simplex.hpp"
#include "hslb/minlp/model.hpp"

namespace hslb::minlp {

enum class MinlpStatus {
  kOptimal,
  kInfeasible,
  kNodeLimit,
  kTimeLimit,
  kUnbounded,
};

const char* to_string(MinlpStatus status);

enum class NodeSelection { kBestBound, kDepthFirst };

/// One structured solver progress event, emitted through
/// SolverOptions::event_sink.
struct SolverEvent {
  enum class Kind {
    kPresolve,   ///< after FBBT: tightenings/rounds filled
    kProgress,   ///< periodic node-count heartbeat
    kIncumbent,  ///< a new best feasible solution was accepted
    kDone,       ///< final summary
  };
  Kind kind = Kind::kProgress;
  long node = 0;               ///< nodes explored when the event fired
  std::size_t open_nodes = 0;  ///< size of the open-node queue
  bool have_incumbent = false;
  double incumbent = 0.0;      ///< objective of the best solution so far
  double best_bound = 0.0;     ///< valid global lower bound (kDone only)
  int presolve_tightenings = 0;
  int presolve_rounds = 0;
  long lp_solves = 0;
  long cuts_added = 0;
};

using SolverEventSink = std::function<void(const SolverEvent&)>;

/// Cross-solve warm-start state: everything a later solve of a structurally
/// identical model (same variables and links, possibly re-fitted
/// coefficients) can reuse.  Produced by a solve with
/// SolverOptions::capture_warm_start and fed back through
/// SolverOptions::warm_start -- the rebalancing loop re-enters the solver
/// this way after every re-fit.  Every piece degrades safely when the model
/// moved: the incumbent is re-completed against the new model (dropped if
/// infeasible), and the basis is remapped by stable row keys.
struct WarmStart {
  linalg::Vector incumbent;  ///< previous best point (empty: none)
  lp::Basis root_basis;      ///< root LP basis from the previous solve
  std::vector<std::uint64_t> root_keys;  ///< row keys it was captured on

  bool empty() const { return incumbent.empty() && root_basis.empty(); }
};

struct SolverOptions {
  bool use_sos_branching = true;   ///< false: branch binaries individually
  bool use_root_nlp = true;        ///< seed cuts from a barrier NLP solve
  bool use_presolve = true;        ///< FBBT bound tightening before B&B
  NodeSelection node_selection = NodeSelection::kBestBound;
  double integer_tol = 1e-6;
  double rel_gap = 1e-8;           ///< relative optimality gap
  long max_nodes = 2'000'000;
  /// Wall-clock budget in seconds; <= 0 means unlimited.  When the budget
  /// expires the solve stops and returns the best incumbent found so far
  /// with status kTimeLimit (kTimeLimit without a point means no feasible
  /// solution was found in time).
  double max_wall_seconds = 0.0;
  int cut_rounds_per_node = 8;     ///< OA re-solve rounds per node
  int initial_tangents_per_link = 5;
  /// Structured progress sink (presolve summary, incumbent updates,
  /// periodic node counts, final summary).
  SolverEventSink event_sink;
  /// Node-count cadence for kProgress events.  The first heartbeat fires
  /// at node 1 (so short solves still produce one), then every multiple.
  long log_every_nodes = 100;

  // --- Parallel tree search (deterministic) --------------------------------
  /// Worker threads processing nodes; <= 0 picks hardware concurrency.  The
  /// result is byte-identical for every thread count: each epoch pops a
  /// fixed-size batch of nodes in heap order, workers evaluate them against
  /// an immutable snapshot of the cut pool and cutoff, and the results merge
  /// back in batch order.  Which thread ran a node never affects the answer.
  int threads = 1;
  /// Nodes popped per epoch.  Thread-count INDEPENDENT by design: changing
  /// `epoch_batch` changes the search (batch members do not see each
  /// other's cuts or incumbents), changing `threads` does not.  1 reproduces
  /// the classic serial node loop exactly.  Each epoch takes half its picks
  /// by the configured node selection and half as dives to the deepest open
  /// nodes, so incumbents keep arriving even though a batch shares one
  /// snapshot.  Larger batches expose more parallelism but search with
  /// staler cuts/cutoffs and so explore more nodes; 4 measured best on the
  /// Table I cases (bench_minlp_parallel sweeps this).
  int epoch_batch = 4;
  /// Warm-start every node LP from the parent's captured simplex basis
  /// (remapped by stable row keys).  Deterministic: the warm basis a node
  /// inherits depends only on the epoch structure, never on thread count.
  bool warm_start_lp = true;
  /// Cap on pooled cuts; the oldest non-root cuts age out at epoch
  /// boundaries (a deterministic point) when the pool exceeds this.
  std::size_t max_pool_cuts = 512;

  // --- Cross-solve warm starts (the online rebalancing loop) ---------------
  /// State captured by a previous solve of a structurally identical model.
  /// Borrowed; may be null.  The previous incumbent is rounded, clamped to
  /// the new root box, and completed into an initial incumbent (so the tree
  /// starts with a working cutoff); the root node inherits the previous
  /// basis/keys exactly as a child inherits its parent's.
  const WarmStart* warm_start = nullptr;
  /// Capture this solve's root basis/keys and final incumbent into
  /// MinlpResult::warm for a later warm re-solve.  Capture never changes the
  /// search; only feeding the state back does.
  bool capture_warm_start = false;
};

struct SolveStats {
  int presolve_tightenings = 0;
  long nodes_explored = 0;
  long lp_solves = 0;
  long nlp_solves = 0;
  long cuts_added = 0;
  long simplex_iterations = 0;
  long incumbent_updates = 0;
  long pruned_by_bound = 0;    ///< nodes discarded against the cutoff
  long pruned_infeasible = 0;  ///< nodes whose master LP was infeasible
  long epochs = 0;             ///< parallel-search epochs (merge points)
  long warm_lp_solves = 0;     ///< LP solves that used a warm basis
  long warm_phase1_skips = 0;  ///< warm solves whose basis reuse skipped Phase I
  long warm_simplex_iterations = 0;  ///< pivots inside warm-started solves
  long cold_simplex_iterations = 0;  ///< pivots inside cold solves
  long lp_factorizations = 0;    ///< fresh basis LUs built inside node LPs
  long lp_refactorizations = 0;  ///< eta-triggered mid-solve refactorizations
  long lp_eta_updates = 0;       ///< product-form basis updates appended
  long lp_bound_flips = 0;       ///< pivots resolved without a basis change
  long warm_incumbent_primes = 0;  ///< solves seeded from a prior incumbent
  double lp_seconds = 0.0;     ///< wall time inside master-LP solves
  double lp_factor_seconds = 0.0;  ///< LP time building LU factorizations
  double lp_update_seconds = 0.0;  ///< LP time appending eta updates
  double lp_pivot_seconds = 0.0;   ///< LP time inside the pivot loops proper
  double wall_seconds = 0.0;
  double best_bound = -lp::kInf;
};

struct MinlpResult {
  MinlpStatus status = MinlpStatus::kInfeasible;
  linalg::Vector x;        ///< best point found (empty if none)
  double objective = 0.0;  ///< objective at x
  SolveStats stats;
  /// Filled when SolverOptions::capture_warm_start: feed back as
  /// SolverOptions::warm_start on the next structurally identical solve.
  WarmStart warm;
};

/// Solve the MINLP to global optimality (for convex nonlinear constraints
/// and one-signed-curvature links).
[[nodiscard]] MinlpResult solve(const Model& model,
                                const SolverOptions& options = {});

}  // namespace hslb::minlp
