// Deterministic epoch-parallel LP/NLP-based branch-and-bound.
//
// Parallel scheme (see DESIGN.md "Parallel solve"): the search advances in
// epochs.  Each epoch pops up to SolverOptions::epoch_batch nodes from the
// heap in deterministic order, evaluates them in parallel against an
// immutable snapshot of the cut pool and the cutoff, and merges the results
// (incumbents, cuts, children, stats) back in batch order on the main
// thread.  Node evaluation is a pure function of (node, snapshot, options),
// so the incumbent, bound, and every deterministic stat are byte-identical
// across thread counts and runs; `threads` only changes wall time.
// epoch_batch == 1 reproduces the classic serial node loop exactly.
#include "hslb/minlp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "hslb/common/arena.hpp"
#include "hslb/common/error.hpp"
#include "hslb/common/timing.hpp"
#include "hslb/lp/simplex.hpp"
#include "hslb/obs/obs.hpp"
#include "hslb/minlp/presolve.hpp"
#include "hslb/minlp/relaxation.hpp"
#include "hslb/minlp/worker_pool.hpp"
#include "hslb/nlp/barrier.hpp"

namespace hslb::minlp {
namespace {

using linalg::Vector;

struct Node {
  Vector lower;
  Vector upper;
  double bound = -lp::kInf;  // inherited LP bound (valid lower bound)
  int depth = 0;
  /// Stable ID, assigned in merge order at push time (root = 0).  Ties the
  /// heap order, names the node's cuts, and is thread-count independent.
  std::uint64_t id = 0;
  /// Parent's final simplex basis + the row keys of the LP it was captured
  /// on, for warm-starting this node's first LP solve.
  lp::Basis warm;
  std::vector<std::uint64_t> warm_keys;
};

/// Per-batch-slot allocation recycling.  Node bound vectors are born when a
/// node branches and die when the child is evaluated; pooling them keeps the
/// tree walk off the heap.  One scratch per epoch slot: a slot runs at most
/// one node per epoch and epochs join before merging, so the pool needs no
/// locking even though different threads may own a slot across epochs.
struct NodeScratch {
  common::VectorPool<double> bounds;
};

/// Open-node container honoring the selection policy: a binary heap ordered
/// by (bound, id) for best-bound / by id (LIFO) for depth-first, plus a
/// multiset of open bounds so best_open_bound() is O(1) instead of the old
/// linear scan per gap report.
class NodeQueue {
 public:
  explicit NodeQueue(NodeSelection selection) : selection_(selection) {}

  /// Comparator for std::push_heap: "a has lower priority than b".
  auto lower_priority() const {
    const NodeSelection sel = selection_;
    return [sel](const Node& a, const Node& b) {
      if (sel == NodeSelection::kBestBound) {
        // Min (bound, id): older nodes win ties for reproducibility.
        return std::tie(a.bound, a.id) > std::tie(b.bound, b.id);
      }
      return a.id < b.id;  // depth-first: newest node first (LIFO)
    };
  }

  void push(Node node) {
    bounds_.insert(node.bound);
    heap_.push_back(std::move(node));
    std::push_heap(heap_.begin(), heap_.end(), lower_priority());
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  Node pop() {
    HSLB_ASSERT(!heap_.empty(), "pop from empty node queue");
    std::pop_heap(heap_.begin(), heap_.end(), lower_priority());
    Node node = std::move(heap_.back());
    heap_.pop_back();
    bounds_.erase(bounds_.find(node.bound));
    return node;
  }

  /// Remove and return the deepest open node (max (depth, id)).  Epoch
  /// batches mix these "dive" picks with the configured selection: a batch
  /// shares one immutable snapshot, so pure best-bound batches would spend
  /// every slot widening the frontier while the incumbent -- the thing that
  /// prunes the frontier -- only ever arrives at the end of a deep chain.
  /// Linear scan + re-heapify; epoch batches are small and nodes cost LPs.
  Node pop_deepest() {
    HSLB_ASSERT(!heap_.empty(), "pop from empty node queue");
    std::size_t best = 0;
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      if (std::tie(heap_[i].depth, heap_[i].id) >
          std::tie(heap_[best].depth, heap_[best].id)) {
        best = i;
      }
    }
    Node node = std::move(heap_[best]);
    heap_.erase(heap_.begin() + static_cast<std::ptrdiff_t>(best));
    std::make_heap(heap_.begin(), heap_.end(), lower_priority());
    bounds_.erase(bounds_.find(node.bound));
    return node;
  }

  /// Smallest bound among open nodes (+inf when empty).
  double best_open_bound() const {
    return bounds_.empty() ? lp::kInf : *bounds_.begin();
  }

  /// Drop nodes whose bound cannot beat the incumbent.
  void prune_above(double cutoff) {
    const std::size_t before = heap_.size();
    std::erase_if(heap_, [cutoff](const Node& n) { return n.bound >= cutoff; });
    if (heap_.size() != before) {
      std::make_heap(heap_.begin(), heap_.end(), lower_priority());
      bounds_.clear();
      for (const Node& n : heap_) {
        bounds_.insert(n.bound);
      }
    }
  }

 private:
  NodeSelection selection_;
  std::vector<Node> heap_;
  std::multiset<double> bounds_;
};

/// Geometric (log-spaced when possible) tangent seed points on [lo, hi].
std::vector<double> seed_points(double lo, double hi, int count) {
  std::vector<double> pts;
  if (!(std::isfinite(lo) && std::isfinite(hi)) || hi <= lo || count <= 0) {
    return pts;
  }
  if (count == 1) {
    pts.push_back(0.5 * (lo + hi));
    return pts;
  }
  if (lo > 0.0) {
    const double llo = std::log(lo);
    const double lhi = std::log(hi);
    for (int i = 0; i < count; ++i) {
      pts.push_back(std::exp(llo + (lhi - llo) * i / (count - 1)));
    }
  } else {
    for (int i = 0; i < count; ++i) {
      pts.push_back(lo + (hi - lo) * i / (count - 1));
    }
  }
  return pts;
}

/// Solve the one-sided continuous NLP relaxation to seed linearizations.
/// Requires every link to carry a symbolic form.
///
/// The NLP is built over the *non-binary* variables only: the SOS selection
/// binaries (and the rows tying them) are pure integer bookkeeping, and
/// dropping them yields a looser but valid continuous relaxation with a
/// nonempty strict interior -- and a Hessian whose size does not scale with
/// the allocation-set cardinality.  Returns a full-space point (binaries 0).
std::optional<Vector> solve_root_nlp(const Model& model, SolveStats& stats) {
  for (const UnivariateLink& link : model.links()) {
    if (!link.fn.as_expr) {
      return std::nullopt;
    }
  }
  const std::size_t n_full = model.num_vars();

  // Compact index map over non-binary variables.
  constexpr std::size_t kUnmapped = static_cast<std::size_t>(-1);
  std::vector<std::size_t> to_compact(n_full, kUnmapped);
  std::vector<std::size_t> to_full;
  for (std::size_t j = 0; j < n_full; ++j) {
    if (model.variables()[j].type != VarType::kBinary) {
      to_compact[j] = to_full.size();
      to_full.push_back(j);
    }
  }
  const auto cvar = [&](std::size_t full_index) {
    return expr::variable(to_compact[full_index],
                          model.variables()[full_index].name);
  };

  nlp::NlpProblem relax;
  relax.num_vars = to_full.size();
  relax.lower.resize(relax.num_vars);
  relax.upper.resize(relax.num_vars);
  for (std::size_t k = 0; k < to_full.size(); ++k) {
    relax.lower[k] = model.variables()[to_full[k]].lower;
    relax.upper[k] = model.variables()[to_full[k]].upper;
  }

  expr::Expr obj = expr::constant(model.objective_offset());
  for (std::size_t j = 0; j < n_full; ++j) {
    if (model.objective_coeffs()[j] != 0.0) {
      if (to_compact[j] == kUnmapped) {
        return std::nullopt;  // objective on a binary: cannot drop it
      }
      obj += model.objective_coeffs()[j] * cvar(j);
    }
  }
  relax.objective = obj;

  for (const LinearConstraint& c : model.linear_constraints()) {
    bool touches_binary = false;
    for (const auto& [v, coef] : c.terms) {
      (void)coef;
      if (to_compact[v] == kUnmapped) {
        touches_binary = true;
        break;
      }
    }
    if (touches_binary) {
      continue;
    }
    expr::Expr row = expr::constant(0.0);
    for (const auto& [v, coef] : c.terms) {
      row += coef * cvar(v);
    }
    // Widen equality rows by a hair so a strict interior exists.
    const double slack =
        c.lower == c.upper ? 1e-6 * (1.0 + std::fabs(c.upper)) : 0.0;
    if (std::isfinite(c.upper)) {
      relax.constraints.push_back(row - (c.upper + slack));
    }
    if (std::isfinite(c.lower)) {
      relax.constraints.push_back((c.lower - slack) - row);
    }
  }
  for (const UnivariateLink& link : model.links()) {
    // One-sided: fn(n) - t <= 0 (the binding direction for min-time models).
    relax.constraints.push_back(link.fn.as_expr(cvar(link.n_var)) -
                                cvar(link.t_var));
  }
  for (const NonlinearConstraint& c : model.nonlinear_constraints()) {
    bool touches_binary = false;
    for (const std::size_t v : expr::variables_of(c.g)) {
      if (to_compact[v] == kUnmapped) {
        touches_binary = true;
        break;
      }
    }
    if (touches_binary) {
      continue;
    }
    relax.constraints.push_back(
        expr::remap_variables(c.g, to_compact) - c.upper);
  }

  nlp::BarrierOptions nlp_opts;
  nlp_opts.gap_tol = 1e-7;  // a rough center suffices for cut seeding
  const nlp::NlpResult r = nlp::solve_barrier(relax, std::nullopt, nlp_opts);
  ++stats.nlp_solves;
  if (r.status != nlp::NlpStatus::kOptimal) {
    return std::nullopt;
  }
  Vector full(n_full, 0.0);
  for (std::size_t k = 0; k < to_full.size(); ++k) {
    full[to_full[k]] = r.x[k];
  }
  return full;
}

struct Fractionality {
  std::ptrdiff_t var = -1;
  double frac = 0.0;  // distance to nearest integer
};

Fractionality most_fractional(const Model& model, const Vector& x,
                              double tol) {
  Fractionality out;
  for (std::size_t j = 0; j < model.num_vars(); ++j) {
    if (model.variables()[j].type == VarType::kContinuous) {
      continue;
    }
    const double f = std::fabs(x[j] - std::round(x[j]));
    if (f > tol && f > out.frac) {
      out.frac = f;
      out.var = static_cast<std::ptrdiff_t>(j);
    }
  }
  return out;
}

/// First SOS1 set with two or more members above tolerance.
std::ptrdiff_t violated_sos(const Model& model, const Vector& x, double tol) {
  for (std::size_t s = 0; s < model.sos1_sets().size(); ++s) {
    int nonzero = 0;
    for (const std::size_t v : model.sos1_sets()[s].vars) {
      if (x[v] > tol) {
        ++nonzero;
      }
    }
    if (nonzero >= 2) {
      return static_cast<std::ptrdiff_t>(s);
    }
  }
  return -1;
}

/// Cached per-solve metrics instruments (null when no registry installed).
struct SolveMetrics {
  obs::Counter* nodes = nullptr;
  obs::Counter* lp_solves = nullptr;
  obs::Counter* cuts = nullptr;
  obs::Counter* incumbents = nullptr;
  obs::Counter* pruned_bound = nullptr;
  obs::Counter* pruned_infeasible = nullptr;
  obs::Counter* lp_seconds = nullptr;
  obs::Counter* epochs = nullptr;
  obs::Counter* warm_lp_solves = nullptr;
  obs::Counter* warm_phase1_skips = nullptr;
  obs::Counter* warm_iterations = nullptr;
  obs::Counter* cold_iterations = nullptr;
  obs::Counter* lp_factorizations = nullptr;
  obs::Counter* lp_refactorizations = nullptr;
  obs::Counter* lp_eta_updates = nullptr;
  obs::Counter* lp_bound_flips = nullptr;
  obs::Counter* lp_factor_seconds = nullptr;
  obs::Counter* lp_update_seconds = nullptr;
  obs::Counter* lp_pivot_seconds = nullptr;
  obs::Histogram* lp_solve_ms = nullptr;
  obs::Histogram* lp_solve_ms_warm = nullptr;
  obs::Histogram* lp_solve_ms_cold = nullptr;
  obs::Histogram* epoch_batch = nullptr;
  obs::Histogram* epoch_ms = nullptr;

  explicit SolveMetrics(obs::Registry* registry) {
    if (registry == nullptr) {
      return;
    }
    nodes = &registry->counter("minlp.nodes_explored");
    lp_solves = &registry->counter("minlp.lp_solves");
    cuts = &registry->counter("minlp.cuts_added");
    incumbents = &registry->counter("minlp.incumbent_updates");
    pruned_bound = &registry->counter("minlp.pruned.bound");
    pruned_infeasible = &registry->counter("minlp.pruned.infeasible");
    lp_seconds = &registry->counter("minlp.lp_seconds");
    epochs = &registry->counter("minlp.epochs");
    warm_lp_solves = &registry->counter("minlp.lp_solves.warm");
    warm_phase1_skips = &registry->counter("minlp.lp_solves.warm_phase1_skip");
    warm_iterations = &registry->counter("minlp.simplex_iterations.warm");
    cold_iterations = &registry->counter("minlp.simplex_iterations.cold");
    lp_factorizations = &registry->counter("minlp.lp.factorizations");
    lp_refactorizations = &registry->counter("minlp.lp.refactorizations");
    lp_eta_updates = &registry->counter("minlp.lp.eta_updates");
    lp_bound_flips = &registry->counter("minlp.lp.bound_flips");
    // Registered but never incremented: perfbench's traced run fails when
    // a counter behind one of its layers is missing.
    (void)registry->counter("minlp.lp.factor_inherits");
    lp_factor_seconds = &registry->counter("minlp.lp.factor_seconds");
    lp_update_seconds = &registry->counter("minlp.lp.update_seconds");
    lp_pivot_seconds = &registry->counter("minlp.lp.pivot_seconds");
    lp_solve_ms = &registry->histogram("minlp.lp_solve_ms");
    lp_solve_ms_warm = &registry->histogram(
        "minlp.lp_solve_ms.warm", obs::Registry::hdr_time_bounds());
    lp_solve_ms_cold = &registry->histogram(
        "minlp.lp_solve_ms.cold", obs::Registry::hdr_time_bounds());
    epoch_batch = &registry->histogram("minlp.epoch_batch");
    epoch_ms = &registry->histogram("minlp.epoch.ms",
                                    obs::Registry::hdr_time_bounds());
  }
};

/// Everything one node evaluation produces, merged on the main thread in
/// batch order.  Filling this is a pure function of (node, pool snapshot,
/// cutoff snapshot, options) -- no shared mutable state -- which is what
/// makes the parallel search deterministic.
struct NodeResult {
  bool pruned_by_bound = false;
  bool pruned_infeasible = false;
  bool unbounded = false;
  double bound = -lp::kInf;
  std::uint64_t node_id = 0;
  /// Root-only (SolverOptions::capture_warm_start): the node's final basis
  /// and row keys, exported for cross-solve warm starts.
  lp::Basis final_basis;
  std::vector<std::uint64_t> final_keys;
  std::vector<Node> children;  // ids assigned at merge time
  CutPool cuts;                // worker-local cuts, deterministic ids
  std::optional<Completion> completion;
  long lp_solves = 0;
  long simplex_iterations = 0;
  long warm_lp_solves = 0;
  long warm_phase1_skips = 0;
  long warm_simplex_iterations = 0;
  long cold_simplex_iterations = 0;
  long lp_factorizations = 0;
  long lp_refactorizations = 0;
  long lp_eta_updates = 0;
  long lp_bound_flips = 0;
  double lp_seconds = 0.0;
  double lp_factor_seconds = 0.0;
  double lp_update_seconds = 0.0;
  double lp_pivot_seconds = 0.0;
  std::vector<double> lp_solve_ms;  // per-LP wall times (metrics only)
  std::vector<std::uint8_t> lp_solve_warm;  // parallel to lp_solve_ms
};

/// Evaluate one node against the epoch snapshot: cut rounds on the master
/// LP, branching, and incumbent-candidate completion.  Reads the shared cut
/// pool and the model, writes only its own NodeResult.
NodeResult process_node(const Model& model, const SolverOptions& opts,
                        const std::vector<Curvature>& curvature,
                        const CutPool& pool, double cutoff_snapshot,
                        Node node, NodeScratch& scratch) {
  NodeResult r;
  r.node_id = node.id;
  if (node.bound >= cutoff_snapshot) {
    r.pruned_by_bound = true;
    scratch.bounds.release(std::move(node.lower));
    scratch.bounds.release(std::move(node.upper));
    return r;
  }

  std::uint64_t cut_seq = 0;
  const std::uint64_t cut_base = (node.id + 1) << 16;
  lp::Basis warm = std::move(node.warm);
  std::vector<std::uint64_t> warm_keys = std::move(node.warm_keys);
  lp::SimplexOptions lp_opts;
  lp_opts.capture_basis = opts.warm_start_lp;
  std::vector<std::uint64_t> keys;

  const auto inherit = [&](Node&& child) {
    child.depth = node.depth + 1;
    if (opts.warm_start_lp) {
      child.warm = warm;
      child.warm_keys = warm_keys;
    }
    r.children.push_back(std::move(child));
  };
  /// Children copy the node's box through the slot pool so the tree walk
  /// recycles bound vectors instead of allocating two per branch.
  const auto clone_box = [&]() {
    Node child;
    child.lower = scratch.bounds.acquire_copy(node.lower);
    child.upper = scratch.bounds.acquire_copy(node.upper);
    child.bound = node.bound;
    return child;
  };

  for (int round = 0; round <= opts.cut_rounds_per_node; ++round) {
    const lp::LpProblem master =
        build_master_lp(model, pool, curvature, node.lower, node.upper,
                        &r.cuts, opts.warm_start_lp ? &keys : nullptr);
    common::WallTimer lp_timer;
    lp::LpSolution sol;
    if (opts.warm_start_lp && !warm.empty()) {
      sol = lp::resolve_from_basis(
          master, lp::map_basis(warm, warm_keys, keys), lp_opts);
    } else {
      sol = lp::solve(master, lp_opts);
    }
    const double lp_elapsed = lp_timer.seconds();
    r.lp_seconds += lp_elapsed;
    r.lp_solve_ms.push_back(lp_elapsed * 1e3);
    r.lp_solve_warm.push_back(sol.warm_used ? 1 : 0);
    ++r.lp_solves;
    r.simplex_iterations += sol.iterations;
    if (sol.warm_used) {
      ++r.warm_lp_solves;
      r.warm_simplex_iterations += sol.iterations;
      if (sol.warm_phase1_skipped) {
        ++r.warm_phase1_skips;
      }
    } else {
      r.cold_simplex_iterations += sol.iterations;
    }
    r.lp_factorizations += sol.factorizations;
    r.lp_refactorizations += sol.refactorizations;
    r.lp_eta_updates += sol.eta_updates;
    r.lp_bound_flips += sol.bound_flips;
    r.lp_factor_seconds += sol.factor_seconds;
    r.lp_update_seconds += sol.update_seconds;
    r.lp_pivot_seconds += sol.pivot_seconds;

    if (sol.status == lp::LpStatus::kInfeasible) {
      r.pruned_infeasible = true;
      break;
    }
    if (sol.status == lp::LpStatus::kUnbounded) {
      r.unbounded = true;
      break;
    }
    HSLB_ASSERT(sol.status == lp::LpStatus::kOptimal,
                "unexpected LP status in branch-and-bound");
    if (opts.warm_start_lp && !sol.basis.empty()) {
      warm = sol.basis;
      warm_keys = keys;
    }
    node.bound = std::max(node.bound, sol.objective);
    if (node.bound >= cutoff_snapshot) {
      break;
    }

    // Branch on SOS violation first (when enabled).
    if (opts.use_sos_branching) {
      const std::ptrdiff_t s = violated_sos(model, sol.x, opts.integer_tol);
      if (s >= 0) {
        const Sos1Set& set = model.sos1_sets()[static_cast<std::size_t>(s)];
        double position = 0.0;
        for (std::size_t k = 0; k < set.vars.size(); ++k) {
          position += set.weights[k] * sol.x[set.vars[k]];
        }
        // Partition members by weight around the weighted position.
        std::vector<std::size_t> left;
        std::vector<std::size_t> right;
        for (std::size_t k = 0; k < set.vars.size(); ++k) {
          (set.weights[k] <= position ? left : right).push_back(set.vars[k]);
        }
        if (left.empty() || right.empty()) {
          // Degenerate partition; split at the median member instead.
          left.clear();
          right.clear();
          for (std::size_t k = 0; k < set.vars.size(); ++k) {
            (k < set.vars.size() / 2 ? left : right).push_back(set.vars[k]);
          }
        }
        Node child_a = clone_box();  // zero out the right part
        Node child_b = clone_box();  // zero out the left part
        for (const std::size_t v : right) {
          child_a.upper[v] = 0.0;
        }
        for (const std::size_t v : left) {
          child_b.upper[v] = 0.0;
        }
        inherit(std::move(child_a));
        inherit(std::move(child_b));
        break;
      }
    }

    // Then on fractional integer variables.
    const Fractionality frac = most_fractional(model, sol.x, opts.integer_tol);
    if (frac.var >= 0) {
      const auto j = static_cast<std::size_t>(frac.var);
      Node down = clone_box();
      Node up = clone_box();
      down.upper[j] = std::floor(sol.x[j]);
      up.lower[j] = std::ceil(sol.x[j]);
      if (down.lower[j] <= down.upper[j]) {
        inherit(std::move(down));
      }
      if (up.lower[j] <= up.upper[j]) {
        inherit(std::move(up));
      }
      break;
    }

    // Integral (and SOS-feasible) master solution: lazily tighten the
    // linearization where the true nonlinearities are violated.
    bool added_cut = false;
    for (std::size_t ci = 0; ci < model.nonlinear_constraints().size(); ++ci) {
      const NonlinearConstraint& c = model.nonlinear_constraints()[ci];
      const double g = expr::eval(c.g, sol.x);
      if (g > c.upper + 1e-7 * std::max(1.0, std::fabs(c.upper))) {
        r.cuts.add_nonlinear_cut(model, ci, sol.x, cut_base | cut_seq);
        ++cut_seq;
        added_cut = true;
      }
    }
    for (std::size_t li = 0; li < model.links().size(); ++li) {
      const UnivariateLink& link = model.links()[li];
      const double t = sol.x[link.t_var];
      const double f = link.fn.value(sol.x[link.n_var]);
      const double tol = 1e-7 * std::max(1.0, std::fabs(f));
      const bool below = t < f - tol;
      const bool above = t > f + tol;
      if ((curvature[li] == Curvature::kConvex && below) ||
          (curvature[li] == Curvature::kConcave && above)) {
        if (!pool.has_link_tangent(li, sol.x[link.n_var]) &&
            r.cuts.add_link_tangent(model, curvature, li, sol.x[link.n_var],
                                    cut_base | cut_seq)) {
          ++cut_seq;
          added_cut = true;
        }
      }
    }
    if (added_cut && round < opts.cut_rounds_per_node) {
      continue;  // re-solve this node against the tightened master
    }

    // Candidate: complete the integer point to a true feasible solution.
    r.completion = complete_integer_point(
        model, pool, curvature, sol.x, node.lower, node.upper, &r.cuts,
        opts.warm_start_lp ? &warm : nullptr, warm_keys);
    ++r.lp_solves;

    const double gap_here =
        r.completion ? r.completion->objective - node.bound : lp::kInf;
    if (r.completion &&
        gap_here <= std::max(1e-9, opts.rel_gap *
                                       std::fabs(r.completion->objective))) {
      break;  // node solved exactly
    }

    // The relaxation still under-estimates this node (chord gap on the
    // "t <= fn" side, or the completion is infeasible).  Branch spatially
    // on the link variable with the largest chord error.
    std::ptrdiff_t branch_var = -1;
    double worst_err = 1e-7;
    for (const UnivariateLink& link : model.links()) {
      const double width = node.upper[link.n_var] - node.lower[link.n_var];
      if (width < 1.0) {
        continue;
      }
      const double err =
          std::fabs(sol.x[link.t_var] - link.fn.value(sol.x[link.n_var]));
      if (err > worst_err) {
        worst_err = err;
        branch_var = static_cast<std::ptrdiff_t>(link.n_var);
      }
    }
    if (branch_var < 0) {
      // No refinable link interval left: pick any unfixed integer so the
      // children eventually close every interval.
      for (const UnivariateLink& link : model.links()) {
        if (node.upper[link.n_var] - node.lower[link.n_var] >= 1.0) {
          branch_var = static_cast<std::ptrdiff_t>(link.n_var);
          break;
        }
      }
    }
    if (branch_var < 0) {
      break;  // node fully resolved; nothing better inside
    }
    const auto j = static_cast<std::size_t>(branch_var);
    const double split =
        std::clamp(std::round(sol.x[j]), node.lower[j], node.upper[j] - 1.0);
    Node left = clone_box();
    Node right = clone_box();
    left.upper[j] = split;
    right.lower[j] = split + 1.0;
    inherit(std::move(left));
    inherit(std::move(right));
    break;
  }

  r.bound = node.bound;
  if (opts.capture_warm_start && node.id == 0) {
    r.final_basis = std::move(warm);
    r.final_keys = std::move(warm_keys);
  }
  scratch.bounds.release(std::move(node.lower));
  scratch.bounds.release(std::move(node.upper));
  return r;
}

}  // namespace

const char* to_string(MinlpStatus status) {
  switch (status) {
    case MinlpStatus::kOptimal:
      return "optimal";
    case MinlpStatus::kInfeasible:
      return "infeasible";
    case MinlpStatus::kNodeLimit:
      return "node-limit";
    case MinlpStatus::kTimeLimit:
      return "time-limit";
    case MinlpStatus::kUnbounded:
      return "unbounded";
  }
  return "unknown";
}

MinlpResult solve(const Model& model, const SolverOptions& opts) {
  common::WallTimer timer;
  HSLB_SPAN("minlp.solve");
  const SolveMetrics metrics(obs::current_metrics());
  MinlpResult out;
  SolveStats& stats = out.stats;
  const bool want_events = static_cast<bool>(opts.event_sink);

  const std::size_t n = model.num_vars();
  HSLB_REQUIRE(n > 0, "cannot solve an empty model");

  const std::vector<Curvature> curvature = resolve_curvatures(model);

  // --- Presolve: FBBT bound tightening. --------------------------------------
  Vector root_lower(n);
  Vector root_upper(n);
  for (std::size_t j = 0; j < n; ++j) {
    root_lower[j] = model.variables()[j].lower;
    root_upper[j] = model.variables()[j].upper;
  }
  if (opts.use_presolve) {
    HSLB_SPAN("minlp.presolve");
    const PresolveResult pre = presolve(model);
    if (pre.infeasible) {
      out.status = MinlpStatus::kInfeasible;
      out.stats.wall_seconds = timer.seconds();
      return out;
    }
    root_lower = pre.lower;
    root_upper = pre.upper;
    stats.presolve_tightenings = pre.tightenings;
    if (want_events) {
      SolverEvent event;
      event.kind = SolverEvent::Kind::kPresolve;
      event.presolve_tightenings = pre.tightenings;
      event.presolve_rounds = pre.rounds;
      opts.event_sink(event);
    }
  }

  // --- Seed the cut pool (root cuts: ids below 1<<16, never aged out). ------
  CutPool pool;
  std::uint64_t root_cut_seq = 0;
  for (std::size_t li = 0; li < model.links().size(); ++li) {
    const UnivariateLink& link = model.links()[li];
    for (const double p :
         seed_points(root_lower[link.n_var], root_upper[link.n_var],
                     opts.initial_tangents_per_link)) {
      if (pool.add_link_tangent(model, curvature, li, p, root_cut_seq)) {
        ++root_cut_seq;
        ++stats.cuts_added;
      }
    }
  }
  if (opts.use_root_nlp) {
    HSLB_SPAN("minlp.root_nlp");
    if (const auto x_nlp = solve_root_nlp(model, stats)) {
      for (std::size_t li = 0; li < model.links().size(); ++li) {
        if (pool.add_link_tangent(model, curvature, li,
                                  (*x_nlp)[model.links()[li].n_var],
                                  root_cut_seq)) {
          ++root_cut_seq;
          ++stats.cuts_added;
        }
      }
      for (std::size_t ci = 0; ci < model.nonlinear_constraints().size();
           ++ci) {
        pool.add_nonlinear_cut(model, ci, *x_nlp, root_cut_seq);
        ++root_cut_seq;
        ++stats.cuts_added;
      }
    }
  }

  // --- Branch and bound (epoch-parallel; see file comment). ------------------
  Node root;
  root.lower = root_lower;
  root.upper = root_upper;
  root.id = 0;
  if (opts.warm_start != nullptr && opts.warm_start_lp) {
    // The root inherits the previous solve's basis and keys exactly as a
    // child inherits its parent's: map_basis bridges moved rows.
    root.warm = opts.warm_start->root_basis;
    root.warm_keys = opts.warm_start->root_keys;
  }
  std::uint64_t next_node_id = 1;

  NodeQueue queue(opts.node_selection);
  queue.push(std::move(root));

  bool have_incumbent = false;
  double incumbent_obj = lp::kInf;
  Vector incumbent_x;
  bool hit_node_limit = false;
  bool hit_time_limit = false;

  // Prime the incumbent from the previous solve's best point: round the
  // integers, clamp into the (possibly re-tightened) root box, and complete
  // against the new model.  A drifted model usually moves the optimum only a
  // little, so the completed point gives the tree a working cutoff from node
  // one; when the old point went infeasible the completion fails and the
  // search starts unprimed, exactly as before.
  if (opts.warm_start != nullptr && opts.warm_start->incumbent.size() == n) {
    Vector primed = opts.warm_start->incumbent;
    for (std::size_t j = 0; j < n; ++j) {
      if (model.variables()[j].type != VarType::kContinuous) {
        primed[j] = std::round(primed[j]);
      }
      primed[j] = std::clamp(primed[j], root_lower[j], root_upper[j]);
    }
    if (const auto completion = complete_integer_point(
            model, pool, curvature, primed, root_lower, root_upper)) {
      ++stats.lp_solves;
      incumbent_obj = completion->objective;
      incumbent_x = completion->x;
      have_incumbent = true;
      ++stats.incumbent_updates;
      ++stats.warm_incumbent_primes;
      HSLB_COUNT("minlp.warm_incumbent_primes", 1);
    }
  }

  const auto cutoff = [&]() {
    if (!have_incumbent) {
      return lp::kInf;
    }
    const double gap = std::max(1e-9, opts.rel_gap * std::fabs(incumbent_obj));
    return incumbent_obj - gap;
  };

  const int requested_threads =
      opts.threads > 0 ? opts.threads
                       : static_cast<int>(std::thread::hardware_concurrency());
  const int num_threads = std::max(1, requested_threads);
  const std::size_t epoch_batch =
      static_cast<std::size_t>(std::max(1, opts.epoch_batch));
  std::optional<WorkerPool> workers;
  if (num_threads > 1) {
    workers.emplace(num_threads);
  }

  std::vector<Node> batch;
  std::vector<NodeResult> results;
  // One allocation-recycling scratch per epoch slot, living across epochs.
  // Slot i is evaluated by exactly one worker per epoch and epochs join
  // before the merge, so the pools need no synchronization.
  std::vector<NodeScratch> scratch(epoch_batch);
  while (!queue.empty()) {
    if (stats.nodes_explored >= opts.max_nodes) {
      hit_node_limit = true;
      break;
    }
    if (opts.max_wall_seconds > 0.0 &&
        timer.seconds() >= opts.max_wall_seconds) {
      hit_time_limit = true;
      HSLB_COUNT("minlp.budget_exhausted", 1);
      break;
    }

    // Pop this epoch's batch in deterministic heap order.  The batch size
    // depends only on queue size and node budget, never on thread count.
    const std::size_t batch_size = std::min(
        {epoch_batch, queue.size(),
         static_cast<std::size_t>(opts.max_nodes - stats.nodes_explored)});
    batch.clear();
    // Half the batch follows the configured selection (advancing the bound),
    // half dives to the deepest open nodes (hunting the incumbent whose
    // cutoff prunes the frontier).  Pure best-bound batches were measured to
    // inflate the tree several-fold: the incumbent sits at the end of a deep
    // chain that advances only one node per epoch while every other slot
    // widens the frontier against a stale +inf cutoff.
    const std::size_t bound_picks = (batch_size + 1) / 2;
    for (std::size_t i = 0; i < batch_size; ++i) {
      batch.push_back(i < bound_picks ? queue.pop() : queue.pop_deepest());
    }
    const double cutoff_snapshot = cutoff();
    results.assign(batch_size, NodeResult{});
    // One span per epoch, tagged with the batch's LP work so the request
    // telemetry analyzer can split a request's solve phase into LP re-solve
    // time vs branching/merge time (it nests under svc.phase.solve via the
    // propagated parent span when running inside the allocation service).
    obs::ScopedSpan epoch_span("minlp.epoch", "minlp");
    common::WallTimer epoch_timer;
    const auto evaluate = [&](std::size_t i) {
      results[i] = process_node(model, opts, curvature, pool, cutoff_snapshot,
                                std::move(batch[i]), scratch[i]);
    };
    if (workers && batch_size > 1) {
      workers->run(batch_size, evaluate);
    } else {
      for (std::size_t i = 0; i < batch_size; ++i) {
        evaluate(i);
      }
    }
    ++stats.epochs;
    if (metrics.epochs != nullptr) {
      metrics.epochs->add(1.0);
      metrics.epoch_batch->observe(static_cast<double>(batch_size));
    }
    if (epoch_span.active()) {
      double epoch_lp_ms = 0.0;
      double epoch_factor_ms = 0.0;
      double epoch_update_ms = 0.0;
      double epoch_pivot_ms = 0.0;
      long long epoch_lp_solves = 0;
      long long epoch_warm = 0;
      long long epoch_etas = 0;
      long long epoch_refactor = 0;
      for (const NodeResult& r : results) {
        epoch_lp_ms += r.lp_seconds * 1e3;
        epoch_factor_ms += r.lp_factor_seconds * 1e3;
        epoch_update_ms += r.lp_update_seconds * 1e3;
        epoch_pivot_ms += r.lp_pivot_seconds * 1e3;
        epoch_lp_solves += r.lp_solves;
        epoch_warm += r.warm_lp_solves;
        epoch_etas += r.lp_eta_updates;
        epoch_refactor += r.lp_refactorizations;
      }
      epoch_span.arg("batch", static_cast<long long>(batch_size));
      epoch_span.arg("lp_ms", epoch_lp_ms);
      epoch_span.arg("lp_solves", epoch_lp_solves);
      epoch_span.arg("warm", epoch_warm);
      epoch_span.arg("factor_ms", epoch_factor_ms);
      epoch_span.arg("update_ms", epoch_update_ms);
      epoch_span.arg("pivot_ms", epoch_pivot_ms);
      epoch_span.arg("eta_updates", epoch_etas);
      epoch_span.arg("refactorizations", epoch_refactor);
    }

    // Merge in batch order -- the deterministic serialization point.
    for (std::size_t i = 0; i < batch_size; ++i) {
      NodeResult& r = results[i];
      ++stats.nodes_explored;
      if (metrics.nodes != nullptr) {
        metrics.nodes->add(1.0);
        if (metrics.lp_solves != nullptr && r.lp_solves > 0) {
          metrics.lp_solves->add(static_cast<double>(r.lp_solves));
          metrics.lp_seconds->add(r.lp_seconds);
          for (std::size_t k = 0; k < r.lp_solve_ms.size(); ++k) {
            metrics.lp_solve_ms->observe(r.lp_solve_ms[k]);
            (k < r.lp_solve_warm.size() && r.lp_solve_warm[k] != 0
                 ? metrics.lp_solve_ms_warm
                 : metrics.lp_solve_ms_cold)
                ->observe(r.lp_solve_ms[k]);
          }
        }
        metrics.warm_lp_solves->add(static_cast<double>(r.warm_lp_solves));
        metrics.warm_phase1_skips->add(
            static_cast<double>(r.warm_phase1_skips));
        metrics.warm_iterations->add(
            static_cast<double>(r.warm_simplex_iterations));
        metrics.cold_iterations->add(
            static_cast<double>(r.cold_simplex_iterations));
        metrics.lp_factorizations->add(
            static_cast<double>(r.lp_factorizations));
        metrics.lp_refactorizations->add(
            static_cast<double>(r.lp_refactorizations));
        metrics.lp_eta_updates->add(static_cast<double>(r.lp_eta_updates));
        metrics.lp_bound_flips->add(static_cast<double>(r.lp_bound_flips));
        metrics.lp_factor_seconds->add(r.lp_factor_seconds);
        metrics.lp_update_seconds->add(r.lp_update_seconds);
        metrics.lp_pivot_seconds->add(r.lp_pivot_seconds);
      }
      stats.lp_solves += r.lp_solves;
      stats.simplex_iterations += r.simplex_iterations;
      stats.warm_lp_solves += r.warm_lp_solves;
      stats.warm_phase1_skips += r.warm_phase1_skips;
      stats.warm_simplex_iterations += r.warm_simplex_iterations;
      stats.cold_simplex_iterations += r.cold_simplex_iterations;
      stats.lp_factorizations += r.lp_factorizations;
      stats.lp_refactorizations += r.lp_refactorizations;
      stats.lp_eta_updates += r.lp_eta_updates;
      stats.lp_bound_flips += r.lp_bound_flips;
      stats.lp_seconds += r.lp_seconds;
      stats.lp_factor_seconds += r.lp_factor_seconds;
      stats.lp_update_seconds += r.lp_update_seconds;
      stats.lp_pivot_seconds += r.lp_pivot_seconds;
      if (opts.capture_warm_start && r.node_id == 0) {
        out.warm.root_basis = std::move(r.final_basis);
        out.warm.root_keys = std::move(r.final_keys);
      }
      if (want_events && opts.log_every_nodes > 0 &&
          (stats.nodes_explored == 1 ||
           stats.nodes_explored % opts.log_every_nodes == 0)) {
        SolverEvent event;
        event.kind = SolverEvent::Kind::kProgress;
        event.node = stats.nodes_explored;
        event.open_nodes = queue.size();
        event.have_incumbent = have_incumbent;
        event.incumbent = incumbent_obj;
        opts.event_sink(event);
      }
      if (r.unbounded) {
        out.status = MinlpStatus::kUnbounded;
        out.stats.wall_seconds = timer.seconds();
        return out;
      }
      if (r.pruned_by_bound) {
        ++stats.pruned_by_bound;
        if (metrics.pruned_bound != nullptr) {
          metrics.pruned_bound->add(1.0);
        }
        continue;
      }
      stats.cuts_added += static_cast<long>(pool.absorb(r.cuts));
      if (r.pruned_infeasible) {
        ++stats.pruned_infeasible;
        if (metrics.pruned_infeasible != nullptr) {
          metrics.pruned_infeasible->add(1.0);
        }
        continue;
      }
      if (r.completion && r.completion->objective < incumbent_obj) {
        incumbent_obj = r.completion->objective;
        incumbent_x = r.completion->x;
        have_incumbent = true;
        ++stats.incumbent_updates;
        if (metrics.incumbents != nullptr) {
          metrics.incumbents->add(1.0);
        }
        queue.prune_above(cutoff());
        if (want_events) {
          SolverEvent event;
          event.kind = SolverEvent::Kind::kIncumbent;
          event.node = stats.nodes_explored;
          event.open_nodes = queue.size();
          event.have_incumbent = true;
          event.incumbent = incumbent_obj;
          opts.event_sink(event);
        }
      }
      for (Node& child : r.children) {
        child.id = next_node_id++;
        queue.push(std::move(child));
      }
    }
    if (metrics.epoch_ms != nullptr) {
      metrics.epoch_ms->observe(epoch_timer.milliseconds());
    }
    pool.age_to(opts.max_pool_cuts);
  }

  stats.wall_seconds = timer.seconds();
  stats.best_bound = queue.empty() ? incumbent_obj
                                   : std::min(queue.best_open_bound(),
                                              incumbent_obj);
  if (want_events) {
    SolverEvent event;
    event.kind = SolverEvent::Kind::kDone;
    event.node = stats.nodes_explored;
    event.open_nodes = queue.size();
    event.have_incumbent = have_incumbent;
    event.incumbent = incumbent_obj;
    event.best_bound = stats.best_bound;
    event.lp_solves = stats.lp_solves;
    event.cuts_added = stats.cuts_added;
    opts.event_sink(event);
  }
  if (metrics.cuts != nullptr) {
    metrics.cuts->add(static_cast<double>(stats.cuts_added));
    if (stats.wall_seconds > 0.0) {
      obs::Registry* registry = obs::current_metrics();
      registry->gauge("minlp.nodes_per_sec")
          .set(static_cast<double>(stats.nodes_explored) / stats.wall_seconds);
      if (workers) {
        const std::vector<long>& per_worker = workers->items_per_worker();
        for (std::size_t w = 0; w < per_worker.size(); ++w) {
          registry->gauge("minlp.worker." + std::to_string(w) + ".nodes")
              .set(static_cast<double>(per_worker[w]));
        }
      }
    }
  }
  const auto limited_status = [&] {
    if (hit_time_limit) {
      return MinlpStatus::kTimeLimit;
    }
    return hit_node_limit ? MinlpStatus::kNodeLimit : MinlpStatus::kOptimal;
  };
  if (have_incumbent) {
    out.status = limited_status();
    out.x = std::move(incumbent_x);
    out.objective = incumbent_obj;
  } else {
    out.status = hit_time_limit || hit_node_limit ? limited_status()
                                                  : MinlpStatus::kInfeasible;
  }
  if (opts.capture_warm_start && have_incumbent) {
    out.warm.incumbent = out.x;
  }
  return out;
}

}  // namespace hslb::minlp
