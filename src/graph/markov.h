// First-passage quantities of the random walk: hitting time (Eq. 5),
// absorbing time (Eq. 6) and absorbing cost (Eq. 8), each in two flavours:
//
//  * Exact      — solves the first-step linear system with Gauss–Seidel to a
//                 tight tolerance (tests/ablation; O(n³)-ish worst case but
//                 fast in practice on sparse walks).
//  * Truncated  — Algorithm 1's dynamic program iterated τ times from 0.
//                 Values increase monotonically toward the exact fixed point;
//                 only the induced *ranking* is consumed by recommenders.
//
// Both operate on a generalized recurrence
//     V(i) = 0                          if absorbing[i]
//     V(i) = node_cost(i) + Σ_j p_ij V(j)   otherwise,
// which specializes to absorbing time with node_cost ≡ 1 and to the
// entropy-biased absorbing cost of Eq. 9 with
//     node_cost(item i) = Σ_j p_ij E(user j),   node_cost(user) = C.
#ifndef LONGTAIL_GRAPH_MARKOV_H_
#define LONGTAIL_GRAPH_MARKOV_H_

#include <vector>

#include "graph/bipartite_graph.h"
#include "linalg/solvers.h"
#include "util/status.h"

namespace longtail {

class WalkKernel;

/// Truncated DP (Algorithm 1 step 4): τ sweeps of
/// V_{t+1}(i) = node_cost(i) + Σ_j p_ij V_t(j), V_0 ≡ 0, absorbing pinned
/// at 0. Nodes unreachable from the absorbing set grow ~ τ·cost and thus
/// rank last, which is the desired behaviour. `absorbing` and `node_cost`
/// are node-indexed over `g` (size num_nodes); `node_cost[i]` is the cost
/// paid per step leaving i — unit cost yields absorbing *time* in expected
/// steps, the Eq. 9 entropy costs yield absorbing *cost*. `iterations <= 0`
/// returns all zeros. Every flavour below runs on the WalkKernel
/// (see graph/walk_kernel.h); agreement with the retained reference loop
/// is ~1e-13 relative per iteration, enforced by tests/walk_kernel_test.cc.
std::vector<double> AbsorbingValueTruncated(const BipartiteGraph& g,
                                            const std::vector<bool>& absorbing,
                                            const std::vector<double>& node_cost,
                                            int iterations);

/// Workspace flavour: identical sweep, but the result lands in `*value` and
/// the double-buffer lives in `*scratch`, both reused across queries by the
/// batch engine. Builds a transient WalkKernel per call; callers that hold
/// a long-lived kernel (the batch engine's WalkWorkspace) should use the
/// kernel flavour below instead, which allocates nothing in steady state.
void AbsorbingValueTruncated(const BipartiteGraph& g,
                             const std::vector<bool>& absorbing,
                             const std::vector<double>& node_cost,
                             int iterations, std::vector<double>* value,
                             std::vector<double>* scratch);

/// Kernel flavour: compiles `g` + the query's absorbing flags and costs
/// into `*kernel` (its plan and branch-free sweep coefficients are
/// rebuilt here, reusing capacity) and runs the sweep. This is the batch engine's path: one kernel per WalkWorkspace,
/// zero allocation once buffers have grown.
void AbsorbingValueTruncated(const BipartiteGraph& g,
                             const std::vector<bool>& absorbing,
                             const std::vector<double>& node_cost,
                             int iterations, WalkKernel* kernel,
                             std::vector<double>* value,
                             std::vector<double>* scratch);

/// The pre-kernel scalar sweep, retained verbatim as the parity and
/// benchmark baseline: branchy per-row absorbing/isolated checks, one
/// weighted-degree divide per row, straight-line accumulation. Semantics
/// are identical to AbsorbingValueTruncated up to floating-point rounding
/// (the kernel pre-divides weights and re-associates the row sum);
/// tests/walk_kernel_test.cc pins the two together and
/// bench_table5_efficiency's "kernel" section times one against the other.
void AbsorbingValueTruncatedReference(const BipartiteGraph& g,
                                      const std::vector<bool>& absorbing,
                                      const std::vector<double>& node_cost,
                                      int iterations,
                                      std::vector<double>* value,
                                      std::vector<double>* scratch);

/// Exact fixed point of the same recurrence via Gauss–Seidel on the
/// transient block. `absorbing`/`node_cost` are node-indexed over `g`
/// (sizes must equal num_nodes); the absorbing set must be non-empty
/// (InvalidArgument otherwise). Absorbing nodes come back exactly 0.
/// Transient nodes that cannot reach the absorbing set make the system
/// singular, so they are detected up front and assigned +infinity
/// (consumers treat +inf as "rank last"/unreachable). Converges to
/// `options.tolerance` in the max norm or returns Internal.
Result<std::vector<double>> AbsorbingValueExact(
    const BipartiteGraph& g, const std::vector<bool>& absorbing,
    const std::vector<double>& node_cost, const SolverOptions& options = {});

/// Workspace flavour of AbsorbingValueExact: writes the fixed point into
/// `*value` (resized to num_nodes); reachability markers and queue storage
/// come from `*scratch`, reused across queries by the batch engine.
Status AbsorbingValueExactInto(const BipartiteGraph& g,
                               const std::vector<bool>& absorbing,
                               const std::vector<double>& node_cost,
                               const SolverOptions& options,
                               std::vector<double>* value,
                               SolverScratch* scratch);

/// Convenience: absorbing *time* (unit node cost — values are expected
/// remaining steps, Eq. 6). Truncated flavour; same absorbing/isolated
/// semantics as AbsorbingValueTruncated.
std::vector<double> AbsorbingTimeTruncated(const BipartiteGraph& g,
                                           const std::vector<bool>& absorbing,
                                           int iterations);

/// Convenience: absorbing *time* (unit node cost, expected steps). Exact
/// flavour; +inf for nodes that cannot reach the absorbing set.
Result<std::vector<double>> AbsorbingTimeExact(
    const BipartiteGraph& g, const std::vector<bool>& absorbing,
    const SolverOptions& options = {});

/// Hitting time H(target | ·) for every source node: expected steps for a
/// walker starting at each node to first reach `target` (Def. 1), i.e. the
/// absorbing time of the singleton absorbing set {target}. `target` must
/// be a valid node id (OutOfRange otherwise); entry `target` itself is 0.
/// Exact solve; +inf for sources that cannot reach `target`.
Result<std::vector<double>> HittingTimeExact(const BipartiteGraph& g,
                                             NodeId target,
                                             const SolverOptions& options = {});

/// Builds the per-node expected immediate cost vector of Eq. 9 (units:
/// nats when the entropies are natural-log): items pay the entropy of the
/// user they jump to (in expectation), users pay the constant C.
///   node_cost(i) = Σ_j p_ij · E(user j)   for item nodes i
///   node_cost(u) = C                      for user nodes u
/// `user_entropy` is indexed by *local* user id (size g.num_users()).
/// Isolated items (weighted degree <= 0) are assigned C — their value is
/// never consumed, but the vector stays finite. The result feeds
/// AbsorbingValueTruncated/Exact, which pin absorbing nodes at 0
/// regardless of their cost entry.
std::vector<double> EntropyNodeCosts(const BipartiteGraph& g,
                                     const std::vector<double>& user_entropy,
                                     double user_jump_cost);

/// Workspace flavour: writes the cost vector into `*cost` (resized to
/// num_nodes), reusing its capacity across queries.
void EntropyNodeCostsInto(const BipartiteGraph& g,
                          const std::vector<double>& user_entropy,
                          double user_jump_cost, std::vector<double>* cost);

}  // namespace longtail

#endif  // LONGTAIL_GRAPH_MARKOV_H_
