// The unified walk kernel: one tuned inner loop for every truncated
// random-walk sweep in the system.
//
// Before this subsystem existed, five call sites — the truncated DP behind
// HT/AT/AC1/AC2 (markov.cc via graph_recommender_base.cc) and the PPR/Katz
// power iterations (baselines/pagerank.cc, baselines/katz.cc) — each kept a
// bespoke loop over BipartiteGraph adjacency, re-deriving transition
// probabilities (a weighted-degree load plus a divide per row) and
// re-branching on absorbing/isolated nodes every iteration. WalkKernel
// retires those loops, and is itself split along the immutable/mutable
// seam:
//
//  * WalkPlan is the *immutable, shareable* half: the arrays one graph's
//    sweeps read, bound once. A plan is built once per graph — at
//    SubgraphCache admission for cached subgraphs, at Fit/LoadModel for
//    the PPR/Katz global graphs — and shared by shared_ptr across any
//    number of concurrently sweeping workers. After Build it is never
//    mutated, so N pool threads can sweep one plan at once.
//  * WalkKernel is the *per-worker scratch* half: the branch-free
//    coefficient vectors CompileAbsorbingSweep fills per query, the
//    permuted-space value buffers, and the runtime ISA binding. One kernel
//    lives in each WalkWorkspace and inside each PPR/Katz recommender;
//    kernels either build their own private plan (BuildTransitions — the
//    cold path, capacity reused across queries) or adopt a shared one
//    (AdoptPlan — the warm path, zero per-query O(E)/O(V) setup).
//
// The caller's input picks the plan; there is no cost probe and no knob:
//  * identity plan — no layout passed. The absorbing sweeps read the
//    graph's own CSR, flat and untiled. This is what serving runs for
//    every subgraph below the cache's reorder threshold.
//  * layout plan — a WalkLayout passed (in practice the one a
//    SubgraphCache payload carries past the threshold). The sweeps read
//    the layout's permuted CSR; coefficients are scattered and results
//    gathered back through the permutation.
// Both plans run the same four absorbing row passes, which normalize each
// row on the fly: inv = 1/wdeg[v], then (w[k]·inv)·x[col[k]] per edge. The
// layout carries permuted raw weights and weighted degrees, so both plans
// form the same products in the same order and are bit-identical. PPR and
// Katz (column-stochastic / raw transitions) never pass a layout; their
// plan materializes the transition values once and Apply pulls over them.
//
//  * CompileAbsorbingSweep folds per-query absorbing flags, isolated
//    nodes, and per-node costs into three dense coefficient vectors so the
//    sweep's inner loop is branch-free:
//        next[v] = add[v] + scale[v]·⟨prob_row(v), value⟩ + self[v]·value[v]
//    (absorbing: add=scale=self=0 pins the value at exactly 0; isolated
//    transient: scale=0, self=1 accumulates cost forever; ordinary rows:
//    scale=1, self=0).
//  * SweepTruncated / Apply run the sweep as a 4-way-unrolled gather over
//    the CSR. The gather is *runtime-dispatched*: one portable binary
//    carries both a scalar flavour and an AVX2 flavour (hardware
//    vgatherdpd, compiled in its own -mavx2 translation unit), and a
//    one-time CPUID probe at kernel construction picks the table — no
//    recompilation per host. The two flavours are bit-identical (same
//    per-lane accumulation order and reduction tree, FP contraction off in
//    the AVX2 TU), enforced by tests/walk_kernel_test.cc. See
//    docs/KERNELS.md for the layout and the row passes.
//
// Numerical contract: results agree with the retained reference loop
// (AbsorbingValueTruncatedReference in markov.h) to relative tolerance
// ~1e-13 per iteration — normalization changes (Σ w·v)/d into
// Σ (w·(1/d))·v and the unroll changes the summation tree, so bit-identity
// with the *old* loop is impossible; what the system guarantees instead is
// that every production path (single-user, batch at any thread count,
// cache-hit on a shared plan, checkpoint-restored) runs the same kernel
// and is therefore bit-identical across those paths. A plan built for the
// same (graph, layout) inputs binds the same arrays whether the kernel or
// the cache builds it, so adopted and privately built plans sweep
// identically. tests/walk_kernel_test.cc and tests/warm_plan_test.cc
// enforce this.
#ifndef LONGTAIL_GRAPH_WALK_KERNEL_H_
#define LONGTAIL_GRAPH_WALK_KERNEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/walk_layout.h"

namespace longtail {

namespace internal {
struct WalkKernelIsa;
}  // namespace internal

/// How a plan derives the contiguous transition-value array from the
/// graph's edge weights. (Namespace-scope so WalkPlan can use it; WalkKernel
/// re-exports it as WalkKernel::Normalization for call-site continuity.)
enum class WalkNormalization {
  /// prob[k] = w[k] / weighted_degree(row): row-stochastic. The DP
  /// gather ⟨prob_row(v), value⟩ is then exactly Σ_j p_vj·value[j] of
  /// Eq. 1 — what the truncated absorbing-value sweeps consume.
  kRowStochastic,
  /// prob[k] = w[k] / weighted_degree(col[k]): column-stochastic. On a
  /// symmetric graph, gathering row v yields (Pᵀx)[v] — the push step of
  /// the PPR power iteration expressed as a pull, which vectorizes.
  kColumnStochastic,
  /// prob[k] = w[k] unchanged: raw adjacency gathers (Katz's β-damped
  /// path counting).
  kRaw,
};

/// The immutable half of the walk kernel: the CSR arrays one graph's sweeps
/// read — the graph's own (identity plan) or an adopted WalkLayout's
/// permuted ones (layout plan) — plus, for PPR/Katz, the materialized
/// transition values. Built exactly once per graph and shared by
/// shared_ptr — a SubgraphCache payload carries the plan for its subgraph,
/// PPR/Katz carry one for their fitted global graph. Immutable after
/// Build(), so any number of WalkKernels (one per worker, each with private
/// scratch) may sweep one plan concurrently.
///
/// Lifetime: the plan points into the graph's CSR arrays (and the layout's,
/// when adopted) but owns neither — the graph and layout must outlive every
/// use of the plan. Cache payloads satisfy this structurally: graph, layout
/// and plan all live in one shared, immutable Subgraph payload.
class WalkPlan {
 public:
  WalkPlan() = default;
  WalkPlan(const WalkPlan&) = delete;
  WalkPlan& operator=(const WalkPlan&) = delete;

  /// Binds `g` for sweeping. kRowStochastic plans take the layout plan
  /// when `layout` (a WalkLayout of `g`) is passed and the identity plan
  /// otherwise; both normalize on the fly and materialize nothing. The
  /// other normalizations take no layout (checked) and materialize their
  /// transition values for Apply. Same procedure as the kernel's own
  /// BuildTransitions, so passing the same (graph, norm, layout) here and
  /// there yields plans that sweep bit-identically. Reuses this object's
  /// buffer capacity, so a kernel-owned plan rebuilt per cold query
  /// performs no steady-state allocation. Rows with weighted degree <= 0
  /// get all-zero transition values (compiled as isolated by
  /// CompileAbsorbingSweep).
  void Build(const BipartiteGraph& g, WalkNormalization norm,
             std::shared_ptr<const WalkLayout> layout = nullptr);

  /// True once Build has run.
  bool built() const { return graph_ != nullptr; }
  /// The graph the plan was built from (nullptr before Build).
  const BipartiteGraph* graph() const { return graph_; }
  WalkNormalization normalization() const { return norm_; }
  int32_t num_nodes() const { return num_nodes_; }
  /// "identity" or "layout"; bench/introspection only.
  const char* sweep_strategy() const {
    return reordered() ? "layout" : "identity";
  }
  /// True when the plan sweeps an adopted WalkLayout's permuted CSR.
  bool reordered() const { return layout_ != nullptr; }
  /// Heap bytes this plan owns beyond the graph/layout it points into
  /// (materialized PPR/Katz transition values, if any). The SubgraphCache
  /// adds this to its resident-byte accounting.
  size_t OwnedBytes() const;

 private:
  friend class WalkKernel;

  const BipartiteGraph* graph_ = nullptr;
  WalkNormalization norm_ = WalkNormalization::kRowStochastic;
  int32_t num_nodes_ = 0;
  /// The CSR the sweeps walk: the graph's own arrays (identity plan) or a
  /// WalkLayout's permuted arrays (layout plan).
  const int64_t* ptr_ = nullptr;
  const NodeId* col_ = nullptr;
  /// Raw weights + weighted degrees the absorbing row passes normalize
  /// from, in sweep order (kRowStochastic only).
  const double* w_ = nullptr;
  const double* wdeg_ = nullptr;
  /// Materialized transition values parallel to col_ for Apply:
  /// prob_.data() (kColumnStochastic) or the graph's raw weights (kRaw).
  const double* prob_data_ = nullptr;
  /// Original local id → sweep-space row (null ⇔ identity plan).
  /// CompileAbsorbingSweep scatters coefficients through it; sweeps gather
  /// outputs back through it.
  const int32_t* perm_ = nullptr;
  /// Keeps an adopted layout alive for the lifetime of the plan.
  std::shared_ptr<const WalkLayout> layout_;
  /// Column-stochastic transition values, parallel to col_.
  std::vector<double> prob_;
};

/// The mutable, per-worker half: per-query sweep coefficients, value
/// buffers, and the runtime ISA binding, executing against a bound
/// WalkPlan. One kernel lives in each WalkWorkspace and inside each
/// PPR/Katz recommender. Buffers are sized lazily and keep their capacity,
/// so steady-state reuse performs no heap allocation. Not thread-safe: one
/// kernel per worker — but many kernels may share one adopted plan.
class WalkKernel {
 public:
  using Normalization = WalkNormalization;

  /// Hard ceiling on the fused multi-query sweep width (mirrors the ISA
  /// tables' per-row stack scratch; see walk_kernel_isa.h). Callers chunk
  /// larger groups.
  static constexpr int32_t kMaxFusedWidth = 32;

  /// Binds the kernel to the best row-gather implementation the running
  /// CPU supports (one CPUID probe per process, cached; see
  /// walk_kernel_isa.h). The binary is portable — an AVX2 host runs the
  /// vgatherdpd flavour, any other host the scalar flavour, with
  /// bit-identical results.
  WalkKernel();
  WalkKernel(const WalkKernel&) = delete;
  WalkKernel& operator=(const WalkKernel&) = delete;

  /// Name of the row-gather flavour this kernel dispatches to ("avx2" or
  /// "generic").
  const char* isa_name() const;
  /// True when this build carries the AVX2 translation unit *and* the
  /// running CPU/OS support AVX2 — i.e. when new kernels bind to "avx2".
  static bool RuntimeAvx2Available();
  /// Test-only: rebinds this kernel to the portable scalar flavour so
  /// parity tests can compare both paths within one process.
  void ForceGenericIsaForTesting();

  /// Cold path: (re)builds this kernel's private plan for `g` and binds to
  /// it. O(edges); call once per extracted subgraph / fitted graph, then
  /// reuse across any number of sweeps. The plan keeps a pointer to `g`
  /// and reads its CSR arrays during sweeps, so `g` must outlive the
  /// kernel's use and must not be rebuilt in between.
  ///
  /// `layout` is an optional pre-built permutation of `g` (typically the
  /// one riding on a SubgraphCache payload): passing it picks the layout
  /// plan, which sweeps the permuted CSR without re-permuting. When absent
  /// the plan is the identity plan — a one-shot query cannot amortize a
  /// permutation build, so the kernel never builds one. Either way every
  /// public input/output stays in original local id space, bit-identical
  /// across the two plans.
  void BuildTransitions(const BipartiteGraph& g, Normalization norm,
                        std::shared_ptr<const WalkLayout> layout = nullptr);

  /// Warm path: binds to a shared, already-built plan — zero O(E) or O(V)
  /// work, just two pointer stores. The plan (and the graph/layout it
  /// points into) must stay alive while bound; SubgraphCache payloads
  /// guarantee this by carrying graph, layout and plan together. Any
  /// number of kernels may adopt one plan and sweep concurrently.
  void AdoptPlan(std::shared_ptr<const WalkPlan> plan);

  /// True once BuildTransitions or AdoptPlan has bound a plan; sweeps
  /// LT_CHECK this.
  bool has_transitions() const { return plan_ != nullptr; }
  /// The bound plan (nullptr before any build/adopt).
  const WalkPlan* plan() const { return plan_; }
  /// The graph the bound plan was built from (nullptr before any build).
  const BipartiteGraph* graph() const {
    return plan_ != nullptr ? plan_->graph_ : nullptr;
  }
  Normalization normalization() const {
    return plan_ != nullptr ? plan_->norm_ : Normalization::kRowStochastic;
  }

  /// The bound plan's strategy ("identity" or "layout"); bench/
  /// introspection only.
  const char* sweep_strategy() const {
    return plan_ != nullptr ? plan_->sweep_strategy() : "unbound";
  }
  /// True when the bound plan sweeps an adopted layout's permuted CSR.
  bool reordered() const { return plan_ != nullptr && plan_->reordered(); }

  /// Compiles one query's absorbing flags and per-node immediate costs
  /// into the branch-free coefficient vectors. Requires kRowStochastic
  /// transitions for the current graph. `absorbing` and `node_cost` are
  /// local (subgraph) node-indexed, sizes == graph()->num_nodes();
  /// `node_cost[v]` is the cost paid per step leaving v (1.0 for absorbing
  /// *time*, the Eq. 9 entropy costs for absorbing *cost*). Absorbing
  /// nodes are pinned at exactly 0 regardless of cost. O(nodes). Writes
  /// only this kernel's scratch — safe to run concurrently with other
  /// kernels compiled against the same shared plan.
  void CompileAbsorbingSweep(const std::vector<bool>& absorbing,
                             const std::vector<double>& node_cost);

  /// Runs `iterations` truncated-DP sweeps (Algorithm 1 step 4) from
  /// V_0 ≡ 0 using the compiled coefficients; the result lands in
  /// `*value` (resized to num_nodes) and `*scratch` holds the double
  /// buffer. Semantics match AbsorbingValueTruncatedReference: absorbing
  /// nodes stay exactly 0, isolated transient nodes grow by their cost
  /// each sweep, everything else contracts toward the absorbing fixed
  /// point. `iterations <= 0` leaves `*value` all zero.
  void SweepTruncated(int iterations, std::vector<double>* value,
                      std::vector<double>* scratch) const;

  /// Ranking flavour of SweepTruncated, exploiting bipartiteness: user
  /// rows gather only item values and vice versa, and the recommenders
  /// rank *items* only, so the final item values depend on a single
  /// alternating chain item_τ ← user_{τ-1} ← item_{τ-2} ← … ← V_0 ≡ 0.
  /// This sweep updates exactly one side per step — half the edge work of
  /// the full DP, in place in `*value` with no double buffer. On return,
  /// item rows of `*value` (local ids >= num_users) are BIT-IDENTICAL to
  /// SweepTruncated's; user rows hold their last intermediate update
  /// (iteration τ-1) and must not be consumed. Requires a genuinely
  /// bipartite graph (every edge user↔item, which BipartiteGraph
  /// construction guarantees) and compiled kRowStochastic coefficients.
  void SweepTruncatedItemValues(int iterations,
                                std::vector<double>* value) const;

  /// Fused multi-query compile: `absorbing[q]` is query q's absorbing flag
  /// vector (each sized num_nodes, exactly as CompileAbsorbingSweep takes);
  /// `node_cost` is shared by every lane — queries fused into one batch
  /// come from the same recommender over the same subgraph, whose per-node
  /// costs do not depend on the query. Fills K-strided coefficient blocks
  /// (lane q of node v at index v·K + q, scattered through the permutation
  /// on reordered plans) so one row pass serves all K queries. K =
  /// absorbing.size() must be in [1, kMaxFusedWidth]. Lane q's compiled
  /// semantics are exactly CompileAbsorbingSweep(absorbing[q], node_cost)'s.
  void CompileAbsorbingSweepBatch(const std::vector<std::vector<bool>>& absorbing,
                                  const std::vector<double>& node_cost);

  /// Fused multi-query ranking sweep over the coefficients compiled by
  /// CompileAbsorbingSweepBatch: one CSR pass per truncated-walk iteration
  /// advances all K interleaved value lanes — each edge's column load
  /// feeds K lanes (K=8 doubles is exactly one cache line per gathered
  /// node), amortizing the memory stream that bandwidth-binds the
  /// single-query sweep past L2. On return `*value_block` holds num_nodes·K
  /// doubles, lane q strided at value_block[v·K + q]; item rows of lane q
  /// are BIT-IDENTICAL to SweepTruncatedItemValues run sequentially for
  /// query q (user rows hold the same last intermediate as the sequential
  /// sweep and must not be consumed). Increments the process-global fused
  /// sweep counters (GetWalkKernelFusedStats).
  void SweepTruncatedItemValuesBatch(int iterations,
                                     std::vector<double>* value_block) const;

  /// Width of the last CompileAbsorbingSweepBatch (0 before any).
  int32_t fused_width() const { return batch_width_; }

  /// The fusion width cap for a graph of `num_nodes` local nodes: 16 while
  /// a 16-lane value block still fits the probed L2 (small cached
  /// subgraphs — wider fusion is free when the whole block stays
  /// cache-resident), else 8 — eight interleaved double lanes per node are
  /// exactly one 64-byte line, so every gathered line is fully used and
  /// the CSR stream is amortized 8 ways, which is where the bandwidth win
  /// saturates in the past-L2 regime (see docs/KERNELS.md and the
  /// fused-width bench ladder).
  static int32_t FusedWidthCap(int32_t num_nodes);

  /// One power-iteration step over the transition CSR:
  ///     y[v] = alpha·⟨prob_row(v), x⟩ + beta·restart[v]
  /// (`restart == nullptr` drops the second term). With kColumnStochastic
  /// transitions this is y = alpha·Pᵀx + beta·r — the PPR update; with
  /// kRaw it is y = alpha·A·x — the Katz frontier push. `x` and `y` must
  /// have num_nodes elements and must not alias. Requires a
  /// kColumnStochastic or kRaw plan (checked), which never has a layout.
  ///
  /// Sparse inputs stay cheap: when the rows with x != 0 carry less than
  /// half the graph's adjacency entries (the early Katz frontier, the
  /// first PPR iterations), the step runs as a push over those rows only
  /// — on a symmetric graph the push along row u with weight w/d(u)
  /// produces the same terms as the column-stochastic pull — instead of
  /// gathering all edges. The two execution paths agree to the kernel's
  /// ~1e-13 parity tolerance (not bit-identically), and the choice is a
  /// deterministic function of x, so repeated runs are reproducible.
  void Apply(double alpha, const double* x, double beta,
             const double* restart, double* y) const;

 private:
  /// The instruction-set flavour every sweep dispatches through; bound at
  /// construction, never null.
  const internal::WalkKernelIsa* isa_;

  /// The bound plan: &own_plan_ after BuildTransitions, adopted_.get()
  /// after AdoptPlan, null before either.
  const WalkPlan* plan_ = nullptr;
  /// Kernel-owned plan for the cold BuildTransitions path; capacity kept
  /// across rebuilds.
  WalkPlan own_plan_;
  /// Keeps an adopted shared plan alive while bound.
  std::shared_ptr<const WalkPlan> adopted_;

  /// Per-row sweep coefficients compiled by CompileAbsorbingSweep, indexed
  /// in sweep space (permuted when reordered).
  std::vector<double> add_;    // constant term (0 for absorbing rows)
  std::vector<double> scale_;  // 1 ordinary row, 0 absorbing/isolated
  std::vector<double> self_;   // 1 isolated transient row, else 0
  /// K-strided coefficient blocks compiled by CompileAbsorbingSweepBatch
  /// (lane q of sweep-space row v at v·batch_width_ + q).
  int32_t batch_width_ = 0;
  std::vector<double> badd_;
  std::vector<double> bscale_;
  std::vector<double> bself_;
  /// Permuted-space sweep buffers (layout plans only). Mutable because
  /// sweeps are logically const — the kernel is single-owner per worker.
  mutable std::vector<double> pval_;
  mutable std::vector<double> pscratch_;
  /// Permuted-space strided value block for the fused batch sweep.
  mutable std::vector<double> pblock_;
};

/// Process-global fused-sweep counters: how many fused batch sweeps ran and
/// how many query lanes they carried (lanes / sweeps = mean fused width).
/// Exported to /metrics as longtail_walk_fused_sweeps_total and
/// longtail_walk_fused_lanes_total.
struct WalkKernelFusedStats {
  uint64_t sweeps = 0;
  uint64_t lanes = 0;
};
WalkKernelFusedStats GetWalkKernelFusedStats();

}  // namespace longtail

#endif  // LONGTAIL_GRAPH_WALK_KERNEL_H_
