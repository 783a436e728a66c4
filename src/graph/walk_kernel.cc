#include "graph/walk_kernel.h"

#include <algorithm>
#include <atomic>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "graph/walk_kernel_isa.h"
#include "util/logging.h"

namespace longtail {

namespace internal {

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  // AVX needs OS cooperation: OSXSAVE says XGETBV exists, XCR0 bits 1|2
  // say the OS actually saves XMM+YMM state across context switches.
  // Checking the AVX2 feature bit alone would fault on such hosts.
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) return false;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  // xgetbv(0), byte-encoded so no -mxsave is needed at compile time.
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0"
                   : "=a"(xcr0_lo), "=d"(xcr0_hi)
                   : "c"(0));
  if ((xcr0_lo & 0x6) != 0x6) return false;
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  return (ebx & (1u << 5)) != 0;  // leaf 7.0 EBX bit 5: AVX2
#else
  return false;
#endif
}

const WalkKernelIsa* ActiveWalkKernelIsa() {
  // One probe per process; every kernel constructed afterwards reuses the
  // cached choice.
  static const WalkKernelIsa* active = [] {
    const WalkKernelIsa* avx2 = Avx2WalkKernelIsa();
    if (avx2 != nullptr && CpuSupportsAvx2()) return avx2;
    return GenericWalkKernelIsa();
  }();
  return active;
}

}  // namespace internal

namespace {

static_assert(WalkKernel::kMaxFusedWidth == internal::kMaxFusedWidth,
              "public cap must match the ISA tables' stack scratch");

// Process-global fused-sweep counters (relaxed: monotonic telemetry only).
std::atomic<uint64_t> g_fused_sweeps{0};
std::atomic<uint64_t> g_fused_lanes{0};

}  // namespace

WalkKernelFusedStats GetWalkKernelFusedStats() {
  WalkKernelFusedStats s;
  s.sweeps = g_fused_sweeps.load(std::memory_order_relaxed);
  s.lanes = g_fused_lanes.load(std::memory_order_relaxed);
  return s;
}

int32_t WalkKernel::FusedWidthCap(int32_t num_nodes) {
  // 16 lanes while the whole 16-wide value block is L2-resident (fusing
  // wider costs nothing when nothing is evicted); past that, 8 lanes —
  // one full 64-byte line per gathered node, where the bandwidth
  // amortization saturates (see docs/KERNELS.md and the bench ladder).
  const size_t block16 =
      static_cast<size_t>(std::max(num_nodes, 0)) * 16 * sizeof(double);
  const int32_t cap = block16 <= ProbeCacheGeometry().l2_bytes ? 16 : 8;
  return std::min<int32_t>(cap, kMaxFusedWidth);
}

WalkKernel::WalkKernel() : isa_(internal::ActiveWalkKernelIsa()) {}

const char* WalkKernel::isa_name() const { return isa_->name; }

bool WalkKernel::RuntimeAvx2Available() {
  return internal::ActiveWalkKernelIsa() == internal::Avx2WalkKernelIsa() &&
         internal::Avx2WalkKernelIsa() != nullptr;
}

void WalkKernel::ForceGenericIsaForTesting() {
  isa_ = internal::GenericWalkKernelIsa();
}

size_t WalkPlan::OwnedBytes() const {
  return sizeof(WalkPlan) + prob_.capacity() * sizeof(double);
}

void WalkKernel::BuildTransitions(const BipartiteGraph& g, Normalization norm,
                                  std::shared_ptr<const WalkLayout> layout) {
  // Rebuild the kernel-owned plan in place (buffer capacity survives, so
  // steady-state cold queries stay allocation-free) and drop any
  // previously adopted shared plan.
  own_plan_.Build(g, norm, std::move(layout));
  adopted_.reset();
  plan_ = &own_plan_;
}

void WalkKernel::AdoptPlan(std::shared_ptr<const WalkPlan> plan) {
  LT_CHECK(plan != nullptr && plan->built())
      << "AdoptPlan needs a built WalkPlan";
  adopted_ = std::move(plan);
  plan_ = adopted_.get();
}

void WalkPlan::Build(const BipartiteGraph& g, WalkNormalization norm,
                     std::shared_ptr<const WalkLayout> layout) {
  graph_ = &g;
  norm_ = norm;
  num_nodes_ = g.num_nodes();
  const int32_t n = num_nodes_;
  const auto gptr = g.RowPointers();
  const auto gcol = g.FlatNeighbors();
  const auto w = g.FlatWeights();
  perm_ = nullptr;
  layout_.reset();
  w_ = nullptr;
  wdeg_ = nullptr;
  prob_data_ = nullptr;

  if (norm_ == WalkNormalization::kRowStochastic && layout != nullptr) {
    // Layout plan: sweep the permuted CSR the caller built (a
    // SubgraphCache payload's, paid once at admission). The row passes
    // normalize from the layout's permuted weights and degrees exactly as
    // they do from the graph's own, so results stay bit-identical.
    LT_CHECK_EQ(layout->num_nodes, n);
    LT_CHECK_EQ(layout->num_users, g.num_users());
    LT_CHECK_EQ(layout->col.size(), w.size());
    layout_ = std::move(layout);
    ptr_ = layout_->ptr.data();
    col_ = layout_->col.data();
    w_ = layout_->w.data();
    wdeg_ = layout_->wdeg.data();
    perm_ = layout_->perm.data();
    return;
  }
  LT_CHECK(layout == nullptr)
      << "only row-stochastic sweeps take a layout";
  ptr_ = gptr.data();
  col_ = gcol.data();
  switch (norm_) {
    case WalkNormalization::kRowStochastic:
      // Identity plan: nothing to materialize. The normalizing row passes
      // read the raw weight strip (the same bytes a materialized prob
      // strip would move) and fold the one divide per row into a register.
      w_ = w.data();
      wdeg_ = g.WeightedDegrees().data();
      break;
    case WalkNormalization::kColumnStochastic:
      prob_.resize(w.size());
      for (size_t k = 0; k < w.size(); ++k) {
        const double d = g.WeightedDegree(gcol[k]);
        prob_[k] = d > 0.0 ? w[k] / d : 0.0;
      }
      prob_data_ = prob_.data();
      break;
    case WalkNormalization::kRaw:
      // Raw gathers read the graph's weight array as-is; no copy.
      prob_data_ = w.data();
      break;
  }
}

void WalkKernel::CompileAbsorbingSweep(const std::vector<bool>& absorbing,
                                       const std::vector<double>& node_cost) {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  LT_CHECK(p.norm_ == Normalization::kRowStochastic)
      << "absorbing sweeps need row-stochastic transitions";
  const int32_t n = p.num_nodes_;
  LT_CHECK_EQ(static_cast<size_t>(n), absorbing.size());
  LT_CHECK_EQ(static_cast<size_t>(n), node_cost.size());
  add_.resize(n);
  scale_.resize(n);
  self_.resize(n);
  const BipartiteGraph& g = *p.graph_;
  const int32_t* perm = p.perm_;
  // Coefficients live in sweep space: scattered through the permutation
  // when the plan reordered, so the row passes stay oblivious to layout.
  for (int32_t v = 0; v < n; ++v) {
    const int32_t row = perm != nullptr ? perm[v] : v;
    if (absorbing[v]) {
      add_[row] = 0.0;
      scale_[row] = 0.0;
      self_[row] = 0.0;
    } else if (g.WeightedDegree(v) <= 0.0) {
      // Isolated transient node: never absorbed, accumulates cost forever.
      add_[row] = node_cost[v];
      scale_[row] = 0.0;
      self_[row] = 1.0;
    } else {
      add_[row] = node_cost[v];
      scale_[row] = 1.0;
      self_[row] = 0.0;
    }
  }
}

void WalkKernel::CompileAbsorbingSweepBatch(
    const std::vector<std::vector<bool>>& absorbing,
    const std::vector<double>& node_cost) {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  LT_CHECK(p.norm_ == Normalization::kRowStochastic)
      << "absorbing sweeps need row-stochastic transitions";
  const int32_t width = static_cast<int32_t>(absorbing.size());
  LT_CHECK(width >= 1 && width <= kMaxFusedWidth)
      << "fused width " << width << " out of [1, " << kMaxFusedWidth << "]";
  const int32_t n = p.num_nodes_;
  LT_CHECK_EQ(static_cast<size_t>(n), node_cost.size());
  for (const auto& lane : absorbing) {
    LT_CHECK_EQ(static_cast<size_t>(n), lane.size());
  }
  batch_width_ = width;
  const size_t block = static_cast<size_t>(n) * width;
  badd_.resize(block);
  bscale_.resize(block);
  bself_.resize(block);
  const BipartiteGraph& g = *p.graph_;
  const int32_t* perm = p.perm_;
  // Same compile as CompileAbsorbingSweep, lane-strided: lane q of
  // sweep-space row gets exactly the coefficients a sequential compile of
  // query q would give that row.
  for (int32_t v = 0; v < n; ++v) {
    const int32_t row = perm != nullptr ? perm[v] : v;
    const int64_t base = static_cast<int64_t>(row) * width;
    const bool isolated = g.WeightedDegree(v) <= 0.0;
    const double cost = node_cost[v];
    for (int32_t q = 0; q < width; ++q) {
      if (absorbing[q][v]) {
        badd_[base + q] = 0.0;
        bscale_[base + q] = 0.0;
        bself_[base + q] = 0.0;
      } else if (isolated) {
        badd_[base + q] = cost;
        bscale_[base + q] = 0.0;
        bself_[base + q] = 1.0;
      } else {
        badd_[base + q] = cost;
        bscale_[base + q] = 1.0;
        bself_[base + q] = 0.0;
      }
    }
  }
}

void WalkKernel::SweepTruncated(int iterations, std::vector<double>* value,
                                std::vector<double>* scratch) const {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  const int32_t n = p.num_nodes_;
  LT_CHECK_EQ(static_cast<size_t>(n), add_.size())
      << "CompileAbsorbingSweep must run first";
  value->assign(n, 0.0);
  scratch->assign(n, 0.0);
  if (n == 0) return;
  double* cur;
  double* nxt;
  if (p.perm_ == nullptr) {
    cur = value->data();
    nxt = scratch->data();
  } else {
    // Layout plan: sweep in permuted space, read out through the
    // permutation below. V_0 ≡ 0 needs no seed scatter.
    pval_.assign(n, 0.0);
    pscratch_.assign(n, 0.0);
    cur = pval_.data();
    nxt = pscratch_.data();
  }
  for (int t = 0; t < iterations; ++t) {
    isa_->absorbing_rows_norm(0, n, p.ptr_, p.col_, p.w_, p.wdeg_,
                              add_.data(), scale_.data(), self_.data(), cur,
                              nxt);
    double* tmp = cur;
    cur = nxt;
    nxt = tmp;
  }
  if (p.perm_ == nullptr) {
    if (cur != value->data()) value->swap(*scratch);
  } else {
    double* out = value->data();
    for (int32_t v = 0; v < n; ++v) out[v] = cur[p.perm_[v]];
  }
}

void WalkKernel::SweepTruncatedItemValues(int iterations,
                                          std::vector<double>* value) const {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  const int32_t n = p.num_nodes_;
  LT_CHECK_EQ(static_cast<size_t>(n), add_.size())
      << "CompileAbsorbingSweep must run first";
  value->assign(n, 0.0);
  if (n == 0 || iterations <= 0) return;
  double* x;
  if (p.perm_ == nullptr) {
    x = value->data();
  } else {
    pval_.assign(n, 0.0);
    x = pval_.data();
  }
  // The permutation preserves sides, so the side boundary — and with it
  // the alternating chain — is the same in sweep space.
  const int32_t num_users = p.graph_->num_users();
  // Step t updates the side whose value the chain labels "iteration t":
  // items when (τ - t) is even, users otherwise, ending on items at t = τ.
  // In-place is safe because a side's gathers read only the *other* side.
  for (int t = 1; t <= iterations; ++t) {
    const bool item_side = ((iterations - t) & 1) == 0;
    const int32_t lo = item_side ? num_users : 0;
    const int32_t hi = item_side ? n : num_users;
    if (t == 1) {
      // The chain's first step advances its side by a single DP iteration.
      isa_->absorbing_rows_norm(lo, hi, p.ptr_, p.col_, p.w_, p.wdeg_,
                                add_.data(), scale_.data(), self_.data(), x,
                                x);
    } else {
      // Every later step advances its side by two DP iterations. Ordinary
      // rows never reference the skipped intermediate, but isolated rows
      // (self = 1) accumulate cost on both: the trailing self·add term
      // applies the second addition in the same order the full sweep
      // would, keeping them bit-identical to it.
      isa_->absorbing_rows_fused_norm(lo, hi, p.ptr_, p.col_, p.w_, p.wdeg_,
                                      add_.data(), scale_.data(),
                                      self_.data(), x);
    }
  }
  if (p.perm_ != nullptr) {
    double* out = value->data();
    for (int32_t v = 0; v < n; ++v) out[v] = x[p.perm_[v]];
  }
}

void WalkKernel::SweepTruncatedItemValuesBatch(
    int iterations, std::vector<double>* value_block) const {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  const int32_t n = p.num_nodes_;
  const int32_t width = batch_width_;
  LT_CHECK(width >= 1 &&
           badd_.size() == static_cast<size_t>(n) * width)
      << "CompileAbsorbingSweepBatch must run first";
  const size_t block = static_cast<size_t>(n) * width;
  value_block->assign(block, 0.0);
  if (n == 0 || iterations <= 0) return;
  g_fused_sweeps.fetch_add(1, std::memory_order_relaxed);
  g_fused_lanes.fetch_add(static_cast<uint64_t>(width),
                          std::memory_order_relaxed);
  double* x;
  if (p.perm_ == nullptr) {
    x = value_block->data();
  } else {
    pblock_.assign(block, 0.0);
    x = pblock_.data();
  }
  // Identical iteration structure to SweepTruncatedItemValues — only the
  // row passes changed, and each lane of those is the sequential pass.
  const int32_t num_users = p.graph_->num_users();
  for (int t = 1; t <= iterations; ++t) {
    const bool item_side = ((iterations - t) & 1) == 0;
    const int32_t lo = item_side ? num_users : 0;
    const int32_t hi = item_side ? n : num_users;
    if (t == 1) {
      isa_->absorbing_rows_norm_batch(lo, hi, p.ptr_, p.col_, p.w_, p.wdeg_,
                                      badd_.data(), bscale_.data(),
                                      bself_.data(), x, x, width);
    } else {
      isa_->absorbing_rows_fused_norm_batch(lo, hi, p.ptr_, p.col_, p.w_,
                                            p.wdeg_, badd_.data(),
                                            bscale_.data(), bself_.data(), x,
                                            width);
    }
  }
  if (p.perm_ != nullptr) {
    double* out = value_block->data();
    for (int32_t v = 0; v < n; ++v) {
      const int64_t src = static_cast<int64_t>(p.perm_[v]) * width;
      const int64_t dst = static_cast<int64_t>(v) * width;
      for (int32_t q = 0; q < width; ++q) out[dst + q] = x[src + q];
    }
  }
}

void WalkKernel::Apply(double alpha, const double* x, double beta,
                       const double* restart, double* y) const {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  LT_CHECK(p.norm_ != Normalization::kRowStochastic)
      << "Apply needs materialized transitions; no caller applies "
         "row-stochastic transitions, see walk_kernel.h";
  const int32_t n = p.num_nodes_;
  // Sparse-input fast path: a dense pull always walks every adjacency
  // entry, which would make the first Katz steps / PPR iterations (a
  // frontier of one user node) cost O(total edges) where the pre-kernel
  // scatter cost O(frontier edges). When the nonzero rows of x carry
  // under half the entries, push from just those rows instead. The push
  // re-derives the per-row normalization from the raw weights (the
  // stored prob array is column-normalized for pulls), so push and pull
  // agree to rounding, and the branch is a pure function of x.
  if (n > 0) {
    const int64_t* gp = p.ptr_;
    const NodeId* gc = p.col_;
    const int64_t total_entries = gp[n];
    int64_t nonzero_entries = 0;
    for (int32_t v = 0; v < n; ++v) {
      if (x[v] != 0.0) nonzero_entries += gp[v + 1] - gp[v];
    }
    if (nonzero_entries * 2 < total_entries) {
      if (restart != nullptr) {
        for (int32_t v = 0; v < n; ++v) y[v] = beta * restart[v];
      } else {
        for (int32_t v = 0; v < n; ++v) y[v] = 0.0;
      }
      const double* w = p.graph_->FlatWeights().data();
      for (int32_t v = 0; v < n; ++v) {
        const double mass = x[v];
        if (mass == 0.0) continue;
        double out;
        if (p.norm_ == Normalization::kColumnStochastic) {
          // Symmetric graph: pushing x[v]·w/d(v) along row v produces
          // exactly the pull's Σ_u (w_vu/d_u)·x[u] terms.
          const double d = p.graph_->WeightedDegree(v);
          if (d <= 0.0) continue;
          out = alpha * mass / d;
        } else {  // kRaw
          out = alpha * mass;
        }
        for (int64_t k = gp[v]; k < gp[v + 1]; ++k) {
          y[gc[k]] += out * w[k];
        }
      }
      return;
    }
  }
  isa_->apply_rows(0, n, p.ptr_, p.col_, p.prob_data_, alpha, x, beta,
                   restart, y);
}

}  // namespace longtail
