// The portable scalar flavour of the walk kernel's row passes: the
// 4-accumulator unrolled gather every instruction set must match bit for
// bit. Compiled with the project's default flags on every target.
#include "graph/walk_kernel_isa.h"

namespace longtail {
namespace internal {
namespace {

// The Apply gather: Σ_k prob[k]·x[col[k]] over one CSR row, 4-way unrolled
// into independent accumulators so the loads pipeline, reduced with the
// fixed (a0+a1)+(a2+a3) tree. The default build has no FMA ISA, so the
// products and sums below are individual roundings — the contract the
// AVX2 flavour reproduces exactly.
inline double RowGather(const double* prob, const NodeId* col, int64_t begin,
                        int64_t end, const double* x) {
  int64_t k = begin;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (; k + 4 <= end; k += 4) {
    a0 += prob[k] * x[col[k]];
    a1 += prob[k + 1] * x[col[k + 1]];
    a2 += prob[k + 2] * x[col[k + 2]];
    a3 += prob[k + 3] * x[col[k + 3]];
  }
  double sum = (a0 + a1) + (a2 + a3);
  for (; k < end; ++k) sum += prob[k] * x[col[k]];
  return sum;
}

// Normalizing gather for the absorbing passes: the row-stochastic
// transition value w[k]·inv is formed on the fly, then multiplied into x.
// The identity and the layout plan both sweep through it, so their
// products and roundings are the same.
inline double RowGatherNorm(const double* w, const NodeId* col, int64_t begin,
                            int64_t end, const double* x, double inv) {
  int64_t k = begin;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (; k + 4 <= end; k += 4) {
    a0 += (w[k] * inv) * x[col[k]];
    a1 += (w[k + 1] * inv) * x[col[k + 1]];
    a2 += (w[k + 2] * inv) * x[col[k + 2]];
    a3 += (w[k + 3] * inv) * x[col[k + 3]];
  }
  double sum = (a0 + a1) + (a2 + a3);
  for (; k < end; ++k) sum += (w[k] * inv) * x[col[k]];
  return sum;
}

// Fused multi-query gather: lane q reads the strided view
// x[col[k]·width + q] with the exact per-lane loop of RowGatherNorm — same
// (w[k]·inv) product per edge, same 4 accumulators over the same edge
// partition, same reduction tree, same scalar edge tail — so out[q] is
// bit-identical to a sequential sweep of lane q. Lane-major iteration
// re-walks the row's col/w strip per lane, but the strip is L1-hot after
// lane 0; the bandwidth win is that each gathered node's x-line serves all
// lanes that touch it.
inline void RowGatherNormBatch(const double* w, const NodeId* col,
                               int64_t begin, int64_t end, const double* x,
                               double inv, int32_t width, double* out) {
  for (int32_t q = 0; q < width; ++q) {
    const double* xq = x + q;
    int64_t k = begin;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (; k + 4 <= end; k += 4) {
      a0 += (w[k] * inv) * xq[static_cast<int64_t>(col[k]) * width];
      a1 += (w[k + 1] * inv) * xq[static_cast<int64_t>(col[k + 1]) * width];
      a2 += (w[k + 2] * inv) * xq[static_cast<int64_t>(col[k + 2]) * width];
      a3 += (w[k + 3] * inv) * xq[static_cast<int64_t>(col[k + 3]) * width];
    }
    double sum = (a0 + a1) + (a2 + a3);
    for (; k < end; ++k) {
      sum += (w[k] * inv) * xq[static_cast<int64_t>(col[k]) * width];
    }
    out[q] = sum;
  }
}

#include "graph/walk_kernel_rows.inc"

}  // namespace

const WalkKernelIsa* GenericWalkKernelIsa() {
  static constexpr WalkKernelIsa isa = {"generic",
                                        &AbsorbingRowsNorm,
                                        &AbsorbingRowsFusedNorm,
                                        &ApplyRows,
                                        &AbsorbingRowsNormBatch,
                                        &AbsorbingRowsFusedNormBatch};
  return &isa;
}

}  // namespace internal
}  // namespace longtail
