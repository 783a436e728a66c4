#include "graph/walk_layout.h"

#include <algorithm>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "util/logging.h"

namespace longtail {

namespace {

size_t SysconfCacheBytes(int name, size_t fallback) {
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long v = sysconf(name);
  if (v > 0) return static_cast<size_t>(v);
#else
  (void)name;
#endif
  return fallback;
}

CacheGeometry ProbeCacheGeometryOnce() {
  CacheGeometry g;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  g.l1d_bytes = SysconfCacheBytes(_SC_LEVEL1_DCACHE_SIZE, 32 * 1024);
  g.l2_bytes = SysconfCacheBytes(_SC_LEVEL2_CACHE_SIZE, 256 * 1024);
  g.l3_bytes = SysconfCacheBytes(_SC_LEVEL3_CACHE_SIZE, 8 * 1024 * 1024);
#else
  g.l1d_bytes = 32 * 1024;
  g.l2_bytes = 256 * 1024;
  g.l3_bytes = 8 * 1024 * 1024;
#endif
  // Defend against nonsense readings (containers sometimes report 0 or an
  // inverted hierarchy): enforce sane minima and monotonicity.
  g.l1d_bytes = std::max<size_t>(g.l1d_bytes, 16 * 1024);
  g.l2_bytes = std::max(g.l2_bytes, 4 * g.l1d_bytes);
  g.l3_bytes = std::max(g.l3_bytes, g.l2_bytes);
  return g;
}

}  // namespace

const CacheGeometry& ProbeCacheGeometry() {
  static const CacheGeometry geometry = ProbeCacheGeometryOnce();
  return geometry;
}

void BuildWalkLayout(const BipartiteGraph& g, WalkLayout* out) {
  const int32_t n = g.num_nodes();
  const auto gptr = g.RowPointers();
  const auto gcol = g.FlatNeighbors();
  const auto gw = g.FlatWeights();
  const int64_t entries = n > 0 ? gptr[n] : 0;

  out->num_users = g.num_users();
  out->num_nodes = n;
  out->perm.assign(n, -1);
  out->ptr.assign(static_cast<size_t>(n) + 1, 0);
  out->col.resize(entries);
  out->w.resize(entries);
  out->wdeg.resize(n);
  if (n == 0) return;

  // Visit order: degree-bucketed BFS. Candidate component starts are
  // consumed in ascending degree (counting sort — peripheral low-degree
  // nodes make narrow BFS levels); within a component the traversal is
  // plain breadth-first with neighbors enqueued in row order, i.e. the
  // Cuthill–McKee ordering. `order` doubles as the FIFO frontier.
  std::vector<int32_t> by_degree(n);
  {
    int32_t max_deg = 0;
    for (int32_t v = 0; v < n; ++v) {
      max_deg = std::max(max_deg,
                         static_cast<int32_t>(gptr[v + 1] - gptr[v]));
    }
    std::vector<int32_t> bucket(static_cast<size_t>(max_deg) + 2, 0);
    for (int32_t v = 0; v < n; ++v) ++bucket[gptr[v + 1] - gptr[v] + 1];
    for (size_t b = 1; b < bucket.size(); ++b) bucket[b] += bucket[b - 1];
    for (int32_t v = 0; v < n; ++v) {
      by_degree[bucket[gptr[v + 1] - gptr[v]]++] = v;
    }
  }
  std::vector<uint8_t> visited(n, 0);
  std::vector<NodeId> order;
  order.reserve(n);
  for (int32_t s : by_degree) {
    if (visited[s]) continue;
    visited[s] = 1;
    order.push_back(s);
    // Isolated nodes (possible seeds) form their own "component" of one;
    // the ascending-degree scan places them first, which is harmless —
    // they contribute no gathers.
    for (size_t head = order.size() - 1; head < order.size(); ++head) {
      const NodeId v = order[head];
      for (int64_t k = gptr[v]; k < gptr[v + 1]; ++k) {
        const NodeId nbr = gcol[k];
        if (visited[nbr]) continue;
        visited[nbr] = 1;
        order.push_back(nbr);
      }
    }
  }
  LT_CHECK_EQ(order.size(), static_cast<size_t>(n));

  // Side-preserving id assignment in visit order.
  const int32_t num_users = g.num_users();
  int32_t next_user = 0;
  int32_t next_item = num_users;
  for (NodeId v : order) {
    out->perm[v] = g.IsUserNode(v) ? next_user++ : next_item++;
  }
  LT_CHECK_EQ(next_user, num_users);
  LT_CHECK_EQ(next_item, n);

  // Permuted CSR: row perm[v] receives row v's entries and weighted
  // degree, original edge order, columns renamed. Per-row original order
  // is what makes sweeps over this CSR bit-identical to the identity
  // layout.
  const std::vector<int32_t>& perm = out->perm;
  const auto gwdeg = g.WeightedDegrees();
  for (int32_t v = 0; v < n; ++v) {
    out->ptr[perm[v] + 1] = gptr[v + 1] - gptr[v];
    out->wdeg[perm[v]] = gwdeg[v];
  }
  for (int32_t p = 0; p < n; ++p) out->ptr[p + 1] += out->ptr[p];
  for (int32_t v = 0; v < n; ++v) {
    int64_t dst = out->ptr[perm[v]];
    for (int64_t k = gptr[v]; k < gptr[v + 1]; ++k, ++dst) {
      out->col[dst] = perm[gcol[k]];
      out->w[dst] = gw[k];
    }
  }
}

bool WalkLayoutReorderBeneficial(int32_t num_nodes, int64_t entries) {
  const CacheGeometry& cg = ProbeCacheGeometry();
  return static_cast<size_t>(num_nodes) * sizeof(double) > cg.l2_bytes &&
         entries >= 2 * static_cast<int64_t>(num_nodes);
}

std::shared_ptr<const WalkLayout> BuildWalkLayoutIfBeneficial(
    const BipartiteGraph& g) {
  const int32_t n = g.num_nodes();
  const int64_t entries = n > 0 ? g.RowPointers()[n] : 0;
  if (!WalkLayoutReorderBeneficial(n, entries)) return nullptr;
  auto layout = std::make_shared<WalkLayout>();
  BuildWalkLayout(g, layout.get());
  return layout;
}

}  // namespace longtail
