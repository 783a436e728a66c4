// Graph-layer replay: the traced window's queries re-run single-threaded,
// in dispatch order, through the public graph functions against a fresh
// SubgraphCache with the serving budget. Each step is timed on its own —
// cache lookup (hit), extraction, admission, plan build, absorbing compile,
// sweep, top-k — and the replay's results must equal the served ones bit
// for bit, which is what makes the per-step times a faithful account of
// what the served path did.
//
// Seeds and absorbing flags are rebuilt from Dataset::UserItems exactly as
// AbsorbingTimeRecommender does; AC2 node costs from its public entropies.
#ifndef LONGTAIL_SERVEBENCH_REPLAY_H_
#define LONGTAIL_SERVEBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "core/graph_recommender_base.h"
#include "tracer.h"

namespace servebench {

struct ReplayStats {
  size_t queries = 0;
  size_t hits = 0;      // slices served from the cache
  size_t misses = 0;    // slices extracted and admitted
  size_t topk_queries = 0;
  double lookup_hit_s = 0.0;   // GetOrExtract on hits
  double extract_s = 0.0;      // ExtractSubgraphInto on misses
  double admit_s = 0.0;        // GetOrExtract miss − extraction
  double plan_build_s = 0.0;   // WalkKernel::BuildTransitions on misses
  double compile_s = 0.0;      // CompileAbsorbingSweep(Batch)
  double sweep_s = 0.0;        // SweepTruncatedItemValues(Batch)
  double topk_s = 0.0;         // candidate collection + TopKScoredItems
  double sweep_edges = 0.0;    // edge updates, summed over queries
  double sweep_bytes = 0.0;    // computed CSR bytes streamed, per query
  size_t mismatches = 0;
  std::string first_mismatch;

  /// Graph + top-k time of the served path (plan_build excluded: it
  /// re-prices a step already inside admission).
  double served_path_s() const {
    return lookup_hit_s + extract_s + admit_s + compile_s + sweep_s + topk_s;
  }
};

/// `models` by workload model index (the reference models: same graph
/// fingerprint as the served ones).
ReplayStats Replay(const std::vector<BatchRecord>& batches,
                   const std::vector<const longtail::GraphRecommenderBase*>&
                       models,
                   size_t cache_bytes);

}  // namespace servebench

#endif  // LONGTAIL_SERVEBENCH_REPLAY_H_
