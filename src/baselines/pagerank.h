// Personalized PageRank (PPR) and the paper's Discounted PPR baseline.
//
// PPR (Haveliwala 2002): π = (1-λ) e + λ Pᵀ π with restart distribution e
// concentrated on the query user (or, optionally, spread over the user's
// rated items). PPR blends similarity with popularity and therefore
// recommends head items; DPPR (Eq. 15) divides each item's PPR value by its
// popularity to re-expose the tail:
//     DPPR(i|S) = PPR(i|S) / Popularity(i).
#ifndef LONGTAIL_BASELINES_PAGERANK_H_
#define LONGTAIL_BASELINES_PAGERANK_H_

#include <vector>

#include "core/recommender.h"
#include "graph/bipartite_graph.h"
#include "graph/walk_kernel.h"

namespace longtail {

struct PageRankOptions {
  /// λ, the walk-continuation probability (paper's "dumping factor" 0.5).
  double damping = 0.5;
  /// Stop when the L1 change of π drops below this.
  double tolerance = 1e-10;
  int max_iterations = 200;
  /// Restart at the user's rated items instead of the user node (ablation).
  bool restart_at_items = false;
  /// Edge weight = rating (true) vs unweighted (false).
  bool weighted_edges = true;
};

/// Personalized PageRank recommender; `discounted` selects DPPR.
class PageRankRecommender : public Recommender {
 public:
  explicit PageRankRecommender(bool discounted,
                               PageRankOptions options = {})
      : discounted_(discounted), options_(options) {}

  std::string name() const override { return discounted_ ? "DPPR" : "PPR"; }
  Status Fit(const Dataset& data) override;
  Result<std::vector<ScoredItem>> RecommendTopK(UserId user,
                                                int k) const override;
  Result<std::vector<double>> ScoreItems(
      UserId user, std::span<const ItemId> items) const override;

  /// Checkpointing: persists the fitted graph + iteration parameters. The
  /// discounted/plain flag is part of the model's identity and must match
  /// on load (PPR and DPPR register separately in the ModelRegistry).
  Status SaveModel(CheckpointWriter& writer) const override;
  Status LoadModel(CheckpointReader& reader, const Dataset& data) override;

  /// The converged PPR vector for a user (one entry per graph node).
  Result<std::vector<double>> ComputePpr(UserId user) const;

 private:
  double ItemScore(const std::vector<double>& ppr, ItemId item) const;

  bool discounted_;
  PageRankOptions options_;
  BipartiteGraph graph_;
  /// Immutable column-stochastic walk plan over `graph_`, built exactly
  /// once at Fit/LoadModel — the same plan/scratch split the serving path
  /// uses for cached subgraphs, applied to the fit-time global graph. The
  /// plan points into `graph_` (which is why this class stays
  /// non-copyable); any number of kernels could adopt it concurrently.
  std::shared_ptr<const WalkPlan> plan_;
  /// Per-object sweep scratch bound to `plan_`: each power iteration is
  /// one kernel Apply (π ← (1-λ)e + λPᵀπ as a row gather) instead of
  /// the old edge-by-edge scatter.
  WalkKernel kernel_;
};

}  // namespace longtail

#endif  // LONGTAIL_BASELINES_PAGERANK_H_
