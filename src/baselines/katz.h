// Katz-index proximity baseline (§3.2 of the paper discusses Katz among the
// random-walk proximities that "can not challenge long tail item
// recommendation" because they ignore item popularity).
//
//   Katz(q, j) = Σ_{ℓ≥1} β^ℓ · (weighted #paths of length ℓ from q to j)
//
// computed by truncated spreading activation x_{ℓ+1} = β A x_ℓ from the
// query user node. Provided as an extra baseline to demonstrate that claim
// empirically (see bench_ablation_truncation and the extra-baseline suite).
#ifndef LONGTAIL_BASELINES_KATZ_H_
#define LONGTAIL_BASELINES_KATZ_H_

#include "core/recommender.h"
#include "graph/bipartite_graph.h"
#include "graph/walk_kernel.h"

namespace longtail {

struct KatzOptions {
  /// Attenuation per edge; must satisfy β < 1/σ_max(A) for the infinite
  /// series — irrelevant under truncation but kept small so long paths
  /// cannot dominate.
  double beta = 0.01;
  /// Truncation: only paths up to this length are counted (must be ≥ 2 to
  /// reach any unrated item from a user).
  int max_path_length = 6;
  bool weighted_edges = true;
};

/// Truncated Katz-index recommender.
class KatzRecommender : public Recommender {
 public:
  explicit KatzRecommender(KatzOptions options = {}) : options_(options) {}

  std::string name() const override { return "Katz"; }
  Status Fit(const Dataset& data) override;
  Result<std::vector<ScoredItem>> RecommendTopK(UserId user,
                                                int k) const override;
  Result<std::vector<double>> ScoreItems(
      UserId user, std::span<const ItemId> items) const override;

  /// Checkpointing: persists the fitted graph + attenuation parameters.
  Status SaveModel(CheckpointWriter& writer) const override;
  Status LoadModel(CheckpointReader& reader, const Dataset& data) override;

  /// The accumulated Katz vector over all graph nodes for a query user.
  Result<std::vector<double>> ComputeKatzVector(UserId user) const;

 private:
  KatzOptions options_;
  BipartiteGraph graph_;
  /// Immutable raw-weight walk plan over `graph_`, built exactly once at
  /// Fit/LoadModel (the serving path's plan/scratch split applied to the
  /// fit-time global graph). Points into `graph_`, which makes the class
  /// intentionally non-copyable.
  std::shared_ptr<const WalkPlan> plan_;
  /// Sweep scratch bound to `plan_`: each spreading-activation step
  /// x ← βAx is one kernel Apply (row gather over the symmetric
  /// adjacency).
  WalkKernel kernel_;
};

}  // namespace longtail

#endif  // LONGTAIL_BASELINES_KATZ_H_
