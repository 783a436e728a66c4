#include "baselines/pagerank.h"

#include <cmath>

#include "data/serialization.h"

namespace longtail {

Status PageRankRecommender::Fit(const Dataset& data) {
  if (data_ != nullptr) {
    return Status::FailedPrecondition("Fit() must be called exactly once");
  }
  if (options_.damping <= 0.0 || options_.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in (0, 1)");
  }
  data_ = &data;
  graph_ = BipartiteGraph::FromDataset(data, options_.weighted_edges);
  // Build the immutable plan exactly once, at fit time; every power
  // iteration afterwards is pure sweep work against shared state.
  auto plan = std::make_shared<WalkPlan>();
  plan->Build(graph_, WalkNormalization::kColumnStochastic);
  plan_ = std::move(plan);
  kernel_.AdoptPlan(plan_);
  return Status::OK();
}

Status PageRankRecommender::SaveModel(CheckpointWriter& writer) const {
  if (data_ == nullptr) {
    return Status::FailedPrecondition("SaveModel requires a fitted model");
  }
  ChunkWriter options;
  options.Scalar<double>(options_.damping);
  options.Scalar<double>(options_.tolerance);
  options.Scalar<int32_t>(options_.max_iterations);
  options.Scalar<uint8_t>(options_.restart_at_items ? 1 : 0);
  options.Scalar<uint8_t>(options_.weighted_edges ? 1 : 0);
  options.Scalar<uint8_t>(discounted_ ? 1 : 0);
  LT_RETURN_IF_ERROR(writer.WriteChunk(kChunkPageRankOptions,
                                       kCheckpointChunkVersion, options));
  ChunkWriter graph;
  graph_.SaveTo(&graph);
  return writer.WriteChunk(kChunkBipartiteGraph, kCheckpointChunkVersion,
                           graph);
}

Status PageRankRecommender::LoadModel(CheckpointReader& reader,
                                      const Dataset& data) {
  if (data_ != nullptr) {
    return Status::FailedPrecondition(
        "LoadModel requires an unfitted recommender");
  }
  // Staged locals, committed only on full success — a failed load must
  // not leave checkpoint options behind for a fallback Fit() to train on.
  bool have_options = false;
  bool have_graph = false;
  PageRankOptions loaded_options = options_;
  BipartiteGraph loaded_graph;
  ChunkReader chunk;
  while (true) {
    LT_ASSIGN_OR_RETURN(const bool more, reader.Next(&chunk));
    if (!more) break;
    switch (chunk.tag()) {
      case kChunkPageRankOptions: {
        if (chunk.version() > kCheckpointChunkVersion) {
          return Status::IOError("unsupported PageRank chunk version");
        }
        uint8_t restart_at_items = 0;
        uint8_t weighted = 0;
        uint8_t discounted = 0;
        LT_RETURN_IF_ERROR(chunk.Scalar(&loaded_options.damping));
        LT_RETURN_IF_ERROR(chunk.Scalar(&loaded_options.tolerance));
        LT_RETURN_IF_ERROR(chunk.Scalar(&loaded_options.max_iterations));
        LT_RETURN_IF_ERROR(chunk.Scalar(&restart_at_items));
        LT_RETURN_IF_ERROR(chunk.Scalar(&weighted));
        LT_RETURN_IF_ERROR(chunk.Scalar(&discounted));
        loaded_options.restart_at_items = restart_at_items != 0;
        loaded_options.weighted_edges = weighted != 0;
        if ((discounted != 0) != discounted_) {
          return Status::InvalidArgument(
              "checkpoint holds a " +
              std::string(discounted != 0 ? "DPPR" : "PPR") +
              " model, not " + name());
        }
        have_options = true;
        break;
      }
      case kChunkBipartiteGraph: {
        if (chunk.version() > kCheckpointChunkVersion) {
          return Status::IOError("unsupported graph chunk version");
        }
        LT_ASSIGN_OR_RETURN(loaded_graph, BipartiteGraph::LoadFrom(&chunk));
        have_graph = true;
        break;
      }
      default:
        break;  // Unknown chunk: skip (forward compatibility).
    }
  }
  if (!have_options || !have_graph) {
    return Status::IOError("checkpoint is missing the " + name() +
                           " chunks");
  }
  if (loaded_options.damping <= 0.0 || loaded_options.damping >= 1.0) {
    return Status::IOError("checkpoint damping outside (0, 1)");
  }
  if (loaded_graph.num_users() != data.num_users() ||
      loaded_graph.num_items() != data.num_items()) {
    return Status::InvalidArgument(
        "checkpoint graph shape does not match the dataset");
  }
  options_ = loaded_options;
  graph_ = std::move(loaded_graph);
  // Same plan-at-load rule as Fit: one build, then queries only sweep.
  auto plan = std::make_shared<WalkPlan>();
  plan->Build(graph_, WalkNormalization::kColumnStochastic);
  plan_ = std::move(plan);
  kernel_.AdoptPlan(plan_);
  data_ = &data;
  return Status::OK();
}

Result<std::vector<double>> PageRankRecommender::ComputePpr(
    UserId user) const {
  LT_RETURN_IF_ERROR(CheckQueryUser(data_, user));
  const int32_t n = graph_.num_nodes();
  std::vector<double> restart(n, 0.0);
  if (options_.restart_at_items) {
    const auto items = data_->UserItems(user);
    if (items.empty()) {
      return Status::FailedPrecondition("user " + std::to_string(user) +
                                        " has no ratings");
    }
    const double p = 1.0 / static_cast<double>(items.size());
    for (ItemId i : items) restart[graph_.ItemNode(i)] = p;
  } else {
    restart[graph_.UserNode(user)] = 1.0;
  }

  const double lambda = options_.damping;
  std::vector<double> pi = restart;
  std::vector<double> next(n, 0.0);
  for (int it = 0; it < options_.max_iterations; ++it) {
    // next = (1-λ) restart + λ Pᵀ π in one kernel Apply: a sparse push
    // while π is concentrated (early iterations), a row gather over
    // the column-stochastic transition CSR once it has spread.
    kernel_.Apply(lambda, pi.data(), 1.0 - lambda, restart.data(),
                  next.data());
    double delta = 0.0;
    for (int32_t v = 0; v < n; ++v) delta += std::abs(next[v] - pi[v]);
    pi.swap(next);
    if (delta < options_.tolerance) break;
  }
  return pi;
}

double PageRankRecommender::ItemScore(const std::vector<double>& ppr,
                                      ItemId item) const {
  const double value = ppr[graph_.ItemNode(item)];
  if (!discounted_) return value;
  const int32_t pop = data_->ItemPopularity(item);
  // Unrated items have PPR 0 and popularity 0; keep them at 0 (Eq. 15 is
  // undefined there, and such items are unreachable anyway).
  return pop > 0 ? value / static_cast<double>(pop) : 0.0;
}

Result<std::vector<ScoredItem>> PageRankRecommender::RecommendTopK(
    UserId user, int k) const {
  LT_ASSIGN_OR_RETURN(std::vector<double> ppr, ComputePpr(user));
  std::vector<ScoredItem> candidates;
  candidates.reserve(data_->num_items());
  for (ItemId i = 0; i < data_->num_items(); ++i) {
    if (data_->HasRating(user, i)) continue;
    const double s = ItemScore(ppr, i);
    if (s <= 0.0) continue;  // Unreachable from the restart set.
    candidates.push_back({i, s});
  }
  return TopKScoredItems(std::move(candidates), k);
}

Result<std::vector<double>> PageRankRecommender::ScoreItems(
    UserId user, std::span<const ItemId> items) const {
  LT_ASSIGN_OR_RETURN(std::vector<double> ppr, ComputePpr(user));
  std::vector<double> scores(items.size());
  for (size_t k = 0; k < items.size(); ++k) {
    if (items[k] < 0 || items[k] >= data_->num_items()) {
      return Status::OutOfRange("candidate item id out of range");
    }
    scores[k] = ItemScore(ppr, items[k]);
  }
  return scores;
}

}  // namespace longtail
