#include "baselines/katz.h"

#include "data/serialization.h"

namespace longtail {

Status KatzRecommender::Fit(const Dataset& data) {
  if (data_ != nullptr) {
    return Status::FailedPrecondition("Fit() must be called exactly once");
  }
  if (options_.beta <= 0.0) {
    return Status::InvalidArgument("beta must be positive");
  }
  if (options_.max_path_length < 2) {
    return Status::InvalidArgument(
        "max_path_length must be >= 2 to reach items");
  }
  data_ = &data;
  graph_ = BipartiteGraph::FromDataset(data, options_.weighted_edges);
  // Build the immutable plan exactly once, at fit time; queries only sweep.
  auto plan = std::make_shared<WalkPlan>();
  plan->Build(graph_, WalkNormalization::kRaw);
  plan_ = std::move(plan);
  kernel_.AdoptPlan(plan_);
  return Status::OK();
}

Status KatzRecommender::SaveModel(CheckpointWriter& writer) const {
  if (data_ == nullptr) {
    return Status::FailedPrecondition("SaveModel requires a fitted model");
  }
  ChunkWriter options;
  options.Scalar<double>(options_.beta);
  options.Scalar<int32_t>(options_.max_path_length);
  options.Scalar<uint8_t>(options_.weighted_edges ? 1 : 0);
  LT_RETURN_IF_ERROR(writer.WriteChunk(kChunkKatzOptions,
                                       kCheckpointChunkVersion, options));
  ChunkWriter graph;
  graph_.SaveTo(&graph);
  return writer.WriteChunk(kChunkBipartiteGraph, kCheckpointChunkVersion,
                           graph);
}

Status KatzRecommender::LoadModel(CheckpointReader& reader,
                                  const Dataset& data) {
  if (data_ != nullptr) {
    return Status::FailedPrecondition(
        "LoadModel requires an unfitted recommender");
  }
  // Staged locals, committed only on full success — a failed load must
  // not leave checkpoint options behind for a fallback Fit() to train on.
  bool have_options = false;
  bool have_graph = false;
  KatzOptions loaded_options = options_;
  BipartiteGraph loaded_graph;
  ChunkReader chunk;
  while (true) {
    LT_ASSIGN_OR_RETURN(const bool more, reader.Next(&chunk));
    if (!more) break;
    switch (chunk.tag()) {
      case kChunkKatzOptions: {
        if (chunk.version() > kCheckpointChunkVersion) {
          return Status::IOError("unsupported Katz chunk version");
        }
        uint8_t weighted = 0;
        LT_RETURN_IF_ERROR(chunk.Scalar(&loaded_options.beta));
        LT_RETURN_IF_ERROR(chunk.Scalar(&loaded_options.max_path_length));
        LT_RETURN_IF_ERROR(chunk.Scalar(&weighted));
        loaded_options.weighted_edges = weighted != 0;
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
    return Status::IOError("checkpoint is missing the Katz chunks");
  }
  // Same validity rules Fit enforces on constructor options.
  if (loaded_options.beta <= 0.0 || loaded_options.max_path_length < 2) {
    return Status::IOError("checkpoint Katz parameters are invalid");
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
  plan->Build(graph_, WalkNormalization::kRaw);
  plan_ = std::move(plan);
  kernel_.AdoptPlan(plan_);
  data_ = &data;
  return Status::OK();
}

Result<std::vector<double>> KatzRecommender::ComputeKatzVector(
    UserId user) const {
  LT_RETURN_IF_ERROR(CheckQueryUser(data_, user));
  const int32_t n = graph_.num_nodes();
  std::vector<double> frontier(n, 0.0);
  std::vector<double> next(n, 0.0);
  std::vector<double> accum(n, 0.0);
  frontier[graph_.UserNode(user)] = 1.0;
  for (int step = 0; step < options_.max_path_length; ++step) {
    // next = β A · frontier in one kernel Apply: a sparse push while the
    // frontier is small, a row gather over the raw (symmetric)
    // adjacency once activation has spread.
    kernel_.Apply(options_.beta, frontier.data(), 0.0, nullptr, next.data());
    for (int32_t v = 0; v < n; ++v) accum[v] += next[v];
    frontier.swap(next);
  }
  return accum;
}

Result<std::vector<ScoredItem>> KatzRecommender::RecommendTopK(UserId user,
                                                               int k) const {
  LT_ASSIGN_OR_RETURN(std::vector<double> katz, ComputeKatzVector(user));
  std::vector<ScoredItem> candidates;
  candidates.reserve(data_->num_items());
  for (ItemId i = 0; i < data_->num_items(); ++i) {
    if (data_->HasRating(user, i)) continue;
    const double s = katz[graph_.ItemNode(i)];
    if (s <= 0.0) continue;
    candidates.push_back({i, s});
  }
  return TopKScoredItems(std::move(candidates), k);
}

Result<std::vector<double>> KatzRecommender::ScoreItems(
    UserId user, std::span<const ItemId> items) const {
  LT_ASSIGN_OR_RETURN(std::vector<double> katz, ComputeKatzVector(user));
  std::vector<double> scores(items.size());
  for (size_t k = 0; k < items.size(); ++k) {
    if (items[k] < 0 || items[k] >= data_->num_items()) {
      return Status::OutOfRange("candidate item id out of range");
    }
    scores[k] = katz[graph_.ItemNode(items[k])];
  }
  return scores;
}

}  // namespace longtail
