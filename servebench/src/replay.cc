#include "replay.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "check.h"
#include "core/absorbing_cost.h"
#include "graph/markov.h"
#include "graph/subgraph_cache.h"
#include "util/logging.h"

namespace servebench {
namespace {

using longtail::NodeId;
using longtail::Subgraph;
using longtail::WalkKernel;

/// Slice width QueryBatch dispatches when max_fused_width is 0 (probe).
constexpr size_t kSliceCap = 16;

class Replayer {
 public:
  Replayer(size_t cache_bytes, ReplayStats* stats) : stats_(stats) {
    longtail::SubgraphCacheOptions options;
    options.max_bytes = cache_bytes;
    cache_ = std::make_unique<longtail::SubgraphCache>(options);
  }

  /// One dispatched slice: members share `seeds` (QueryBatch's grouping).
  void Slice(const longtail::GraphRecommenderBase& model,
             const std::vector<NodeId>& seeds, const BatchRecord& batch,
             const std::vector<size_t>& members) {
    const longtail::BipartiteGraph& graph = model.graph();
    longtail::SubgraphOptions sub_options;
    sub_options.max_items = model.options().max_subgraph_items;

    const uint64_t hits_before = cache_->Stats().hits;
    const TimePoint t0 = Clock::now();
    cache_->GetOrExtract(graph, seeds, sub_options, &ws_);
    const double lookup_s = Seconds(t0, Clock::now());
    if (cache_->Stats().hits > hits_before) {
      ++stats_->hits;
      stats_->lookup_hit_s += lookup_s;
    } else {
      ++stats_->misses;
      const TimePoint t1 = Clock::now();
      longtail::ExtractSubgraphInto(graph, seeds, sub_options, &scratch_);
      const TimePoint t2 = Clock::now();
      scratch_.kernel.BuildTransitions(
          scratch_.sub().graph, WalkKernel::Normalization::kRowStochastic);
      const TimePoint t3 = Clock::now();
      const double extract_s = Seconds(t1, t2);
      stats_->extract_s += extract_s;
      stats_->admit_s += std::max(0.0, lookup_s - extract_s);
      stats_->plan_build_s += Seconds(t2, t3);
    }

    const Subgraph& sub = ws_.sub();
    NodeCosts(model, sub);
    if (sub.plan != nullptr) {
      ws_.kernel.AdoptPlan(sub.plan);
    } else {
      ws_.kernel.BuildTransitions(
          sub.graph, WalkKernel::Normalization::kRowStochastic, sub.layout);
    }
    const int tau = model.options().iterations;
    const int32_t n = sub.graph.num_nodes();
    const double edges = static_cast<double>(sub.graph.num_edges());
    // Computed, not measured: each ranking-sweep step streams the CSR rows
    // of one side (half the directed entries, 4-byte column + 8-byte
    // weight each, plus 8-byte row pointers), once per fused sweep.
    const double sweep_bytes =
        tau * (edges * 12.0 + (static_cast<double>(n) + 1.0) * 4.0);
    const size_t cap = static_cast<size_t>(WalkKernel::FusedWidthCap(n));
    for (size_t begin = 0; begin < members.size(); begin += cap) {
      const size_t width = std::min(cap, members.size() - begin);
      stats_->sweep_bytes += sweep_bytes;
      stats_->sweep_edges += static_cast<double>(width) * tau * edges;
      if (width == 1) {
        const Request& q = batch.queries[members[begin]];
        Flags(model, sub, q.user, &ws_.absorbing);
        const TimePoint a = Clock::now();
        ws_.kernel.CompileAbsorbingSweep(ws_.absorbing, ws_.node_costs);
        const TimePoint b = Clock::now();
        ws_.kernel.SweepTruncatedItemValues(tau, &ws_.values);
        const TimePoint c = Clock::now();
        stats_->compile_s += Seconds(a, b);
        stats_->sweep_s += Seconds(b, c);
        Serve(model, sub, ws_.values, batch, members[begin]);
        continue;
      }
      ws_.batch_absorbing.resize(width);
      for (size_t l = 0; l < width; ++l) {
        Flags(model, sub, batch.queries[members[begin + l]].user,
              &ws_.batch_absorbing[l]);
      }
      const TimePoint a = Clock::now();
      ws_.kernel.CompileAbsorbingSweepBatch(ws_.batch_absorbing,
                                            ws_.node_costs);
      const TimePoint b = Clock::now();
      ws_.kernel.SweepTruncatedItemValuesBatch(tau, &ws_.values_block);
      const TimePoint c = Clock::now();
      stats_->compile_s += Seconds(a, b);
      stats_->sweep_s += Seconds(b, c);
      for (size_t l = 0; l < width; ++l) {
        lane_.resize(static_cast<size_t>(n));
        for (int32_t v = 0; v < n; ++v) {
          lane_[v] = ws_.values_block[static_cast<size_t>(v) * width + l];
        }
        Serve(model, sub, lane_, batch, members[begin + l]);
      }
    }
  }

 private:
  /// AbsorbingTimeRecommender::AbsorbingFlags: the user's rated items.
  static void Flags(const longtail::GraphRecommenderBase& model,
                    const Subgraph& sub, UserId user,
                    std::vector<bool>* absorbing) {
    absorbing->assign(static_cast<size_t>(sub.graph.num_nodes()), false);
    for (ItemId item : model.dataset()->UserItems(user)) {
      const NodeId local = sub.LocalItemNode(item);
      LT_CHECK_GE(local, 0) << "rated item must be in its own subgraph";
      (*absorbing)[static_cast<size_t>(local)] = true;
    }
  }

  /// Unit costs (AT) or the Eq. 9 entropy costs (AC1/AC2).
  void NodeCosts(const longtail::GraphRecommenderBase& model,
                 const Subgraph& sub) {
    const auto* ac =
        dynamic_cast<const longtail::AbsorbingCostRecommender*>(&model);
    if (ac == nullptr) {
      ws_.node_costs.assign(static_cast<size_t>(sub.graph.num_nodes()), 1.0);
      return;
    }
    std::vector<double> local_entropy(sub.users.size());
    for (size_t lu = 0; lu < sub.users.size(); ++lu) {
      local_entropy[lu] = ac->user_entropy()[sub.users[lu]];
    }
    longtail::EntropyNodeCostsInto(sub.graph, local_entropy,
                                   ac->resolved_user_jump_cost(),
                                   &ws_.node_costs);
  }

  /// GraphRecommenderBase::ServeFromWalk, checked against the served
  /// result.
  void Serve(const longtail::GraphRecommenderBase& model, const Subgraph& sub,
             const std::vector<double>& values, const BatchRecord& batch,
             size_t index) {
    const Request& q = batch.queries[index];
    const longtail::Dataset& data = *model.dataset();
    longtail::UserQueryResult out;
    if (q.top_k > 0) {
      const TimePoint a = Clock::now();
      const size_t num_local_users = sub.users.size();
      std::vector<longtail::ScoredItem> candidates;
      candidates.reserve(sub.items.size());
      for (size_t li = 0; li < sub.items.size(); ++li) {
        const ItemId item = sub.items[li];
        if (data.HasRating(q.user, item)) continue;
        const double value = values[num_local_users + li];
        if (!std::isfinite(value)) continue;
        candidates.push_back({item, -value});
      }
      out.top_k = longtail::TopKScoredItems(std::move(candidates), q.top_k);
      stats_->topk_s += Seconds(a, Clock::now());
      ++stats_->topk_queries;
    }
    for (ItemId item : q.items) {
      const NodeId local = sub.LocalItemNode(item);
      const double value =
          local >= 0 ? values[static_cast<size_t>(local)] : INFINITY;
      out.scores.push_back(std::isfinite(value) ? -value
                                                : longtail::kUnreachableScore);
    }
    ++stats_->queries;
    const std::string diff =
        CompareResults(batch.results[index], out, Equality::kBits);
    if (!diff.empty() && stats_->mismatches++ == 0) {
      stats_->first_mismatch = "replay of user " + std::to_string(q.user) +
                               ": " + diff;
    }
  }

  ReplayStats* stats_;
  std::unique_ptr<longtail::SubgraphCache> cache_;
  longtail::WalkWorkspace ws_;
  longtail::WalkWorkspace scratch_;
  std::vector<double> lane_;
};

}  // namespace

ReplayStats Replay(const std::vector<BatchRecord>& batches,
                   const std::vector<const longtail::GraphRecommenderBase*>&
                       models,
                   size_t cache_bytes) {
  ReplayStats stats;
  Replayer replayer(cache_bytes, &stats);
  for (const BatchRecord& batch : batches) {
    if (batch.phase != Phase::kOpen) continue;
    const longtail::GraphRecommenderBase& model =
        *models[static_cast<size_t>(batch.model)];
    // QueryBatch's phase A: group the batch by exact seed set.
    std::map<std::vector<NodeId>, std::vector<size_t>> by_seeds;
    for (size_t i = 0; i < batch.queries.size(); ++i) {
      const UserId user = batch.queries[i].user;
      std::vector<NodeId> seeds{model.graph().UserNode(user)};
      for (ItemId item : model.dataset()->UserItems(user)) {
        seeds.push_back(model.graph().ItemNode(item));
      }
      by_seeds[std::move(seeds)].push_back(i);
    }
    for (const auto& [seeds, members] : by_seeds) {
      for (size_t b = 0; b < members.size(); b += kSliceCap) {
        const std::vector<size_t> slice(
            members.begin() + static_cast<std::ptrdiff_t>(b),
            members.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(members.size(), b + kSliceCap)));
        replayer.Slice(model, seeds, batch, slice);
      }
    }
  }
  return stats;
}

}  // namespace servebench
