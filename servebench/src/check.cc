#include "check.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>

namespace servebench {

namespace {

bool Same(double a, double b, Equality equality) {
  return equality == Equality::kValue
             ? a == b
             : std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

std::string CompareResults(const longtail::UserQueryResult& served,
                           const longtail::UserQueryResult& expected,
                           Equality equality) {
  if (!served.status.ok() || !expected.status.ok()) {
    return "status served=" + served.status.ToString() +
           " expected=" + expected.status.ToString();
  }
  if (served.top_k.size() != expected.top_k.size()) {
    return "top-k length " + std::to_string(served.top_k.size()) + " vs " +
           std::to_string(expected.top_k.size());
  }
  for (size_t i = 0; i < served.top_k.size(); ++i) {
    if (served.top_k[i].item != expected.top_k[i].item ||
        !Same(served.top_k[i].score, expected.top_k[i].score, equality)) {
      return "top-k rank " + std::to_string(i) + ": item " +
             std::to_string(served.top_k[i].item) + " vs " +
             std::to_string(expected.top_k[i].item);
    }
  }
  if (served.scores.size() != expected.scores.size()) {
    return "score count " + std::to_string(served.scores.size()) + " vs " +
           std::to_string(expected.scores.size());
  }
  for (size_t i = 0; i < served.scores.size(); ++i) {
    if (!Same(served.scores[i], expected.scores[i], equality)) {
      char values[96];
      std::snprintf(values, sizeof(values), "%.17g vs %.17g",
                    served.scores[i], expected.scores[i]);
      return "score " + std::to_string(i) + ": " + values;
    }
  }
  return "";
}

size_t ReferenceOracle::Check(
    const std::vector<const Request*>& requests,
    const std::vector<const longtail::UserQueryResult*>& served,
    Equality equality, std::string* first) {
  // Uncached reference for every query not seen yet, batched per model.
  std::vector<std::vector<Key>> todo(models_.size());
  for (const Request* r : requests) {
    Key key = KeyOf(*r);
    if (cache_.emplace(key, longtail::UserQueryResult{}).second) {
      todo[static_cast<size_t>(r->model)].push_back(std::move(key));
    }
  }
  constexpr size_t kChunk = 256;
  for (size_t m = 0; m < models_.size(); ++m) {
    for (size_t begin = 0; begin < todo[m].size(); begin += kChunk) {
      const size_t end = std::min(todo[m].size(), begin + kChunk);
      std::vector<longtail::UserQuery> queries;
      for (size_t i = begin; i < end; ++i) {
        const Key& key = todo[m][i];
        longtail::UserQuery q;
        q.user = std::get<1>(key);
        q.top_k = std::get<2>(key);
        q.score_items = std::get<3>(key);
        queries.push_back(q);
      }
      // No subgraph cache: every query extracts its own subgraph.
      std::vector<longtail::UserQueryResult> results =
          models_[m]->QueryBatch(queries, longtail::BatchOptions{});
      for (size_t i = begin; i < end; ++i) {
        cache_[todo[m][i]] = std::move(results[i - begin]);
      }
    }
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::string diff =
        CompareResults(*served[i], cache_.at(KeyOf(*requests[i])), equality);
    if (diff.empty()) continue;
    if (mismatches++ == 0 && first != nullptr) {
      *first = "model " + std::to_string(requests[i]->model) + " user " +
               std::to_string(requests[i]->user) + ": " + diff;
    }
  }
  return mismatches;
}

}  // namespace servebench
