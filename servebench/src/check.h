// The correctness gate: served results against a direct, uncached
// QueryBatch on the reference models (fitted once per run, outside set-up).
// In-process results must match bit for bit — item ids and the exact
// score doubles. HTTP results are compared after their JSON round trip by
// IEEE equality: the front's JSON writer prints -0.0 (the score of an
// absorbing, already-rated candidate) as 0, which equals but is not
// bit-identical to -0.0; every other difference still fails.
#ifndef LONGTAIL_SERVEBENCH_CHECK_H_
#define LONGTAIL_SERVEBENCH_CHECK_H_

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/recommender.h"
#include "traffic.h"

namespace servebench {

enum class Equality { kBits, kValue };

/// Empty when equal, else a description of the first difference.
std::string CompareResults(const longtail::UserQueryResult& served,
                           const longtail::UserQueryResult& expected,
                           Equality equality);

class ReferenceOracle {
 public:
  /// `models` by workload model index; they must outlive the oracle.
  explicit ReferenceOracle(std::vector<const longtail::Recommender*> models)
      : models_(std::move(models)) {}

  /// Compares each (request, served result) pair with the reference,
  /// computing each distinct query once. Returns the mismatch count and
  /// describes the first in `*first`.
  size_t Check(const std::vector<const Request*>& requests,
               const std::vector<const longtail::UserQueryResult*>& served,
               Equality equality, std::string* first);

 private:
  using Key = std::tuple<int, UserId, int, std::vector<ItemId>>;
  static Key KeyOf(const Request& r) {
    return {r.model, r.user, r.top_k, r.items};
  }
  std::vector<const longtail::Recommender*> models_;
  std::map<Key, longtail::UserQueryResult> cache_;
};

}  // namespace servebench

#endif  // LONGTAIL_SERVEBENCH_CHECK_H_
