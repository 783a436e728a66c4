// One serving stack — models, SubgraphCache, ServingEngine and, for HTTP
// workloads, the loopback HttpServer + ServingHttpFront — built and warmed
// exactly the way set-up is timed.
#ifndef LONGTAIL_SERVEBENCH_STACK_H_
#define LONGTAIL_SERVEBENCH_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "core/graph_recommender_base.h"
#include "graph/subgraph_cache.h"
#include "http/http_server.h"
#include "http/serving_http.h"
#include "serving/serving_engine.h"
#include "tracer.h"
#include "traffic.h"

namespace servebench {

/// Engine and cache settings shared by every workload (those of the
/// repository's bench_load).
inline constexpr size_t kCacheBytes = size_t{1} << 29;  // 512 MiB
inline constexpr size_t kMaxBatch = 32;
inline constexpr size_t kQueueDepth = 256;

/// The walk configuration every model uses: τ = 15, µ = 6.7% of items.
longtail::GraphWalkOptions WalkOptions(const longtail::Dataset& data);

/// Fits the named model ("AT" or "AC2") on `data`.
longtail::Result<std::unique_ptr<longtail::GraphRecommenderBase>> FitModel(
    const std::string& name, const longtail::Dataset& data);

class ServingStack {
 public:
  /// Builds the stack for `spec`: direct workloads fit their model, HTTP
  /// workloads load every checkpoint in `checkpoint_dir` and start the
  /// loopback server on `connections` workers; then the warm-up pass runs.
  /// With a tracer, models are wrapped in TracedRecommender shims and the
  /// HTTP dispatch reports to the tracer.
  static longtail::Result<std::unique_ptr<ServingStack>> Build(
      const WorkloadSpec& spec, const longtail::Dataset& data,
      const std::string& checkpoint_dir, const std::vector<Request>& warm,
      int connections, Tracer* tracer);

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;
  ~ServingStack();

  /// Starts the loopback HTTP front on this stack's engine (already done
  /// by Build for HTTP workloads).
  longtail::Status StartHttp(int connections);

  longtail::ServingEngine& engine() { return *engine_; }
  longtail::SubgraphCache& cache() { return *cache_; }
  uint16_t port() const { return server_ != nullptr ? server_->port() : 0; }
  /// Seconds spent loading checkpoints inside Build (0 for fitted models).
  double checkpoint_load_s() const { return checkpoint_load_s_; }

 private:
  explicit ServingStack(Tracer* tracer) : tracer_(tracer) {}
  longtail::Status Warm(const WorkloadSpec& spec,
                        const std::vector<Request>& warm);

  Tracer* tracer_;
  double checkpoint_load_s_ = 0.0;
  // Declaration order is destruction order reversed: the server stops
  // before the front and engine it calls into, the engine before the cache
  // and the (shimmed) models it serves.
  std::vector<std::unique_ptr<longtail::Recommender>> models_;
  std::vector<std::unique_ptr<TracedRecommender>> shims_;
  longtail::MetricsRegistry registry_;
  std::unique_ptr<longtail::SubgraphCache> cache_;
  std::unique_ptr<longtail::ServingEngine> engine_;
  std::unique_ptr<longtail::ServingHttpFront> front_;
  std::unique_ptr<longtail::HttpServer> server_;
};

}  // namespace servebench

#endif  // LONGTAIL_SERVEBENCH_STACK_H_
