#include "stack.h"

#include <algorithm>
#include <charconv>

#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "serving/model_registry.h"

namespace servebench {

using longtail::Result;
using longtail::Status;

longtail::GraphWalkOptions WalkOptions(const longtail::Dataset& data) {
  longtail::GraphWalkOptions walk;
  walk.iterations = 15;
  walk.max_subgraph_items = std::max<int32_t>(
      60, static_cast<int32_t>(0.067 * data.num_items()));
  return walk;
}

Result<std::unique_ptr<longtail::GraphRecommenderBase>> FitModel(
    const std::string& name, const longtail::Dataset& data) {
  std::unique_ptr<longtail::GraphRecommenderBase> model;
  if (name == "AT") {
    model = std::make_unique<longtail::AbsorbingTimeRecommender>(
        WalkOptions(data));
  } else if (name == "AC2") {
    longtail::AbsorbingCostOptions options;
    options.walk = WalkOptions(data);
    model = std::make_unique<longtail::AbsorbingCostRecommender>(
        longtail::EntropySource::kTopicBased, options);
  } else {
    return Status::InvalidArgument("no such model: " + name);
  }
  LT_RETURN_IF_ERROR(model->Fit(data));
  return model;
}

Result<std::unique_ptr<ServingStack>> ServingStack::Build(
    const WorkloadSpec& spec, const longtail::Dataset& data,
    const std::string& checkpoint_dir, const std::vector<Request>& warm,
    int connections, Tracer* tracer) {
  std::unique_ptr<ServingStack> stack(new ServingStack(tracer));
  longtail::SubgraphCacheOptions cache_options;
  cache_options.max_bytes = kCacheBytes;
  stack->cache_ = std::make_unique<longtail::SubgraphCache>(cache_options);
  longtail::ServingEngineOptions engine_options;
  engine_options.max_batch_size = kMaxBatch;
  engine_options.max_queue_depth = kQueueDepth;
  engine_options.flush_interval_ticks = 1;
  engine_options.subgraph_cache = stack->cache_.get();
  engine_options.metrics = &stack->registry_;
  stack->engine_ = std::make_unique<longtail::ServingEngine>(engine_options);

  if (!spec.http) {
    for (const std::string& name : spec.models) {
      LT_ASSIGN_OR_RETURN(auto model, FitModel(name, data));
      stack->models_.push_back(std::move(model));
    }
  } else {
    const TimePoint t0 = Clock::now();
    if (tracer == nullptr) {
      // The deployed cold start: every checkpoint in the directory.
      LT_ASSIGN_OR_RETURN(
          const std::vector<std::string> names,
          longtail::LoadCheckpointDirIntoEngine(checkpoint_dir, data,
                                                stack->engine_.get()));
      if (names.size() != spec.models.size()) {
        return Status::FailedPrecondition("checkpoint directory holds " +
                                          std::to_string(names.size()) +
                                          " loadable models");
      }
    } else {
      // Traced: load the same files one by one so each can be shimmed.
      for (const std::string& name : spec.models) {
        LT_ASSIGN_OR_RETURN(
            auto model, longtail::LoadModelCheckpoint(
                            checkpoint_dir + "/" + name + ".ckpt", data));
        stack->models_.push_back(std::move(model));
      }
    }
    stack->checkpoint_load_s_ = Seconds(t0, Clock::now());
  }
  for (size_t m = 0; m < stack->models_.size(); ++m) {
    const longtail::Recommender* served = stack->models_[m].get();
    if (tracer != nullptr) {
      stack->shims_.push_back(std::make_unique<TracedRecommender>(
          served, static_cast<int>(m), tracer));
      served = stack->shims_.back().get();
    }
    LT_RETURN_IF_ERROR(stack->engine_->AddModel(served));
  }
  if (spec.http) LT_RETURN_IF_ERROR(stack->StartHttp(connections));
  LT_RETURN_IF_ERROR(stack->Warm(spec, warm));
  return stack;
}

ServingStack::~ServingStack() {
  if (server_ != nullptr) server_->Stop();
}

Status ServingStack::StartHttp(int connections) {
  longtail::ServingHttpFrontOptions front_options;
  front_options.ready_at_start = true;  // models are registered
  front_ = std::make_unique<longtail::ServingHttpFront>(engine_.get(),
                                                        front_options);
  longtail::HttpServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = static_cast<size_t>(connections);
  server_options.metrics = engine_->metrics();
  longtail::ServingHttpFront* front = front_.get();
  longtail::HttpDispatchFn dispatch =
      [front](const longtail::RequestContext& ctx) {
        return front->Dispatch(ctx);
      };
  if (tracer_ != nullptr) {
    // The handler wrapper: times Dispatch and tags it with the request id
    // the load generator put in X-Bench-Request.
    dispatch = [front, tracer = tracer_](const longtail::RequestContext& ctx) {
      int64_t id = -1;
      if (const std::string* tag = ctx.request.FindHeader("x-bench-request")) {
        std::from_chars(tag->data(), tag->data() + tag->size(), id);
      }
      const TimePoint begin = Clock::now();
      if (id >= 0) tracer->OnSubmit(id);
      longtail::HttpResponse response = front->Dispatch(ctx);
      if (id >= 0) tracer->OnDispatch(id, begin, Clock::now());
      return response;
    };
  }
  server_ = std::make_unique<longtail::HttpServer>(std::move(dispatch),
                                                   server_options);
  return server_->Start();
}

Status ServingStack::Warm(const WorkloadSpec& spec,
                          const std::vector<Request>& warm) {
  for (size_t m = 0; m < spec.models.size(); ++m) {
    std::vector<longtail::ServeRequest> serve;
    for (const Request& r : warm) {
      if (r.model == static_cast<int>(m)) serve.push_back(r.Serve());
    }
    for (const auto& result : engine_->QueryAll(spec.models[m], serve)) {
      LT_RETURN_IF_ERROR(result.status);
    }
  }
  return Status::OK();
}

}  // namespace servebench
