// Span recorder for the traced run, and the forwarding Recommender shim
// that lets the benchmark see the serving → core boundary from outside.
//
// Nothing here lives in the program under test: the shim is registered
// into the ServingEngine in place of the real model and forwards every call
// to it, timing QueryBatch and counting fused sweep widths on the way. The
// HTTP dispatch wrapper (stack.cc) and the load generator report the other
// boundaries. Each open-loop request ends up with these spans:
//
//   request                     scheduled arrival → result observed
//     loadgen.late              scheduled arrival → actual send
//     http.transport            send → dispatch entry; dispatch exit → reply
//     http.dispatch             ServingHttpFront::Dispatch
//       serving.queue_wait      submit (HTTP: dispatch entry) → batch entry
//       core.batch              the micro-batch's QueryBatch call
//       serving.handoff         batch return → result observed (HTTP:
//                               → dispatch exit, which includes encoding)
//
// (Direct workloads have no http.* spans; their serving/core spans hang off
// the request.) Spans are kept in memory and written out at the end.
#ifndef LONGTAIL_SERVEBENCH_TRACER_H_
#define LONGTAIL_SERVEBENCH_TRACER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "core/recommender.h"
#include "traffic.h"

namespace servebench {

/// Request-level spans are recorded in two windows: the open loop, and the
/// loopback HTTP probe a direct workload's traced run adds afterwards.
enum class Phase { kIdle = 0, kOpen = 1, kSaturation = 2, kProbe = 3 };

/// One micro-batch as the shim saw it. Queries and results are copied only
/// during the open-loop window (they feed the replay).
struct BatchRecord {
  int model = 0;
  Phase phase = Phase::kIdle;
  TimePoint begin, end;
  size_t size = 0;
  std::vector<Request> queries;      // model/user/top_k/items only
  std::vector<longtail::UserQueryResult> results;
};

struct Span {
  int64_t id = 0;
  int64_t parent = -1;  // -1: root
  int64_t request = 0;
  std::string name;
  double start_ms = 0.0;  // from the open-loop window start
  double end_ms = 0.0;
};

/// Self time per layer (the name prefix before '.'), summed over requests.
struct Attribution {
  std::map<std::string, double> self_ms;
  double request_ms = 0.0;       // sum of root spans
  double unattributed_ms = 0.0;  // root time no child span covers
  size_t requests = 0;
};

class Tracer {
 public:
  /// `open` is the open-loop request list; request id = index (the probe
  /// replays a prefix of it under the same ids).
  explicit Tracer(const std::vector<Request>* open) : open_(open) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void SetPhase(Phase phase) { phase_.store(phase); }
  Phase phase() const { return phase_.load(); }

  /// The request enters the serving layer — about to be submitted
  /// (direct) or inside the HTTP dispatch (HTTP): stamps the queue-wait
  /// start and registers the request for matching with its batch entry.
  void OnSubmit(int64_t id);
  void OnDispatch(int64_t id, TimePoint begin, TimePoint end);
  /// Client-side marks; `ok` false drops a never-dispatched registration.
  void OnClient(int64_t id, TimePoint scheduled, TimePoint sent,
                TimePoint done, bool ok);

  /// Shim hooks. BatchBegin returns the batch index for BatchEnd.
  size_t BatchBegin(int model, std::span<const longtail::UserQuery> queries,
                    TimePoint t);
  void BatchEnd(size_t batch,
                const std::vector<longtail::UserQueryResult>& results,
                TimePoint t);
  /// Called concurrently from pool workers, once per fused sweep.
  void ObserveWidth(int32_t width) {
    const int p = static_cast<int>(phase_.load(std::memory_order_relaxed));
    sweeps_[p].fetch_add(1, std::memory_order_relaxed);
    lanes_[p].fetch_add(static_cast<uint64_t>(width),
                        std::memory_order_relaxed);
  }
  uint64_t fused_sweeps(Phase p) const {
    return sweeps_[static_cast<int>(p)].load();
  }
  uint64_t fused_lanes(Phase p) const {
    return lanes_[static_cast<int>(p)].load();
  }

  // Read after the traced phases, once no traffic is in flight.
  const std::vector<BatchRecord>& batches() const { return batches_; }
  size_t unmatched_queries() const { return unmatched_; }
  /// HTTP dispatch (begin, end) by request id in a window.
  const std::map<int64_t, std::pair<TimePoint, TimePoint>>& dispatch_log(
      Phase window) const {
    return windows_[WindowOf(window)].dispatch;
  }
  /// Per-request spans of a window, relative to `origin`.
  std::vector<Span> Spans(Phase window, TimePoint origin) const;

 private:
  struct Marks {
    TimePoint scheduled, sent, done, submit;
    bool complete = false;
    int64_t batch = -1;
  };
  using Key = std::tuple<int, UserId, int, size_t>;
  struct Window {
    std::map<int64_t, Marks> marks;
    std::map<Key, std::deque<int64_t>> pending;
    std::map<int64_t, std::pair<TimePoint, TimePoint>> dispatch;
  };
  /// 0 = open loop, 1 = probe, -1 = no request-level tracing.
  static int WindowOf(Phase p) {
    return p == Phase::kOpen ? 0 : p == Phase::kProbe ? 1 : -1;
  }
  Key KeyOf(int64_t id) const {
    const Request& r = (*open_)[static_cast<size_t>(id)];
    return {r.model, r.user, r.top_k, r.items.size()};
  }

  const std::vector<Request>* open_;
  std::atomic<Phase> phase_{Phase::kIdle};
  std::atomic<uint64_t> sweeps_[4] = {};
  std::atomic<uint64_t> lanes_[4] = {};

  mutable std::mutex mu_;
  Window windows_[2];
  std::vector<BatchRecord> batches_;
  size_t unmatched_ = 0;
};

/// Self time of every span (duration minus the part its children cover),
/// aggregated per layer.
Attribution Attribute(const std::vector<Span>& spans);

/// Writes spans as CSV (id,parent,request,name,start_ms,end_ms).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Forwarding Recommender: serves every call through `inner`, reporting
/// QueryBatch entry/exit and fused widths to the tracer.
class TracedRecommender final : public longtail::Recommender {
 public:
  TracedRecommender(const longtail::Recommender* inner, int model,
                    Tracer* tracer)
      : inner_(inner), model_(model), tracer_(tracer) {
    data_ = inner->dataset();
  }

  std::string name() const override { return inner_->name(); }
  longtail::Status Fit(const longtail::Dataset&) override {
    return longtail::Status::FailedPrecondition("the shim serves a fitted "
                                                "model");
  }
  longtail::Result<std::vector<longtail::ScoredItem>> RecommendTopK(
      UserId user, int k) const override {
    return inner_->RecommendTopK(user, k);
  }
  longtail::Result<std::vector<double>> ScoreItems(
      UserId user, std::span<const ItemId> items) const override {
    return inner_->ScoreItems(user, items);
  }
  std::vector<longtail::UserQueryResult> QueryBatch(
      std::span<const longtail::UserQuery> queries,
      const longtail::BatchOptions& options) const override;

 private:
  const longtail::Recommender* inner_;
  int model_;
  Tracer* tracer_;
};

}  // namespace servebench

#endif  // LONGTAIL_SERVEBENCH_TRACER_H_
