// Workload definitions and the seeded traffic they generate.
//
// Every workload serves the same Douban-like corpus through the same engine
// settings; only the traffic differs. A (workload, seed, seconds) triple
// names one exact input: the warm-up list, the open-loop Poisson schedule
// and the saturation request list are all drawn from the seed before any
// timing starts, so the program under test only ever receives generated
// inputs.
#ifndef LONGTAIL_SERVEBENCH_TRAFFIC_H_
#define LONGTAIL_SERVEBENCH_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serving/request_queue.h"

namespace servebench {

using longtail::ItemId;
using longtail::UserId;

struct WorkloadSpec {
  std::string name;
  /// Requests go through a loopback HttpServer + ServingHttpFront instead
  /// of ServingEngine::Submit.
  bool http = false;
  /// Zipf exponent over the user population (0 = uniform).
  double zipf = 0.0;
  /// Users the traffic draws from: 0 = every user, otherwise a seeded
  /// subset of this size.
  int population = 0;
  /// Pinned absolute open-loop arrival rate (requests per second).
  double rate_rps = 0.0;
  /// Fixed request count of the saturation phase.
  int saturation_requests = 0;
  /// Share of requests that are /v1/score (explicit candidate lists);
  /// the rest are top-k recommendations.
  double score_share = 0.0;
  /// Models served, by checkpoint/registry name; requests split evenly.
  std::vector<std::string> models;
  /// Warm-up requests per set-up: 0 = one per population user.
  int warm_requests = 0;
};

/// The workloads, in BENCHMARK.json order. Nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

inline constexpr int kTopK = 10;
inline constexpr int kScoreCandidates = 100;

/// One generated request.
struct Request {
  int model = 0;  // index into WorkloadSpec::models
  UserId user = 0;
  int top_k = 0;                // > 0: /v1/recommend
  std::vector<ItemId> items;    // non-empty: /v1/score
  /// Complete HTTP/1.1 request bytes (HTTP workloads only), tagged with an
  /// X-Bench-Request header carrying the request id.
  std::string http_bytes;

  longtail::ServeRequest Serve() const {
    longtail::ServeRequest r;
    r.user = user;
    r.top_k = top_k;
    r.score_items = items;
    return r;
  }
};

struct Traffic {
  std::vector<Request> warm;
  /// Open-loop window: requests in arrival order with their scheduled
  /// offsets (seconds from window start). Request id = index.
  std::vector<Request> open;
  std::vector<double> arrival_s;
  /// Saturation phase; request id = open.size() + index.
  std::vector<Request> saturation;
};

Traffic MakeTraffic(const WorkloadSpec& spec, const longtail::Dataset& data,
                    uint64_t seed, double seconds);

/// Raw HTTP request bytes for `r` (the front's JSON schemas).
std::string HttpRequestBytes(const WorkloadSpec& spec, const Request& r,
                             int64_t id);

}  // namespace servebench

#endif  // LONGTAIL_SERVEBENCH_TRAFFIC_H_
