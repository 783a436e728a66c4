// Load generation: the open-loop Poisson window and the saturation phase,
// each against the engine directly or over loopback HTTP.
//
// Open loop: requests are due at pre-drawn arrival times and are sent on
// schedule whether or not earlier ones finished; latency is timed from the
// scheduled arrival, so a stalled generator or a full connection pool shows
// up as latency (and as lateness), never as silently reduced load.
// Saturation: a fixed request count with the admission queue kept full
// (direct: blocking QueryAll; HTTP: every connection in closed loop).
//
// Generator threads and connections never exceed nproc: direct workloads
// use two threads (submitter + collector), HTTP workloads one thread per
// connection.
#ifndef LONGTAIL_SERVEBENCH_LOADGEN_H_
#define LONGTAIL_SERVEBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/recommender.h"
#include "serving/serving_engine.h"
#include "tracer.h"
#include "traffic.h"

namespace servebench {

enum class OutcomeKind { kOk, kRefused, kFailed };

struct Outcome {
  TimePoint scheduled, sent, done;
  OutcomeKind kind = OutcomeKind::kFailed;
  /// As served (direct) or decoded from the JSON response (HTTP).
  longtail::UserQueryResult result;
  /// HTTP only: the response body as received.
  std::string body;
};

struct OpenLoopRun {
  std::vector<Outcome> outcomes;  // aligned with the request list
  TimePoint start;
  int threads = 0;
};

/// Direct: `engine.Submit` on schedule from one thread, futures settled in
/// order by a collector thread. `tracer` may be null.
OpenLoopRun RunOpenLoopDirect(longtail::ServingEngine& engine,
                              const WorkloadSpec& spec,
                              const std::vector<Request>& requests,
                              const std::vector<double>& arrival_s,
                              Tracer* tracer);

/// HTTP: `connections` keep-alive clients share the schedule; each takes
/// the next due request when free.
OpenLoopRun RunOpenLoopHttp(uint16_t port, const std::vector<Request>& requests,
                            const std::vector<double>& arrival_s,
                            int connections, Tracer* tracer);

struct SaturationRun {
  std::vector<Outcome> outcomes;  // aligned with the request list
  std::vector<double> round_rps;  // completions / second per round
  uint64_t completed = 0;
};

/// Direct: the requests in `rounds` equal slices, each one blocking
/// QueryAll (which keeps at most max_queue_depth in flight).
SaturationRun RunSaturationDirect(longtail::ServingEngine& engine,
                                  const WorkloadSpec& spec,
                                  const std::vector<Request>& requests,
                                  int rounds);

/// HTTP: the same slices, each driven by every connection in closed loop.
SaturationRun RunSaturationHttp(uint16_t port,
                                const std::vector<Request>& requests,
                                int connections, int rounds);

/// Decodes a front response into a query result (200: items or scores).
OutcomeKind DecodeHttpResponse(int status, const std::string& body,
                               longtail::UserQueryResult* result);

}  // namespace servebench

#endif  // LONGTAIL_SERVEBENCH_LOADGEN_H_
