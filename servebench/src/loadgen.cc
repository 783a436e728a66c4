#include "loadgen.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <latch>
#include <mutex>
#include <thread>

#include "http/http_client.h"
#include "http/http_json.h"

namespace servebench {
namespace {

using longtail::StatusCode;
using longtail::UserQueryResult;

constexpr uint64_t kHttpTimeoutMs = 60000;

OutcomeKind KindOf(const longtail::Status& status) {
  if (status.ok()) return OutcomeKind::kOk;
  return status.code() == StatusCode::kResourceExhausted
             ? OutcomeKind::kRefused
             : OutcomeKind::kFailed;
}

TimePoint Due(TimePoint start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

/// One keep-alive connection that reconnects when the server closes it
/// (max_requests_per_connection) or a request fails at the transport.
class Connection {
 public:
  explicit Connection(uint16_t port) : port_(port) {}

  /// Sends raw request bytes and reads one response; false on transport
  /// failure (the connection is then re-established for the next call).
  bool RoundTrip(const std::string& bytes, longtail::HttpClientResponse* out) {
    if (!client_.connected() && !client_.Connect("127.0.0.1", port_).ok()) {
      return false;
    }
    if (!client_.SendRaw(bytes).ok()) {
      client_.Close();
      return false;
    }
    auto response = client_.ReadResponse(kHttpTimeoutMs);
    if (!response.ok()) {
      client_.Close();
      return false;
    }
    *out = std::move(response).value();
    if (!out->keep_alive) client_.Close();
    return true;
  }

 private:
  uint16_t port_;
  longtail::HttpClient client_;
};

void HttpExchange(Connection& connection, const Request& request,
                  Outcome* outcome) {
  longtail::HttpClientResponse response;
  outcome->sent = Clock::now();
  const bool delivered = connection.RoundTrip(request.http_bytes, &response);
  outcome->done = Clock::now();
  if (!delivered) {
    outcome->kind = OutcomeKind::kFailed;
    return;
  }
  outcome->kind =
      DecodeHttpResponse(response.status, response.body, &outcome->result);
  outcome->body = std::move(response.body);
}

}  // namespace

OutcomeKind DecodeHttpResponse(int status, const std::string& body,
                               UserQueryResult* result) {
  if (status == 429) return OutcomeKind::kRefused;
  if (status != 200) return OutcomeKind::kFailed;
  auto parsed = longtail::ParseJson(body);
  if (!parsed.ok()) return OutcomeKind::kFailed;
  const longtail::JsonValue& root = parsed.value();
  if (const longtail::JsonValue* items = root.Find("items");
      items != nullptr && items->is_array()) {
    for (const longtail::JsonValue& entry : items->items()) {
      const longtail::JsonValue* item = entry.Find("item");
      const longtail::JsonValue* score = entry.Find("score");
      if (item == nullptr || score == nullptr || !item->is_number() ||
          !score->is_number()) {
        return OutcomeKind::kFailed;
      }
      result->top_k.push_back({static_cast<ItemId>(item->number_value()),
                               score->number_value()});
    }
    return OutcomeKind::kOk;
  }
  if (const longtail::JsonValue* scores = root.Find("scores");
      scores != nullptr && scores->is_array()) {
    for (const longtail::JsonValue& score : scores->items()) {
      if (!score.is_number()) return OutcomeKind::kFailed;
      result->scores.push_back(score.number_value());
    }
    return OutcomeKind::kOk;
  }
  return OutcomeKind::kFailed;
}

OpenLoopRun RunOpenLoopDirect(longtail::ServingEngine& engine,
                              const WorkloadSpec& spec,
                              const std::vector<Request>& requests,
                              const std::vector<double>& arrival_s,
                              Tracer* tracer) {
  OpenLoopRun run;
  run.threads = 2;
  run.outcomes.resize(requests.size());
  struct InFlight {
    size_t index = 0;
    std::future<UserQueryResult> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> inflight;
  bool submitting = true;

  std::thread collector([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inflight.empty() || !submitting; });
        if (inflight.empty()) return;
        item = std::move(inflight.front());
        inflight.pop_front();
      }
      Outcome& o = run.outcomes[item.index];
      o.result = item.future.get();
      o.done = Clock::now();
      o.kind = KindOf(o.result.status);
      if (tracer != nullptr) {
        tracer->OnClient(static_cast<int64_t>(item.index), o.scheduled,
                         o.sent, o.done, o.kind == OutcomeKind::kOk);
      }
    }
  });

  run.start = Clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    Outcome& o = run.outcomes[i];
    o.scheduled = Due(run.start, arrival_s[i]);
    std::this_thread::sleep_until(o.scheduled);  // no-op when behind
    o.sent = Clock::now();
    if (tracer != nullptr) tracer->OnSubmit(static_cast<int64_t>(i));
    InFlight item;
    item.index = i;
    item.future =
        engine.Submit(spec.models[requests[i].model], requests[i].Serve());
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back(std::move(item));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitting = false;
  }
  cv.notify_all();
  collector.join();
  return run;
}

OpenLoopRun RunOpenLoopHttp(uint16_t port, const std::vector<Request>& requests,
                            const std::vector<double>& arrival_s,
                            int connections, Tracer* tracer) {
  OpenLoopRun run;
  run.threads = connections;
  run.outcomes.resize(requests.size());
  std::atomic<size_t> next{0};
  run.start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      Connection connection(port);
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= requests.size()) return;
        Outcome& o = run.outcomes[i];
        o.scheduled = Due(run.start, arrival_s[i]);
        std::this_thread::sleep_until(o.scheduled);
        HttpExchange(connection, requests[i], &o);
        if (tracer != nullptr) {
          tracer->OnClient(static_cast<int64_t>(i), o.scheduled, o.sent,
                           o.done, o.kind == OutcomeKind::kOk);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return run;
}

SaturationRun RunSaturationDirect(longtail::ServingEngine& engine,
                                  const WorkloadSpec& spec,
                                  const std::vector<Request>& requests,
                                  int rounds) {
  SaturationRun run;
  run.outcomes.resize(requests.size());
  const size_t per_round = requests.size() / static_cast<size_t>(rounds);
  for (int r = 0; r < rounds; ++r) {
    const size_t begin = static_cast<size_t>(r) * per_round;
    const size_t end = r + 1 == rounds ? requests.size() : begin + per_round;
    std::vector<longtail::ServeRequest> serve;
    for (size_t i = begin; i < end; ++i) serve.push_back(requests[i].Serve());
    // Direct workloads serve one model (checked at start-up).
    const TimePoint t0 = Clock::now();
    std::vector<UserQueryResult> results =
        engine.QueryAll(spec.models[0], serve);
    const TimePoint t1 = Clock::now();
    uint64_t completed = 0;
    for (size_t i = begin; i < end; ++i) {
      Outcome& o = run.outcomes[i];
      o.result = std::move(results[i - begin]);
      o.kind = KindOf(o.result.status);
      if (o.kind == OutcomeKind::kOk) ++completed;
    }
    run.completed += completed;
    run.round_rps.push_back(static_cast<double>(completed) / Seconds(t0, t1));
  }
  return run;
}

SaturationRun RunSaturationHttp(uint16_t port,
                                const std::vector<Request>& requests,
                                int connections, int rounds) {
  SaturationRun run;
  run.outcomes.resize(requests.size());
  const size_t per_round = requests.size() / static_cast<size_t>(rounds);
  for (int r = 0; r < rounds; ++r) {
    const size_t begin = static_cast<size_t>(r) * per_round;
    const size_t end = r + 1 == rounds ? requests.size() : begin + per_round;
    std::atomic<size_t> next{begin};
    std::latch connected(connections);
    std::latch go(1);
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&] {
        Connection connection(port);
        longtail::HttpClientResponse warm;
        // Connect before the clock starts: a /healthz round trip.
        connection.RoundTrip(
            "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", &warm);
        connected.count_down();
        go.wait();
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= end) return;
          HttpExchange(connection, requests[i], &run.outcomes[i]);
        }
      });
    }
    connected.wait();
    const TimePoint t0 = Clock::now();
    go.count_down();
    for (std::thread& t : clients) t.join();
    const TimePoint t1 = Clock::now();
    uint64_t completed = 0;
    for (size_t i = begin; i < end; ++i) {
      if (run.outcomes[i].kind == OutcomeKind::kOk) ++completed;
    }
    run.completed += completed;
    run.round_rps.push_back(static_cast<double>(completed) / Seconds(t0, t1));
  }
  return run;
}

}  // namespace servebench
