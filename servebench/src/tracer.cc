#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <unordered_map>

namespace servebench {

void Tracer::OnSubmit(int64_t id) {
  const int w = WindowOf(phase());
  if (w < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  windows_[w].marks[id].submit = Clock::now();
  windows_[w].pending[KeyOf(id)].push_back(id);
}

void Tracer::OnDispatch(int64_t id, TimePoint begin, TimePoint end) {
  const int w = WindowOf(phase());
  if (w < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  windows_[w].dispatch[id] = {begin, end};
}

void Tracer::OnClient(int64_t id, TimePoint scheduled, TimePoint sent,
                      TimePoint done, bool ok) {
  const int w = WindowOf(phase());
  if (w < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Marks& m = windows_[w].marks[id];
  m.scheduled = scheduled;
  m.sent = sent;
  m.done = done;
  m.complete = ok;
  if (!ok) {
    // Refused requests never reach a batch: drop the registration so a
    // later identical request is not matched to it.
    auto it = windows_[w].pending.find(KeyOf(id));
    if (it != windows_[w].pending.end()) {
      auto& q = it->second;
      q.erase(std::remove(q.begin(), q.end(), id), q.end());
    }
  }
}

size_t Tracer::BatchBegin(int model,
                          std::span<const longtail::UserQuery> queries,
                          TimePoint t) {
  std::lock_guard<std::mutex> lock(mu_);
  BatchRecord record;
  record.model = model;
  record.phase = phase();
  record.begin = t;
  record.size = queries.size();
  const int w = WindowOf(record.phase);
  if (w >= 0) {
    for (const longtail::UserQuery& q : queries) {
      auto& pending = windows_[w].pending;
      auto it = pending.find(Key{model, q.user, q.top_k, q.score_items.size()});
      if (it != pending.end() && !it->second.empty()) {
        // Per-model dispatch is FIFO, so the oldest registration with the
        // same identity is this query.
        windows_[w].marks[it->second.front()].batch =
            static_cast<int64_t>(batches_.size());
        it->second.pop_front();
      } else {
        ++unmatched_;
      }
      if (record.phase != Phase::kOpen) continue;
      Request copy;
      copy.model = model;
      copy.user = q.user;
      copy.top_k = q.top_k;
      copy.items.assign(q.score_items.begin(), q.score_items.end());
      record.queries.push_back(std::move(copy));
    }
  }
  batches_.push_back(std::move(record));
  return batches_.size() - 1;
}

void Tracer::BatchEnd(size_t batch,
                      const std::vector<longtail::UserQueryResult>& results,
                      TimePoint t) {
  std::lock_guard<std::mutex> lock(mu_);
  BatchRecord& record = batches_[batch];
  record.end = t;
  if (record.phase == Phase::kOpen) record.results = results;
}

std::vector<Span> Tracer::Spans(Phase window, TimePoint origin) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Window& win = windows_[WindowOf(window)];
  std::vector<Span> spans;
  const auto ms = [origin](TimePoint t) { return Ms(origin, t); };
  for (const auto& [id, m] : win.marks) {
    if (!m.complete) continue;
    const int64_t root = id * 8;
    const auto add = [&](int64_t slot, int64_t parent, const char* name,
                         TimePoint a, TimePoint b) {
      spans.push_back({root + slot, parent, id, name, ms(a), ms(b)});
    };
    add(0, -1, "request", m.scheduled, m.done);
    add(1, root, "loadgen.late", m.scheduled, m.sent);
    int64_t serving_parent = root;
    TimePoint handoff_end = m.done;
    if (const auto it = win.dispatch.find(id); it != win.dispatch.end()) {
      const auto [begin, end] = it->second;
      add(2, root, "http.transport", m.sent, begin);
      add(3, root, "http.dispatch", begin, end);
      add(4, root, "http.transport", end, m.done);
      serving_parent = root + 3;
      handoff_end = end;
    }
    if (m.batch < 0) continue;
    const BatchRecord& b = batches_[static_cast<size_t>(m.batch)];
    add(5, serving_parent, "serving.queue_wait", m.submit, b.begin);
    add(6, serving_parent, "core.batch", b.begin, b.end);
    add(7, serving_parent, "serving.handoff", b.end, handoff_end);
  }
  return spans;
}

Attribution Attribute(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  Attribution out;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> cover;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const double a = std::max(s.start_ms, c->start_ms);
        const double b = std::min(s.end_ms, c->end_ms);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, reach = s.start_ms;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const double self = std::max(0.0, (s.end_ms - s.start_ms) - covered);
    if (s.parent < 0) {
      out.request_ms += s.end_ms - s.start_ms;
      out.unattributed_ms += self;
      ++out.requests;
    } else {
      out.self_ms[s.name.substr(0, s.name.find('.'))] += self;
    }
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,request,name,start_ms,end_ms\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%lld,%lld,%lld,%s,%.6f,%.6f\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name.c_str(),
                 s.start_ms, s.end_ms);
  }
  return std::fclose(f) == 0;
}

std::vector<longtail::UserQueryResult> TracedRecommender::QueryBatch(
    std::span<const longtail::UserQuery> queries,
    const longtail::BatchOptions& options) const {
  const TimePoint begin = Clock::now();
  const size_t batch = tracer_->BatchBegin(model_, queries, begin);
  // Forward the engine's fused-width observer, counting on the way.
  const std::function<void(int32_t)>* engine_observer =
      options.fused_width_observer;
  const std::function<void(int32_t)> observer = [&](int32_t width) {
    tracer_->ObserveWidth(width);
    if (engine_observer != nullptr) (*engine_observer)(width);
  };
  longtail::BatchOptions forwarded = options;
  forwarded.fused_width_observer = &observer;
  std::vector<longtail::UserQueryResult> results =
      inner_->QueryBatch(queries, forwarded);
  tracer_->BatchEnd(batch, results, Clock::now());
  return results;
}

}  // namespace servebench
