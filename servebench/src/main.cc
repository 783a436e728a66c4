// servebench: the serving benchmark program.
//
//   servebench --workload hot_direct|tail_cold|mixed_http --seed N
//              --seconds S --trace 0|1 [--work_dir DIR] [--connections C]
//
// --trace 0 measures the end-to-end metrics (no tracing anywhere);
// --trace 1 repeats the workload untraced and then traced, and reports the
// per-layer metrics. Either way every served result it checks must equal a
// direct, uncached QueryBatch (bit for bit in process, by value after a
// JSON round trip), or the run exits 1 without a result. The last stdout
// line is the result JSON; lines before it start with '#'. See
// servebench/README.md for every metric.
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <random>
#include <thread>

#include "check.h"
#include "common.h"
#include "data/generator.h"
#include "graph/walk_kernel.h"
#include "http/http_json.h"
#include "http/http_parser.h"
#include "loadgen.h"
#include "replay.h"
#include "serving/model_registry.h"
#include "stack.h"
#include "tracer.h"
#include "traffic.h"

namespace servebench {
namespace {

using longtail::Status;

constexpr int kSetups = 5;             // set-ups per untraced run
constexpr int kSaturationRounds = 8;   // throughput = median round rate
constexpr size_t kCheckSample = 256;   // untraced results checked per phase
// p99 needs >= 10 samples beyond it; --seconds must schedule 20% more
// arrivals than that, so a Poisson draw never falls short.
constexpr size_t kMinLatencySamples = 1000;
constexpr size_t kProbeRequests = 600;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // required
  int trace = 0;
  std::string work_dir = "servebench_work";
  int connections = 0;  // 0 = min(4, nproc)
};

/// Exits at once — no result line, no destructors (engine and server
/// threads may still be running).
[[noreturn]] void Fail(int code, const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(code);
}

Options ParseOptions(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Fail(2, "unexpected argument " + arg);
    arg = arg.substr(2);
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      values[arg] = argv[++i];
    } else {
      Fail(2, "--" + arg + " needs a value");
    }
  }
  Options o;
  try {
    for (const auto& [key, value] : values) {
      if (key == "workload") {
        o.workload = value;
      } else if (key == "seed") {
        o.seed = std::stoull(value);
      } else if (key == "seconds") {
        o.seconds = std::stod(value);
      } else if (key == "trace") {
        o.trace = std::stoi(value);
      } else if (key == "work_dir") {
        o.work_dir = value;
      } else if (key == "connections") {
        o.connections = std::stoi(value);
      } else {
        Fail(2, "unknown flag --" + key);
      }
    }
  } catch (const std::exception&) {
    Fail(2, "bad flag value");
  }
  if (FindWorkload(o.workload) == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    Fail(2, "--workload must be one of:" + names);
  }
  if (o.seconds <= 0.0 || (o.trace != 0 && o.trace != 1)) {
    Fail(2, "--seconds S (> 0) is required and --trace must be 0 or 1");
  }
  const double rate = FindWorkload(o.workload)->rate_rps;
  if (rate * o.seconds < 1.2 * kMinLatencySamples) {
    Fail(2, o.workload + " needs --seconds >= " +
                std::to_string(1.2 * kMinLatencySamples / rate) +
                " for its p99");
  }
  return o;
}

/// Open-loop and saturation results of one pass over the workload.
struct Pass {
  OpenLoopRun open;
  SaturationRun saturation;
  std::vector<double> latencies_ms;  // completed, in arrival order
  size_t attempted = 0;
  size_t errors = 0;  // refused + failed, both phases

  double p50() const { return Percentile(latencies_ms, 0.50); }
  double p90() const { return Percentile(latencies_ms, 0.90); }
  double p99() const { return Percentile(latencies_ms, 0.99); }
  double throughput() const { return Median(saturation.round_rps); }
};

class Benchmark {
 public:
  explicit Benchmark(const Options& options)
      : options_(options),
        spec_(*FindWorkload(options.workload)),
        corpus_(MakeCorpus()),
        traffic_(MakeTraffic(spec_, data(), options.seed, options.seconds)) {
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    connections_ = options.connections > 0
                       ? options.connections
                       : static_cast<int>(std::min(4u, nproc));
    // One generator process, never more threads or connections than
    // cores: direct runs use a submitter and a collector thread.
    const int threads = spec_.http ? connections_ : 2;
    if (connections_ > static_cast<int>(nproc) ||
        threads > static_cast<int>(nproc)) {
      Fail(2, "refusing " + std::to_string(std::max(threads, connections_)) +
                  " generator threads/connections on " +
                  std::to_string(nproc) + " cores");
    }
    if (!spec_.http && spec_.models.size() != 1) {
      Fail(2, "direct workloads serve exactly one model");
    }
    checkpoint_dir_ = options.work_dir + "/ckpt-" + spec_.name;
    PrepareModels();
  }

  int Run() {
    return options_.trace == 0 ? RunEndToEnd() : RunTraced();
  }

 private:
  const longtail::Dataset& data() const { return corpus_.dataset; }

  static longtail::SyntheticData MakeCorpus() {
    auto corpus = longtail::GenerateSyntheticData(
        longtail::SyntheticSpec::DoubanLike(0.02));
    if (!corpus.ok()) Fail(2, corpus.status().ToString());
    return std::move(corpus).value();
  }

  /// Input preparation, outside every timed set-up: the checkpoints the
  /// HTTP workload loads. The fitted models are freed at once, so they are
  /// not resident while peak_rss_mb is measured.
  void PrepareModels() {
    std::filesystem::create_directories(checkpoint_dir_);
    for (const std::string& name : spec_.models) {
      auto model = FitModel(name, data());
      if (!model.ok()) Fail(2, model.status().ToString());
      const Status saved = longtail::SaveModelCheckpoint(
          *model.value(), checkpoint_dir_ + "/" + name + ".ckpt");
      if (!saved.ok()) Fail(2, saved.ToString());
    }
  }

  /// Fits the reference models the correctness gate and the replay
  /// compare against (fitting is deterministic, so they equal the ones
  /// whose checkpoints were written).
  void FitReference() {
    for (const std::string& name : spec_.models) {
      auto model = FitModel(name, data());
      if (!model.ok()) Fail(2, model.status().ToString());
      reference_.push_back(std::move(model).value());
    }
    std::vector<const longtail::Recommender*> models;
    for (const auto& m : reference_) models.push_back(m.get());
    oracle_ = std::make_unique<ReferenceOracle>(std::move(models));
  }

  std::unique_ptr<ServingStack> BuildStack(Tracer* tracer) {
    auto stack = ServingStack::Build(spec_, data(), checkpoint_dir_,
                                     traffic_.warm, connections_, tracer);
    if (!stack.ok()) Fail(2, "set-up failed: " + stack.status().ToString());
    return std::move(stack).value();
  }

  /// The open-loop window, then the saturation phase. `between` runs at
  /// the phase boundary (the traced run snapshots counters there).
  Pass RunPass(ServingStack& stack, Tracer* tracer,
               const std::function<void()>& between = {}) {
    Pass pass;
    if (tracer != nullptr) tracer->SetPhase(Phase::kOpen);
    pass.open = spec_.http
                    ? RunOpenLoopHttp(stack.port(), traffic_.open,
                                      traffic_.arrival_s, connections_, tracer)
                    : RunOpenLoopDirect(stack.engine(), spec_, traffic_.open,
                                        traffic_.arrival_s, tracer);
    if (tracer != nullptr) tracer->SetPhase(Phase::kSaturation);
    if (between) between();
    pass.saturation =
        spec_.http ? RunSaturationHttp(stack.port(), traffic_.saturation,
                                       connections_, kSaturationRounds)
                   : RunSaturationDirect(stack.engine(), spec_,
                                         traffic_.saturation,
                                         kSaturationRounds);
    if (tracer != nullptr) tracer->SetPhase(Phase::kIdle);
    for (const Outcome& o : pass.open.outcomes) {
      if (o.kind == OutcomeKind::kOk) {
        pass.latencies_ms.push_back(Ms(o.scheduled, o.done));
      } else {
        ++pass.errors;
      }
    }
    for (const Outcome& o : pass.saturation.outcomes) {
      if (o.kind != OutcomeKind::kOk) ++pass.errors;
    }
    pass.attempted =
        pass.open.outcomes.size() + pass.saturation.outcomes.size();
    if (pass.latencies_ms.size() < kMinLatencySamples) {
      Fail(3, "only " + std::to_string(pass.latencies_ms.size()) +
                  " open-loop completions; p99 needs >= " +
                  std::to_string(kMinLatencySamples));
    }
    return pass;
  }

  /// Checks one phase's completed results against the reference: all of
  /// them, or a seeded sample of kCheckSample.
  void CheckOutcomes(const std::vector<Request>& requests,
                     const std::vector<Outcome>& outcomes, bool all,
                     Equality equality) {
    std::vector<size_t> ok;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].kind == OutcomeKind::kOk) ok.push_back(i);
    }
    if (!all && ok.size() > kCheckSample) {
      std::mt19937_64 rng(options_.seed ^ 0x5eedc0ffeeull);
      std::shuffle(ok.begin(), ok.end(), rng);
      ok.resize(kCheckSample);
    }
    std::vector<const Request*> checked;
    std::vector<const longtail::UserQueryResult*> served;
    for (size_t i : ok) {
      checked.push_back(&requests[i]);
      served.push_back(&outcomes[i].result);
    }
    std::string first;
    const size_t mismatches =
        oracle_->Check(checked, served, equality, &first);
    checked_ += checked.size();
    if (mismatches > 0) {
      Fail(1, std::to_string(mismatches) + " of " +
                  std::to_string(checked.size()) +
                  " served results differ from uncached QueryBatch; first: " +
                  first);
    }
  }

  void CheckPass(const Pass& pass, bool all) {
    const Equality equality = spec_.http ? Equality::kValue : Equality::kBits;
    CheckOutcomes(traffic_.open, pass.open.outcomes, all, equality);
    CheckOutcomes(traffic_.saturation, pass.saturation.outcomes, all,
                  equality);
  }

  static std::vector<double> LateMs(const OpenLoopRun& open) {
    std::vector<double> late;
    for (const Outcome& o : open.outcomes) {
      late.push_back(Ms(o.scheduled, o.sent));
    }
    return late;
  }

  // ------------------------------------------------------------ trace 0
  int RunEndToEnd() {
    // The measured stack is the first one built, so peak_rss_mb covers one
    // stack's lifetime; the remaining set-ups only time set-up. The peak is
    // reset first, so input preparation's transient does not count; the
    // corpus (which the stack serves) and the generated traffic stay
    // resident.
    if (!ResetPeakRss()) {
      std::printf("# VmHWM could not be reset: peak_rss_mb includes input "
                  "preparation\n");
    }
    std::vector<double> setup_s;
    TimePoint t0 = Clock::now();
    std::unique_ptr<ServingStack> stack = BuildStack(nullptr);
    setup_s.push_back(Seconds(t0, Clock::now()));
    const Pass pass = RunPass(*stack, nullptr);
    const double peak_rss_mb = PeakRssMb();
    stack.reset();
    for (int r = 1; r < kSetups; ++r) {
      t0 = Clock::now();
      stack = BuildStack(nullptr);
      setup_s.push_back(Seconds(t0, Clock::now()));
      stack.reset();  // one stack alive at a time
    }
    FitReference();
    CheckPass(pass, /*all=*/false);

    const std::vector<double> late = LateMs(pass.open);
    std::printf("# %s seed %llu: %zu open-loop requests at %.0f rps, "
                "%zu saturation requests; late p99 %.3f ms, max %.3f ms\n",
                spec_.name.c_str(),
                static_cast<unsigned long long>(options_.seed),
                pass.open.outcomes.size(), spec_.rate_rps,
                pass.saturation.outcomes.size(), Percentile(late, 0.99),
                *std::max_element(late.begin(), late.end()));
    std::printf("# error_ratio %.6f (%zu of %zu refused or failed); p99 "
                "%.3f ms of %zu completions (reported, not gated)\n",
                static_cast<double>(pass.errors) / pass.attempted,
                pass.errors, pass.attempted, pass.p99(),
                pass.latencies_ms.size());
    std::printf("# saturation rounds rps:");
    for (double rps : pass.saturation.round_rps) std::printf(" %.0f", rps);
    std::printf("\n# setup s:");
    for (double s : setup_s) std::printf(" %.3f", s);
    std::printf("\n");
    MetricList m;
    m.Add("setup_s", Median(setup_s), "s", setup_s.size());
    m.Add("p50_ms", pass.p50(), "ms", pass.latencies_ms.size());
    m.Add("p90_ms", pass.p90(), "ms", pass.latencies_ms.size());
    m.Add("throughput_rps", pass.throughput(), "1/s",
          pass.saturation.completed);
    m.Add("success_ratio",
          static_cast<double>(pass.attempted - pass.errors) / pass.attempted,
          "ratio", pass.attempted);
    m.Add("peak_rss_mb", peak_rss_mb, "MiB", 1);
    Emit(m, pass.attempted, pass.errors);
    return 0;
  }

  // ------------------------------------------------------------ trace 1
  int RunTraced() {
    FitReference();
    // Untraced pass: the baseline for trace.overhead_* and the loadgen
    // lateness figures.
    double checkpoint_load_s = 0.0;
    Pass base;
    {
      std::unique_ptr<ServingStack> stack = BuildStack(nullptr);
      checkpoint_load_s = stack->checkpoint_load_s();
      base = RunPass(*stack, nullptr);
    }
    CheckPass(base, /*all=*/false);
    if (!spec_.http) checkpoint_load_s = TimeCheckpointLoad();

    Tracer tracer(&traffic_.open);
    std::unique_ptr<ServingStack> stack = BuildStack(&tracer);
    const longtail::SubgraphCacheStats cache0 = stack->cache().Stats();
    const longtail::EngineStats engine0 = stack->engine().Stats();
    longtail::EngineStats engine1;
    longtail::WalkKernelFusedStats fused1;
    const Pass traced = RunPass(*stack, &tracer, [&] {
      engine1 = stack->engine().Stats();
      fused1 = longtail::GetWalkKernelFusedStats();
    });
    const longtail::WalkKernelFusedStats fused2 =
        longtail::GetWalkKernelFusedStats();
    const longtail::EngineStats engine2 = stack->engine().Stats();
    const longtail::SubgraphCacheStats cache2 = stack->cache().Stats();
    const std::vector<Span> spans = tracer.Spans(Phase::kOpen,
                                                 traced.open.start);

    // HTTP layer: the open window itself, or a loopback probe of the same
    // traffic on a direct workload's engine.
    const OpenLoopRun* http_run = &traced.open;
    Phase http_window = Phase::kOpen;
    OpenLoopRun probe;
    std::vector<Span> probe_spans;
    if (!spec_.http) {
      const Status started = stack->StartHttp(connections_);
      if (!started.ok()) Fail(2, started.ToString());
      const size_t n = std::min(kProbeRequests, traffic_.open.size());
      const std::vector<Request> requests(traffic_.open.begin(),
                                          traffic_.open.begin() + n);
      const std::vector<double> arrivals(traffic_.arrival_s.begin(),
                                         traffic_.arrival_s.begin() + n);
      tracer.SetPhase(Phase::kProbe);
      probe = RunOpenLoopHttp(stack->port(), requests, arrivals,
                              connections_, &tracer);
      tracer.SetPhase(Phase::kIdle);
      http_run = &probe;
      http_window = Phase::kProbe;
      probe_spans = tracer.Spans(Phase::kProbe, probe.start);
    }
    stack.reset();

    // Correctness: every served result of the traced pass (and probe).
    CheckPass(traced, /*all=*/true);
    CheckOutcomes(traffic_.open, probe.outcomes, /*all=*/true,
                  Equality::kValue);
    std::vector<const longtail::GraphRecommenderBase*> graph_models;
    for (const auto& m : reference_) graph_models.push_back(m.get());
    const ReplayStats replay =
        Replay(tracer.batches(), graph_models, kCacheBytes);
    if (replay.mismatches > 0) {
      Fail(1, std::to_string(replay.mismatches) +
                  " replayed results differ from the served ones; first: " +
                  replay.first_mismatch);
    }
    checked_ += replay.queries;
    const std::string span_path = options_.work_dir + "/spans-" +
                                  spec_.name + "-" +
                                  std::to_string(options_.seed);
    if (!WriteSpans(spans, span_path + ".csv") ||
        (!probe_spans.empty() &&
         !WriteSpans(probe_spans, span_path + "-probe.csv"))) {
      Fail(2, "cannot write " + span_path + "*.csv");
    }
    std::printf("# %zu spans (+%zu probe spans) written to %s*.csv; %zu "
                "traced queries matched no request\n",
                spans.size(), probe_spans.size(), span_path.c_str(),
                tracer.unmatched_queries());

    MetricList m;
    AddHttpMetrics(*http_run, tracer.dispatch_log(http_window), &m);
    AddServingMetrics(spans, engine0, engine1, engine2, &m);
    AddCoreMetrics(tracer, fused1, fused2, replay, &m);
    AddGraphMetrics(cache0, cache2, replay, &m);
    m.Add("data.checkpoint_load_s", checkpoint_load_s, "s", 1);
    const std::vector<double> late = LateMs(base.open);
    m.Add("loadgen.late_p99_ms", Percentile(late, 0.99), "ms", late.size());
    m.Add("loadgen.late_max_ms", *std::max_element(late.begin(), late.end()),
          "ms", late.size());
    m.Add("loadgen.threads", base.open.threads, "count", 1);
    m.Add("loadgen.connections", connections_, "count", 1);
    AddTraceMetrics(spans, probe_spans.empty() ? spans : probe_spans, base,
                    traced, replay, &m);
    Emit(m, base.attempted + traced.attempted, base.errors + traced.errors);
    return 0;
  }

  double TimeCheckpointLoad() {
    std::vector<double> times;
    for (int r = 0; r < 3; ++r) {
      const TimePoint t0 = Clock::now();
      auto model = longtail::LoadModelCheckpoint(
          checkpoint_dir_ + "/" + spec_.models[0] + ".ckpt", data());
      times.push_back(Seconds(t0, Clock::now()));
      if (!model.ok()) Fail(2, model.status().ToString());
    }
    return Median(times);
  }

  void AddHttpMetrics(
      const OpenLoopRun& run,
      const std::map<int64_t, std::pair<TimePoint, TimePoint>>& log,
      MetricList* m) {
    std::vector<double> dispatch_ms, transport_ms;
    std::vector<std::pair<const std::string*, const std::string*>> codec;
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
      const Outcome& o = run.outcomes[i];
      const auto it = log.find(static_cast<int64_t>(i));
      if (o.kind != OutcomeKind::kOk || it == log.end()) continue;
      const double dispatch = Ms(it->second.first, it->second.second);
      dispatch_ms.push_back(dispatch);
      transport_ms.push_back(Ms(o.sent, o.done) - dispatch);
      codec.emplace_back(&traffic_.open[i].http_bytes, &o.body);
    }
    m->Add("http.dispatch_p50_ms", Percentile(dispatch_ms, 0.5), "ms",
           dispatch_ms.size());
    m->Add("http.transport_p50_ms", Percentile(transport_ms, 0.5), "ms",
           transport_ms.size());
    m->Add("http.codec_us", CodecMicros(codec), "us", codec.size());
  }

  /// Per-request codec time on the run's recorded bytes: parse the
  /// request (HttpRequestParser + JSON read), encode the response (JSON
  /// write + response serialization).
  static double CodecMicros(
      const std::vector<std::pair<const std::string*, const std::string*>>&
          records) {
    if (records.empty()) return 0.0;
    std::vector<longtail::JsonValue> responses;
    for (const auto& r : records) {
      auto parsed = longtail::ParseJson(*r.second);
      if (!parsed.ok()) Fail(1, "unparseable response body");
      responses.push_back(std::move(parsed).value());
    }
    size_t done = 0, sink = 0;
    const TimePoint t0 = Clock::now();
    while (Seconds(t0, Clock::now()) < 0.2) {
      for (size_t i = 0; i < records.size(); ++i) {
        longtail::HttpRequestParser parser;
        size_t consumed = 0;
        parser.Consume(*records[i].first, &consumed);
        auto request = longtail::ParseJson(parser.request().body);
        longtail::HttpResponse response;
        response.body = longtail::WriteJson(responses[i]);
        sink += request.ok() +
                longtail::SerializeHttpResponse(response, true).size();
      }
      done += records.size();
    }
    const double us = 1e6 * Seconds(t0, Clock::now()) / done;
    if (sink == 0) Fail(1, "codec replay produced nothing");
    return us;
  }

  static std::vector<double> SpanMs(const std::vector<Span>& spans,
                                    const std::string& name) {
    std::vector<double> out;
    for (const Span& s : spans) {
      if (s.name == name) out.push_back(s.end_ms - s.start_ms);
    }
    return out;
  }

  void AddServingMetrics(const std::vector<Span>& spans,
                         const longtail::EngineStats& e0,
                         const longtail::EngineStats& e1,
                         const longtail::EngineStats& e2, MetricList* m) {
    const std::vector<double> wait = SpanMs(spans, "serving.queue_wait");
    const std::vector<double> handoff = SpanMs(spans, "serving.handoff");
    m->Add("serving.queue_wait_p50_ms", Percentile(wait, 0.5), "ms",
           wait.size());
    m->Add("serving.queue_wait_p99_ms", Percentile(wait, 0.99), "ms",
           wait.size());
    m->Add("serving.handoff_p50_ms", Percentile(handoff, 0.5), "ms",
           handoff.size());
    // Saturation phase: the batches that set throughput_rps.
    const double batches =
        static_cast<double>(e2.batches_executed - e1.batches_executed);
    m->Add("serving.batches", batches, "count", 1);
    m->Add("serving.batch_size_mean",
           batches > 0 ? (e2.dispatched - e1.dispatched) / batches : 0.0,
           "count", static_cast<size_t>(batches));
    const uint64_t retries = e2.backpressure_retries - e0.backpressure_retries;
    m->Add("serving.rejected",
           static_cast<double>(e2.rejected_queue_full -
                               e0.rejected_queue_full - retries),
           "count", 1);
    m->Add("serving.backpressure_retries", static_cast<double>(retries),
           "count", 1);
  }

  void AddCoreMetrics(const Tracer& tracer,
                      const longtail::WalkKernelFusedStats& f1,
                      const longtail::WalkKernelFusedStats& f2,
                      const ReplayStats& replay, MetricList* m) {
    std::vector<double> batch_ms;
    double busy_ms = 0.0;
    size_t queries = 0;
    for (const BatchRecord& b : tracer.batches()) {
      if (b.phase != Phase::kOpen) continue;
      batch_ms.push_back(Ms(b.begin, b.end));
      busy_ms += batch_ms.back();
      queries += b.size;
    }
    busy_ms_per_query_ = queries > 0 ? busy_ms / queries : 0.0;
    m->Add("core.batch_p50_ms", Percentile(batch_ms, 0.5), "ms",
           batch_ms.size());
    m->Add("core.batch_p99_ms", Percentile(batch_ms, 0.99), "ms",
           batch_ms.size());
    m->Add("core.busy_ms_per_query", busy_ms_per_query_, "ms", queries);
    const uint64_t sweeps = tracer.fused_sweeps(Phase::kSaturation);
    m->Add("core.fused_width_mean",
           sweeps > 0 ? static_cast<double>(
                            tracer.fused_lanes(Phase::kSaturation)) /
                            sweeps
                      : 0.0,
           "count", sweeps);
    m->Add("core.fused_lanes", static_cast<double>(f2.lanes - f1.lanes),
           "count", 1);
    m->Add("core.fused_sweeps", static_cast<double>(f2.sweeps - f1.sweeps),
           "count", 1);
    m->Add("core.topk_us",
           replay.topk_queries > 0 ? 1e6 * replay.topk_s / replay.topk_queries
                                   : 0.0,
           "us", replay.topk_queries);
  }

  void AddGraphMetrics(const longtail::SubgraphCacheStats& c0,
                       const longtail::SubgraphCacheStats& c2,
                       const ReplayStats& r, MetricList* m) {
    const double hits = static_cast<double>(c2.hits - c0.hits);
    const double misses = static_cast<double>(c2.misses - c0.misses);
    m->Add("graph.cache_hit_ratio",
           hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
           static_cast<size_t>(hits + misses));
    m->Add("graph.cache_coalesced_waits",
           static_cast<double>(c2.coalesced_waits - c0.coalesced_waits),
           "count", 1);
    m->Add("graph.cache_evictions",
           static_cast<double>(c2.evictions - c0.evictions), "count", 1);
    m->Add("graph.cache_inserts",
           static_cast<double>(c2.inserts - c0.inserts), "count", 1);
    m->Add("graph.cache_resident_mb", c2.resident_bytes / 1048576.0, "MiB",
           c2.entries);
    m->Add("graph.cache_entry_kb",
           c2.entries > 0 ? c2.resident_bytes / 1024.0 / c2.entries : 0.0,
           "KiB", c2.entries);
    const auto per = [](double total, size_t n, double scale) {
      return n > 0 ? scale * total / static_cast<double>(n) : 0.0;
    };
    m->Add("graph.extract_ms", per(r.extract_s, r.misses, 1e3), "ms",
           r.misses);
    m->Add("graph.admit_ms", per(r.admit_s, r.misses, 1e3), "ms", r.misses);
    m->Add("graph.plan_build_ms", per(r.plan_build_s, r.misses, 1e3), "ms",
           r.misses);
    m->Add("graph.lookup_hit_us", per(r.lookup_hit_s, r.hits, 1e6), "us",
           r.hits);
    m->Add("graph.compile_us", per(r.compile_s, r.queries, 1e6), "us",
           r.queries);
    m->Add("graph.sweep_ms", per(r.sweep_s, r.queries, 1e3), "ms",
           r.queries);
    m->Add("graph.sweep_edges", per(r.sweep_edges, r.queries, 1.0), "count",
           r.queries);
    m->Add("graph.sweep_mb", per(r.sweep_bytes, r.queries, 1e-6), "MB",
           r.queries);
  }

  /// `http_spans`: the spans the http layer's self time is taken from —
  /// the open window's, or the probe's on a direct workload.
  void AddTraceMetrics(const std::vector<Span>& spans,
                       const std::vector<Span>& http_spans, const Pass& base,
                       const Pass& traced, const ReplayStats& replay,
                       MetricList* m) {
    const Attribution a = Attribute(spans);
    const Attribution h = Attribute(http_spans);
    for (const char* layer : {"loadgen", "http", "serving", "core"}) {
      const Attribution& from = std::string(layer) == "http" ? h : a;
      const auto it = from.self_ms.find(layer);
      m->Add(std::string("trace.self_") + layer + "_ms",
             it != from.self_ms.end() && from.requests > 0
                 ? it->second / from.requests
                 : 0.0,
             "ms", from.requests);
    }
    m->Add("trace.unattributed_pct",
           a.request_ms > 0 ? 100.0 * a.unattributed_ms / a.request_ms : 0.0,
           "%", a.requests);
    m->Add("trace.overhead_p50_pct",
           100.0 * (traced.p50() - base.p50()) / base.p50(), "%",
           traced.latencies_ms.size());
    m->Add("trace.overhead_throughput_pct",
           100.0 * (base.throughput() - traced.throughput()) /
               base.throughput(),
           "%", traced.saturation.completed);
    m->Add("graph.replay_coverage",
           busy_ms_per_query_ > 0 && replay.queries > 0
               ? 1e3 * replay.served_path_s() / replay.queries /
                     busy_ms_per_query_
               : 0.0,
           "ratio", replay.queries);
  }

  void Emit(const MetricList& m, size_t attempted, size_t failed) {
    std::printf("# %-32s %16s %-6s %10s\n", "metric", "value", "unit",
                "samples");
    for (const Metric& metric : m.metrics()) {
      std::printf("# %-32s %16.6f %-6s %10zu\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str(), metric.samples);
    }
    std::printf("# correctness: %zu served results matched the uncached "
                "reference\n",
                checked_);
    std::string json = "{\"correct\": true, \"attempted\": " +
                       std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < m.metrics().size(); ++i) {
      const Metric& metric = m.metrics()[i];
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metric.value);
      json += (i > 0 ? ", \"" : "\"") + metric.name + "\": {\"value\": " +
              value + ", \"unit\": \"" + metric.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

  Options options_;
  const WorkloadSpec& spec_;
  longtail::SyntheticData corpus_;
  Traffic traffic_;
  int connections_ = 0;
  std::string checkpoint_dir_;
  std::vector<std::unique_ptr<longtail::GraphRecommenderBase>> reference_;
  std::unique_ptr<ReferenceOracle> oracle_;
  size_t checked_ = 0;
  double busy_ms_per_query_ = 0.0;
};

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const servebench::Options options = servebench::ParseOptions(argc, argv);
  servebench::Benchmark benchmark(options);
  return benchmark.Run();
}
