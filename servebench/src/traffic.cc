#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "util/zipf.h"

namespace servebench {
namespace {

// Douban-like corpus at douban_scale 0.02: 7,661 users x 1,798 items.
// Rates are absolute and pinned here, not fractions of a measured
// saturation, so two commits are always compared at the same offered load.
// Each sits at 10-25% of its workload's saturation on a 4-core host, so a
// host that briefly runs at half speed (shared machines do) still serves
// the rate without a growing backlog.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Hot head that fits the cache together: 128 users' payloads take
      // about 232 MiB of the 512 MiB budget, so after warm-up every lookup
      // hits, and users repeat inside micro-batches (fusion).
      {"hot_direct", /*http=*/false, /*zipf=*/0.99, /*population=*/128,
       /*rate_rps=*/300.0, /*saturation_requests=*/16000,
       /*score_share=*/0.0, {"AT"}, /*warm_requests=*/0},
      // Uniform over every user: the working set (~13.8 GB of payloads)
      // dwarfs the budget, so extraction, admission and eviction do the
      // work and fusion almost never applies.
      {"tail_cold", false, 0.0, 0, 100.0, 4000, 0.0, {"AT"}, 512},
      // The deployed path: loopback HTTP, recommend + score across AT and
      // AC2 loaded from checkpoints, Zipf over every user (partial hits).
      {"mixed_http", true, 0.99, 0, 100.0, 2400, 0.5, {"AT", "AC2"}, 512},
  };
  return kWorkloads;
}

constexpr uint64_t kRankingSeed = 20121015;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream): independent per-phase RNGs.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class RequestSource {
 public:
  RequestSource(const WorkloadSpec& spec, const longtail::Dataset& data,
                const std::vector<UserId>& ranked_users, uint64_t seed)
      : spec_(spec),
        num_items_(data.num_items()),
        users_(ranked_users),
        zipf_(ranked_users.size(), spec.zipf),
        rng_(seed) {}

  Request Next() {
    Request r;
    r.user = users_[zipf_.Sample(rng_)];
    r.model = static_cast<int>(rng_() % spec_.models.size());
    if (longtail::UniformDouble(rng_) < spec_.score_share) {
      r.items.resize(kScoreCandidates);
      for (ItemId& item : r.items) {
        item = static_cast<ItemId>(rng_() % static_cast<uint64_t>(num_items_));
      }
    } else {
      r.top_k = kTopK;
    }
    return r;
  }

  double NextGapSeconds(double rate) {
    return -std::log1p(-longtail::UniformDouble(rng_)) / rate;
  }

 private:
  const WorkloadSpec& spec_;
  int32_t num_items_;
  const std::vector<UserId>& users_;
  longtail::ZipfDistribution zipf_;
  std::mt19937_64 rng_;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

std::string HttpRequestBytes(const WorkloadSpec& spec, const Request& r,
                             int64_t id) {
  std::string body = "{\"model\":\"" + spec.models[r.model] +
                     "\",\"user\":" + std::to_string(r.user);
  const char* path = "/v1/recommend";
  if (r.top_k > 0) {
    body += ",\"top_k\":" + std::to_string(r.top_k) + "}";
  } else {
    path = "/v1/score";
    body += ",\"items\":[";
    for (size_t i = 0; i < r.items.size(); ++i) {
      if (i > 0) body += ',';
      body += std::to_string(r.items[i]);
    }
    body += "]}";
  }
  return std::string("POST ") + path +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) +
         "\r\nX-Bench-Request: " + std::to_string(id) + "\r\n\r\n" + body;
}

Traffic MakeTraffic(const WorkloadSpec& spec, const longtail::Dataset& data,
                    uint64_t seed, double seconds) {
  // Popularity ranking (and the hot population) is part of the workload's
  // definition, fixed across seeds: with Zipf 0.99 over 7,661 users the top
  // user alone draws ~10% of traffic, so a seed-drawn ranking would make
  // every seed a different workload. The seed draws the request stream,
  // the arrival times and the candidate lists.
  std::vector<UserId> users(static_cast<size_t>(data.num_users()));
  std::iota(users.begin(), users.end(), 0);
  std::mt19937_64 perm_rng(kRankingSeed);
  std::shuffle(users.begin(), users.end(), perm_rng);
  if (spec.population > 0) {
    users.resize(std::min(users.size(), static_cast<size_t>(spec.population)));
  }

  Traffic t;
  {
    RequestSource source(spec, data, users, Mix(seed, 1));
    if (spec.warm_requests == 0) {
      // One request per population user (and model): the whole hot set.
      for (UserId u : users) {
        for (size_t m = 0; m < spec.models.size(); ++m) {
          Request r = source.Next();
          r.user = u;
          r.model = static_cast<int>(m);
          t.warm.push_back(std::move(r));
        }
      }
    } else {
      for (int i = 0; i < spec.warm_requests; ++i) {
        t.warm.push_back(source.Next());
      }
    }
  }
  {
    RequestSource source(spec, data, users, Mix(seed, 2));
    double at = source.NextGapSeconds(spec.rate_rps);
    while (at < seconds) {
      t.arrival_s.push_back(at);
      t.open.push_back(source.Next());
      at += source.NextGapSeconds(spec.rate_rps);
    }
  }
  {
    RequestSource source(spec, data, users, Mix(seed, 3));
    for (int i = 0; i < spec.saturation_requests; ++i) {
      t.saturation.push_back(source.Next());
    }
  }
  // Direct workloads carry the bytes too: their traced run prices the
  // transport for the same traffic with a loopback probe.
  for (size_t i = 0; i < t.open.size(); ++i) {
    t.open[i].http_bytes =
        HttpRequestBytes(spec, t.open[i], static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < t.saturation.size(); ++i) {
    t.saturation[i].http_bytes = HttpRequestBytes(
        spec, t.saturation[i], static_cast<int64_t>(t.open.size() + i));
  }
  return t;
}

}  // namespace servebench
