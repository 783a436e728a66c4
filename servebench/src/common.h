// Small shared helpers for the serving benchmark: the clock, order
// statistics, process memory, and the named-metric list every phase
// reports into.
#ifndef LONGTAIL_SERVEBENCH_COMMON_H_
#define LONGTAIL_SERVEBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double Seconds(TimePoint from, TimePoint to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double Ms(TimePoint from, TimePoint to) {
  return 1e3 * Seconds(from, to);
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// the sample is empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      std::min(values.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Resets this process's VmHWM to its current resident set size; false
/// where /proc/self/clear_refs cannot be written.
inline bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// Peak resident set size of this process (VmHWM), in MiB.
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// One reported number. `samples` is printed beside it in the
/// human-readable table (how many observations the value summarizes).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit,
           size_t samples = 1) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace servebench

#endif  // LONGTAIL_SERVEBENCH_COMMON_H_
