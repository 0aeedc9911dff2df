// Small helpers shared by the perfbench workloads: clocks, sample sets
// with nearest-rank percentiles, the result line, and process memory.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double SecondsSince(Clock::time_point from) {
  return MsBetween(from, Clock::now()) / 1e3;
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// True when at least ten samples lie beyond the p-th percentile — the
/// rule for reporting a tail percentile at all.
bool TailResolved(std::size_t samples, double p);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMib();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: operation counts, the correctness verdict, and its
/// metrics in print order.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Figures that are reported beside the metrics, not gated: printed on
  /// a "detail" line before the result line.
  std::vector<Metric> details;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void AddDetail(const std::string& name, double value,
                 const std::string& unit) {
    details.push_back(Metric{name, value, unit});
  }
  /// Marks the run incorrect and logs why (first few reasons only).
  void Fail(const std::string& why);

 private:
  std::size_t reasons_logged_ = 0;
};

/// Renders the one-line JSON result object.
std::string ResultJson(const RunResult& result);
/// Renders the details as one line: {"detail": {"name": value, ...}}.
std::string DetailJson(const RunResult& result);

/// stderr progress line, prefixed with the elapsed process time.
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
