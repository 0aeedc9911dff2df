#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

bool TailResolved(std::size_t samples, double p) {
  return static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  if (reasons_logged_ < 8) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  ++reasons_logged_;
}

namespace {

// Full precision: a value that prints identically on every run reads as a
// constant, not a measurement.
std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g",
                std::isfinite(value) ? value : 0.0);
  return buffer;
}

}  // namespace

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string DetailJson(const RunResult& result) {
  std::string out = "{\"detail\": {";
  for (std::size_t i = 0; i < result.details.size(); ++i) {
    const Metric& m = result.details[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "_" + m.unit + "\": " +
           Number(m.value);
  }
  out += "}}";
  return out;
}

void Log(const char* format, ...) {
  std::fprintf(stderr, "[%7.2fs] ", SecondsSince(kProcessStart));
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
