// sofa_perfbench: one run of one workload.
//
//   sofa_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Generates the workload's inputs from the seed, sets the library up
// through its public API, drives the load, checks every answer against
// the benchmark's own brute-force truth, and prints one JSON result
// object as the last line of standard output. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the per-layer probes instead.
// Progress goes to standard error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: sofa_perfbench --workload "
               "hf-single|lf-sharded --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.threads = sofa::HardwareThreads();
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.spec = perfbench::FindWorkload(value);
      if (options.spec == nullptr) {
        return Usage("unknown workload");
      }
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.spec == nullptr || argc % 2 == 0 || options.seconds <= 0.0) {
    return Usage("missing or malformed arguments");
  }
  const perfbench::RunResult result = trace ? perfbench::RunLayers(options)
                                            : perfbench::RunWorkload(options);
  if (!result.details.empty()) {
    std::printf("%s\n", perfbench::DetailJson(result).c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
