// perfbench: the repository benchmark's binary (see ../README.md).
//
//   perfbench --workload home-steady|flow-churn|fleet-live --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// makes the traced run that reports per-layer metrics and the tracing
// overhead. The last line of stdout is the result object.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "util/logging.hpp"
#include "workload.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "home-steady|flow-churn|fleet-live --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  // Timings of an unoptimised or assert-enabled build describe the build,
  // not the program; and the libraries change layout under NDEBUG.
  std::fprintf(stderr, "perfbench: refusing to run a non-optimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  perfbench::Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else if (arg == "--git-sha") {
      opts.git_sha = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  // Per-mutation INFO lines would make the fleet workload measure stderr.
  hw::set_log_level(hw::LogLevel::Warn);
  // Keep freed memory in the heap instead of handing it back to the kernel,
  // so repeated set-ups and long runs measure the program's work rather
  // than the kernel faulting in fresh zeroed pages, whose cost depends on
  // the memory pressure of whatever else shares the machine.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);

  perfbench::Result result;
  if (opts.workload == "home-steady") {
    result = perfbench::run_home_steady(opts);
  } else if (opts.workload == "flow-churn") {
    result = perfbench::run_flow_churn(opts);
  } else if (opts.workload == "fleet-live") {
    result = perfbench::run_fleet_live(opts);
  } else {
    return usage(("unknown workload " + opts.workload).c_str());
  }
  perfbench::emit(opts, result);
  return result.correct() ? 0 : 1;
}
