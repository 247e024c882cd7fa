// What one benchmark run reports, and how it is printed: a human-readable
// block (every figure under its workload-specific name), a results file
// with the environment stamp, and — as the last line of stdout — the JSON
// object the harness reads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Check failures, one line each; any entry makes the run incorrect.
  std::vector<std::string> problems;
  /// The JSON line's metrics: the end-to-end set (untraced run) or the
  /// per-layer set (traced run), in the names BENCHMARK.json declares.
  std::vector<Metric> metrics;
  /// Workload-specific figures under their own names (fwd_pps,
  /// flow_setup_p99_us, wake_p50_ms, span percentiles, ...).
  std::vector<Metric> details;
  /// Free-form facts worth keeping with the result (fingerprint digest, …).
  std::map<std::string, std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  [[nodiscard]] bool correct() const { return problems.empty(); }
};

/// Prints the report and the final JSON line, and writes the results file
/// <out_dir>/<workload>-seed<seed>-trace<0|1>.json.
void emit(const Options& opts, const Result& result);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// FNV-1a over a name → value map (names and the values' bit patterns).
std::string digest(const std::map<std::string, double>& values);

}  // namespace perfbench
