#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trip text of a double; JSON has no NaN/Inf, so those
/// (never expected) print as 0.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           json_escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        while (!v.empty() && v.front() == ' ') v.erase(v.begin());
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string digest(const std::map<std::string, double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, value] : values) {
    mix(name.data(), name.size());
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    mix(&bits, sizeof bits);
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void emit(const Options& opts, const Result& r) {
  std::map<std::string, std::string> env = {
      {"git_sha", opts.git_sha},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
      {"cpu", cpu_model()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
  };

  std::printf("== perfbench %s seed %llu, %s run, %.1f s ==\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced" : "untraced", opts.seconds);
  for (const auto& [k, v] : env) std::printf("env %-10s %s\n", k.c_str(), v.c_str());
  for (const auto& [k, v] : r.notes) std::printf("note %-22s %s\n", k.c_str(), v.c_str());
  for (const Metric& m : r.details) {
    std::printf("  %-44s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("-- reported --\n");
  for (const Metric& m : r.metrics) {
    std::printf("  %-44s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu, failed %llu, checks %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct() ? "passed" : "FAILED");
  for (const std::string& p : r.problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  std::ostringstream file;
  file << "{\n  \"workload\": \"" << json_escape(opts.workload) << "\",\n"
       << "  \"seed\": " << opts.seed << ",\n"
       << "  \"seconds\": " << json_number(opts.seconds) << ",\n"
       << "  \"trace\": " << (opts.trace ? 1 : 0) << ",\n  \"env\": {";
  bool first = true;
  for (const auto& [k, v] : env) {
    file << (first ? "" : ", ") << "\"" << k << "\": \"" << json_escape(v) << "\"";
    first = false;
  }
  file << "},\n  \"notes\": {";
  first = true;
  for (const auto& [k, v] : r.notes) {
    file << (first ? "" : ", ") << "\"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
    first = false;
  }
  file << "},\n  \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    file << (i ? ", " : "") << "\"" << json_escape(r.problems[i]) << "\"";
  }
  file << "],\n  \"details\": " << metrics_object(r.details)
       << ",\n  \"metrics\": " << metrics_object(r.metrics) << "\n}\n";
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  const std::string path = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           (opts.trace ? "1" : "0") + ".json";
  std::ofstream(path) << file.str();

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_object(r.metrics).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
