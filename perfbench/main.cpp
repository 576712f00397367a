// Repository benchmark binary.  Usage:
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object: correct / attempted / failed, every metric the run measured
// (end-to-end ones with --trace 0, per-layer ones with --trace 1) with its
// sample count and quartiles, and the host probe pair.  perfbench/run.py
// builds this binary, keeps the metrics BENCHMARK.json names for the mode
// and counts a missing one as a failed operation.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

/// A fixed integer loop that does not depend on the code under test: its
/// time tracks the host's speed, so a drift episode shows as a probe change.
double host_probe_ms() {
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    reps.push_back(seconds_since(t0) * 1e3);
  }
  return median(reps);
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload verify_reduced|verify_bounded "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string spans_path;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || (trace != 0 && trace != 1) || cfg.seconds <= 0 ||
      (cfg.workload != "verify_reduced" && cfg.workload != "verify_bounded")) {
    return usage();
  }
  cfg.trace = trace == 1;
  cfg.work_dir = ".bench_work/" + cfg.workload + "-" +
                 std::to_string(cfg.seed) + "-" + std::to_string(getpid());
  std::filesystem::create_directories(cfg.work_dir);

  Results out;
  Tracer tracer(cfg.trace);
  const double probe_start = host_probe_ms();
  run_verify_workload(cfg, out, tracer);
  const double probe_end = host_probe_ms();
  std::filesystem::remove_all(cfg.work_dir);

  if (cfg.trace) {
    out.add("host.probe_ms", "ms", probe_start);
    out.add("host.probe_drift", "ratio", probe_end / probe_start - 1.0);
    if (!spans_path.empty() && !tracer.write_jsonl(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    }
  }

  for (const std::string& f : out.failures()) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              out.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted()),
              static_cast<unsigned long long>(out.failed()));
  std::printf("\"probe_ms\": [%.6g, %.6g], \"build_type\": ", probe_start,
              probe_end);
  print_json_string(PERFBENCH_BUILD_TYPE);
  std::printf(", \"failures\": [");
  for (std::size_t i = 0; i < out.failures().size(); ++i) {
    if (i != 0) std::printf(", ");
    print_json_string(out.failures()[i]);
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : out.metrics()) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(name);
    std::printf(": {\"value\": %.9g, \"unit\": ",
                percentile(m.samples, m.quantile));
    print_json_string(m.unit);
    std::printf(", \"n\": %zu, \"q1\": %.9g, \"q3\": %.9g}", m.samples.size(),
                percentile(m.samples, 0.25), percentile(m.samples, 0.75));
  }
  std::printf("}}\n");
  return 0;
}
