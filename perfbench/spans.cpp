#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  // VmHWM honours reset_peak_rss(); ru_maxrss (the whole process) does not.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Results::add(const std::string& name, const std::string& unit,
                  double value, double quantile) {
  Metric& m = metrics_[name];
  m.unit = unit;
  m.quantile = quantile;
  m.samples.push_back(value);
}

void Results::fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(what);
}

std::uint32_t Tracer::begin(const std::string& name) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id, std::uint64_t count) {
  if (!enabled_ || id == 0) return;
  Span& s = spans_[id - 1];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin_)
                 .count();
  s.count = count;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

std::uint64_t Tracer::total_count(const std::string& name) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.count;
  }
  return total;
}

double Tracer::per_call_ns(const std::string& name) const {
  const std::uint64_t n = total_count(name);
  return n == 0 ? 0.0 : total_seconds(name) * 1e9 / static_cast<double>(n);
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"count\":%llu}\n",
                 s.id, s.parent, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
