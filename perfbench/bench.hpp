// Shared pieces of the repository benchmark (see README.md): metric sample
// sets, failure accounting, the span recorder of the traced run, the trace
// phase and the workloads' entry point.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Peak resident set size since the process started or since the last
/// successful reset_peak_rss(), which Linux supports through
/// /proc/self/clear_refs; returns false where it is unsupported.
[[nodiscard]] double peak_rss_mb();
bool reset_peak_rss();

/// The end-to-end times and throughputs report the slower quartile of a
/// run's samples, not the median: the host's memory speed switches between
/// two levels, and the slower one is present in nearly every run while the
/// share of the faster one is not (see README.md, "Noise").
constexpr double kSlowerQuartileTime = 0.75;
constexpr double kSlowerQuartileRate = 0.25;

/// Everything a run reports: metric samples (the printed value is their
/// `quantile`, by default the median), and operations attempted / failed
/// with the first failure texts.
class Results {
 public:
  struct Metric {
    std::string unit;
    double quantile = 0.5;
    std::vector<double> samples;
  };

  void add(const std::string& name, const std::string& unit, double value,
           double quantile = 0.5);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what);

  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few, for the log
};

/// One timed call (or batch of `count` calls) into a layer.  Spans live in
/// memory until the run ends; the per-layer table is derived from them.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::string name;          ///< "<layer>.<call>", e.g. "observer.step"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;   ///< calls covered by this span

  [[nodiscard]] double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// Span recorder for the calling thread's nesting.  Disabled recorders
/// (untraced runs) make every operation a no-op.  Only the benchmark's main
/// thread records spans; generator threads report aggregates instead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (0 when
  /// disabled).
  std::uint32_t begin(const std::string& name);
  /// Closes span `id`, which covered `count` calls.
  void end(std::uint32_t id, std::uint64_t count = 1);

  /// Sum of durations and of counts over closed spans named `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  [[nodiscard]] std::uint64_t total_count(const std::string& name) const;
  /// Seconds per call over spans named `name` (0 when none).
  [[nodiscard]] double per_call_ns(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< stack of open span ids
};

/// RAII span around one call or batch.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { t_.end(id_, count_); }
  void set_count(std::uint64_t n) { count_ = n; }

 private:
  Tracer& t_;
  std::uint32_t id_;
  std::uint64_t count_ = 1;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string work_dir;  ///< working directory for trace files
};

// --- Trace phase (traces_workload.cpp) --------------------------------------

/// The trace phase every workload runs: offline re-check of SCVR files
/// (TraceStreamReader + check_trace_stream) and closed-loop serving through
/// StreamService, plus, in a traced run, the open loop and the per-layer
/// stream and runlog metrics.  Each file's recorded verdict is the expected
/// one.
class TracePhase {
 public:
  /// Loads the corpus and takes its offline verdicts; a traced run also
  /// times a parse-only pass and a poll-mode push/drain pass here.
  TracePhase(const RunConfig& cfg, std::vector<std::string> paths,
             Results& out, Tracer& tracer);
  TracePhase(const TracePhase&) = delete;
  TracePhase& operator=(const TracePhase&) = delete;
  ~TracePhase();

  /// Alternates offline re-check blocks and closed-loop serve reps for
  /// about `seconds`, at least one of each.  Callable repeatedly, so a
  /// workload can spread the phase over its whole run.
  void run(double seconds);
  /// Traced run only: the open loop for at least `open_seconds`, then the
  /// per-layer stream and runlog metrics.
  void finish(double open_seconds);

 private:
  struct State;
  const RunConfig& cfg_;
  std::vector<std::string> paths_;
  Results& out_;
  Tracer& tracer_;
  std::unique_ptr<State> s_;
};

/// Writes the seeded record_walk corpus (every clean registry pair at four
/// length strata, one trace in 16 violating) under cfg.work_dir and returns
/// the file paths.
std::vector<std::string> make_corpus(const RunConfig& cfg, Results& out);

// --- Workloads --------------------------------------------------------------

/// verify_reduced or verify_bounded (cfg.workload).
void run_verify_workload(const RunConfig& cfg, Results& out, Tracer& tracer);

}  // namespace perfbench
