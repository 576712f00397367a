// The trace phase every workload runs between its suite entries: offline
// re-check of a seeded record_walk corpus through TraceStreamReader +
// check_trace_stream, and closed- and open-loop serving through
// StreamService.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "mc/record.hpp"
#include "protocol/registry.hpp"
#include "runlog/replay.hpp"
#include "runlog/run_trace.hpp"
#include "runlog/trace_stream.hpp"
#include "stream/service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace scv;

// Serving, closed and open loop, runs one producer (the benchmark's own
// thread) and one worker.  Two of each fill a 4-vCPU host with busy
// threads, and the host's own activity preempting them widened the spread
// between runs of every metric (see README.md, "Noise").
/// Open streams the producer keeps: per-stream state then exceeds the
/// cache, and opening and closing streams recycles the arena.
constexpr std::size_t kConcurrent = 256;
/// Open-loop latency needs enough streams that p99 has ten samples beyond it.
constexpr std::size_t kMinOpenStreams = 1000;
/// Open-loop symbol rate: about a quarter of the closed-loop capacity
/// (9.1-9.4M symbols/s on the parent commit, 4-vCPU 2.1 GHz host).  At
/// half capacity the host's own speed episodes pushed the service past
/// capacity, and the p99 then measured the host, not the service.
constexpr double kOpenRate = 2.5e6;

/// A corpus trace held in memory for the generators: symbols flattened, with
/// the cumulative symbol count at the end of each step.
struct Loaded {
  ScCheckerConfig cfg;
  std::vector<Symbol> symbols;
  std::vector<std::uint32_t> step_end;
};

struct OfflineBlock {
  double seconds = 0;
  std::uint64_t passes = 0;
  /// Traced run: traced / untraced - 1 for each adjacent pair of passes.
  std::vector<double> overhead;
};

/// One offline pass over every file; checks each verdict against the
/// recording.  `violating` receives the offline verdicts.
std::uint64_t offline_pass(const std::vector<std::string>& paths,
                           std::vector<char>& violating, Results& out,
                           Tracer* tracer) {
  std::uint64_t symbols = 0;
  violating.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    out.attempt();
    const std::uint32_t span =
        tracer != nullptr ? tracer->begin("runlog.check_trace_stream") : 0;
    TraceStreamReader reader(paths[i]);
    if (!reader.ok()) {
      if (tracer != nullptr) tracer->end(span);
      out.fail("cannot open " + paths[i] + ": " + reader.error());
      continue;
    }
    const RunVerdict recorded = reader.header().verdict;
    const TraceCheckResult r = check_trace_stream(reader);
    if (tracer != nullptr) tracer->end(span, r.steps_fed);
    if (!r.matches_recorded(recorded)) {
      out.fail("offline re-check of " + paths[i] + " disagrees with its "
               "recorded verdict " + to_string(recorded) + " (" + r.error +
               r.reject_reason + ")");
    }
    violating[i] = r.ok && !r.accepted;
    symbols += r.symbols_fed;
  }
  return symbols;
}

/// Runs whole offline passes for at least `min_seconds`.  Without a tracer,
/// each pass gives one check_symbols_per_s sample.  With a tracer, the
/// passes form pairs of one untraced and one traced pass, and each pair
/// gives one overhead sample.  A pair takes about 0.1 s, so the host's
/// drift, which moves over seconds, mostly cancels within it.  The order
/// within a pair alternates (untraced first, then traced first), so that
/// the first pass of a block, slowed by the serve rep before it, weighs on
/// both sides.
OfflineBlock offline_block(const std::vector<std::string>& paths,
                           std::vector<char>& violating, double min_seconds,
                           Results& out, Tracer* tracer) {
  OfflineBlock b;
  const auto t0 = Clock::now();
  double pair_s[2] = {0, 0};  ///< [untraced, traced] of the current pair
  do {
    const bool second = b.passes % 2 == 1;
    const bool traced =
        tracer != nullptr && (second != ((b.passes / 2) % 2 == 1));
    const auto t_pass = Clock::now();
    const std::uint64_t symbols =
        offline_pass(paths, violating, out, traced ? tracer : nullptr);
    const double pass_s = seconds_since(t_pass);
    pair_s[traced ? 1 : 0] = pass_s;
    if (tracer == nullptr) {
      out.add("check_symbols_per_s", "1/s",
              static_cast<double>(symbols) / pass_s, kSlowerQuartileRate);
    } else if (second) {
      b.overhead.push_back(pair_s[1] / pair_s[0] - 1.0);
    }
    ++b.passes;
    b.seconds = seconds_since(t0);
  } while (b.seconds < min_seconds || (tracer != nullptr && b.passes % 2 == 1));
  return b;
}

Loaded load_trace(const std::string& path, Results& out) {
  Loaded l;
  RunTrace t;
  std::string error;
  if (!read_run_trace(path, t, error)) {
    out.fail("cannot load " + path + ": " + error);
    return l;
  }
  l.cfg = t.checker;
  for (const RunStep& s : t.steps) {
    l.symbols.insert(l.symbols.end(), s.symbols.begin(), s.symbols.end());
    l.step_end.push_back(static_cast<std::uint32_t>(l.symbols.size()));
  }
  return l;
}

/// What one serve run (closed or open loop) asks of the producer.
struct ServeSpec {
  const std::vector<Loaded>* corpus = nullptr;
  double rate = 0;  ///< symbols/s; 0 = closed loop
  double min_seconds = 0;
  std::size_t min_streams = 0;
  std::uint64_t seed = 0;
  bool sample_backlog = false;
};

struct ProducerOut {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> streams;  ///< id, trace
  std::vector<double> lag_ms;
  std::vector<double> late_ms;
  std::vector<double> backlog;
  std::uint64_t events = 0;
};

/// Generator loop: keeps kConcurrent streams open and interleaves their
/// steps round-robin; in open loop each step is due at a fixed symbol rate,
/// lateness is recorded, and after a stream's last event the producer polls
/// report() until the verdict is published.  `t_go` is when the service
/// had applied every initial Open and the steps started.
void produce(StreamService& svc, const ServeSpec& spec, ProducerOut& out,
             Clock::time_point& t_go) {
  StreamService::Producer prod = svc.producer(0);
  const std::vector<Loaded>& corpus = *spec.corpus;
  Xoshiro256 rng(spec.seed * 0x9E3779B97F4A7C15ULL + 1);
  struct Slot {
    std::uint32_t id = 0;
    std::uint32_t trace = 0;
    std::uint32_t step = 0;
    bool live = false;
  };
  std::uint32_t next_id = 0;
  std::vector<Slot> slots(kConcurrent);
  auto open_slot = [&](Slot& s) {
    s.id = next_id++;
    s.trace = static_cast<std::uint32_t>(rng.below(corpus.size()));
    s.step = 0;
    s.live = true;
    prod.open(s.id, corpus[s.trace].cfg);
    ++out.events;
    out.streams.emplace_back(s.id, s.trace);
  };
  for (Slot& s : slots) open_slot(s);
  while (svc.stats().streams_opened < kConcurrent) std::this_thread::yield();
  t_go = Clock::now();

  struct Pending {
    std::uint32_t id;
    Clock::time_point due;
  };
  std::vector<Pending> pending;
  auto poll_pending = [&] {
    for (std::size_t i = 0; i < pending.size();) {
      if (svc.report(pending[i].id).has_value()) {
        const Clock::time_point done = Clock::now();
        out.lag_ms.push_back(
            std::chrono::duration<double, std::milli>(done - pending[i].due)
                .count());
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
  };

  const auto t0 = Clock::now();
  const bool paced = spec.rate > 0;
  double sent_symbols = 0;
  std::size_t live = slots.size();
  std::size_t finished = 0;
  bool opening = true;
  std::size_t rr = 0;
  std::uint64_t steps_sent = 0;
  while (live > 0) {
    Slot& s = slots[rr];
    rr = rr + 1 == slots.size() ? 0 : rr + 1;
    if (!s.live) continue;
    const Loaded& t = corpus[s.trace];
    const std::uint32_t begin = s.step == 0 ? 0 : t.step_end[s.step - 1];
    const std::uint32_t end = t.step_end[s.step];
    Clock::time_point due{};
    if (paced) {
      due = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(sent_symbols / spec.rate));
      Clock::time_point now = Clock::now();
      while (now < due) {
        poll_pending();
        now = Clock::now();
      }
      if ((steps_sent & 7) == 0) {
        out.late_ms.push_back(
            std::chrono::duration<double, std::milli>(now - due).count());
      }
    }
    for (std::uint32_t i = begin; i < end; ++i) prod.symbol(s.id, t.symbols[i]);
    prod.step_end(s.id);
    out.events += (end - begin) + 1;
    sent_symbols += end - begin;
    ++s.step;
    ++steps_sent;
    if (spec.sample_backlog && (steps_sent & 255) == 0) {
      const std::uint64_t applied = svc.stats().events;
      out.backlog.push_back(out.events > applied
                                ? static_cast<double>(out.events - applied)
                                : 0.0);
    }
    if (s.step == t.step_end.size()) {
      prod.close(s.id);
      ++out.events;
      if (paced) pending.push_back({s.id, due});
      ++finished;
      if (opening && finished >= spec.min_streams &&
          seconds_since(t0) >= spec.min_seconds) {
        opening = false;
      }
      if (opening) {
        open_slot(s);
      } else {
        s.live = false;
        --live;
      }
    }
  }
  while (!pending.empty()) poll_pending();
}

struct ServeResult {
  double serve_s = 0;
  StreamServiceStats stats;
  ProducerOut producer;
};

/// One serve run: builds the service, opens kConcurrent streams, and once
/// the service has applied every Open drives the producer and stops the
/// service.  Checks every stream's verdict against the offline one and
/// every quarantine excerpt.
ServeResult serve(const ServeSpec& spec, const std::vector<char>& violating,
                  Results& out, std::vector<double>* excerpt_bytes) {
  ServeResult r;
  {
    StreamServiceOptions opt;
    opt.producers = 1;
    opt.workers = 1;
    StreamService svc(opt);
    svc.start();
    Clock::time_point t_go;
    produce(svc, spec, r.producer, t_go);
    svc.stop();
    r.serve_s = seconds_since(t_go);
    r.stats = svc.stats();

    for (const auto& [id, trace] : r.producer.streams) {
      out.attempt();
      const std::optional<StreamReport> rep = svc.report(id);
      if (!rep.has_value()) {
        out.fail("served stream " + std::to_string(id) + " has no report");
        continue;
      }
      const bool served_violation = rep->state == StreamState::Quarantined;
      if (served_violation != static_cast<bool>(violating[trace])) {
        out.fail("stream " + std::to_string(id) + " (corpus trace " +
                 std::to_string(trace) + "): service verdict " +
                 to_string(rep->verdict) + " disagrees with the offline "
                 "check");
      }
      if (served_violation) {
        if (!rep->excerpt.has_value()) {
          out.fail("quarantined stream " + std::to_string(id) +
                   " has no excerpt");
          continue;
        }
        const TraceCheckResult c = check_trace(*rep->excerpt);
        if (!c.ok || c.accepted) {
          out.fail("quarantine excerpt of stream " + std::to_string(id) +
                   " does not re-reject offline");
        }
        if (excerpt_bytes != nullptr) {
          ByteWriter w;
          serialize_run_trace(*rep->excerpt, w);
          excerpt_bytes->push_back(static_cast<double>(w.data().size()));
        }
      }
    }
  }
  return r;
}

}  // namespace

struct TracePhase::State {
  std::vector<Loaded> corpus;
  std::vector<char> violating;  ///< offline verdict per corpus trace
  std::vector<double> overhead;  ///< traced run: per pair of offline passes
  std::vector<double> excerpt_bytes;
  std::vector<double> backlog;
  std::uint64_t stalls = 0, events = 0, quarantined = 0, discarded = 0;
  std::uint64_t rep = 0;
};

TracePhase::TracePhase(const RunConfig& cfg, std::vector<std::string> paths,
                       Results& out, Tracer& tracer)
    : cfg_(cfg),
      paths_(std::move(paths)),
      out_(out),
      tracer_(tracer),
      s_(std::make_unique<State>()) {
  if (paths_.empty()) {
    out_.fail("trace phase has an empty corpus");
    return;
  }
  // Offline verdicts first (they are what the service must reproduce);
  // this pass also warms the page cache.
  offline_pass(paths_, s_->violating, out_, nullptr);
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    Loaded l = load_trace(paths_[i], out_);
    if (l.step_end.empty()) {
      out_.fail("corpus trace " + paths_[i] + " has no steps");
      s_->corpus.clear();
      return;
    }
    s_->corpus.push_back(std::move(l));
  }
  if (!tracer_.enabled()) return;

  // runlog: a next()-only parse pass (compared with check time in finish).
  for (const std::string& path : paths_) {
    Scope s(tracer_, "runlog.parse");
    TraceStreamReader reader(path);
    RunStep step;
    std::uint64_t n = 0;
    while (reader.next(step)) ++n;
    if (!reader.done()) out_.fail("parse pass failed on " + path);
    s.set_count(n);
  }

  // stream: poll mode on this thread, pushing until the ring is nearly
  // full and then draining it, so push and drain+apply time separately.
  StreamServiceOptions opt;
  opt.producers = 1;
  opt.workers = 0;
  StreamService svc(opt);
  StreamService::Producer prod = svc.producer(0);
  const std::size_t room = opt.ring_capacity - 2;
  std::size_t queued = 0;
  std::uint32_t push_span = tracer_.begin("stream.push");
  auto flush = [&] {
    tracer_.end(push_span, queued);
    Scope drain(tracer_, "stream.poll");
    std::size_t applied = 0;
    for (std::size_t n = svc.poll(); n != 0; n = svc.poll()) applied += n;
    drain.set_count(applied);
    queued = 0;
    push_span = tracer_.begin("stream.push");
  };
  std::uint32_t id = 0;
  for (const Loaded& t : s_->corpus) {
    if (queued + 1 > room) flush();
    prod.open(id, t.cfg);
    ++queued;
    std::uint32_t begin = 0;
    for (const std::uint32_t end : t.step_end) {
      if (queued + (end - begin) + 2 > room) flush();
      for (std::uint32_t i = begin; i < end; ++i) {
        prod.symbol(id, t.symbols[i]);
      }
      prod.step_end(id);
      queued += (end - begin) + 1;
      begin = end;
    }
    prod.close(id);
    ++queued;
    ++id;
  }
  flush();
  tracer_.end(push_span, 0);
  out_.add("stream.push_ns_per_event", "ns", tracer_.per_call_ns("stream.push"));
  out_.add("stream.poll_ns_per_event", "ns", tracer_.per_call_ns("stream.poll"));
}

TracePhase::~TracePhase() = default;

void TracePhase::run(double seconds) {
  if (s_->corpus.empty()) return;
  State& st = *s_;
  // Offline re-check blocks (the scv_check path) of whole passes and
  // closed-loop serve reps, alternating.  The host's speed for this
  // cache-bound work moves between two levels about 1.5x apart within
  // seconds, so a block is long enough to average over both.
  constexpr double kBlockSeconds = 0.5;
  constexpr double kRepSeconds = 0.5;
  const auto t0 = Clock::now();
  do {
    if (tracer_.enabled()) {
      // Half of the passes traced; their cost against the untraced half is
      // the tracing overhead.
      Scope s(tracer_, "runlog.offline_block");
      const OfflineBlock b =
          offline_block(paths_, st.violating, kBlockSeconds, out_, &tracer_);
      s.set_count(b.passes);
      st.overhead.insert(st.overhead.end(), b.overhead.begin(),
                         b.overhead.end());
    } else {
      offline_block(paths_, st.violating, kBlockSeconds, out_, nullptr);
    }

    ServeSpec spec;
    spec.corpus = &st.corpus;
    spec.min_seconds = kRepSeconds;
    spec.seed = cfg_.seed * 1000 + st.rep++;
    spec.sample_backlog = tracer_.enabled();
    Scope s(tracer_, "stream.serve_closed");
    const ServeResult r = serve(spec, st.violating, out_, &st.excerpt_bytes);
    s.set_count(r.stats.events);
    out_.add("serve_symbols_per_s", "1/s",
             static_cast<double>(r.stats.symbols) / r.serve_s,
             kSlowerQuartileRate);
    st.stalls += r.stats.backpressure_stalls;
    st.events += r.stats.events;
    st.quarantined += r.stats.streams_quarantined;
    st.discarded += r.stats.discarded_events;
    st.backlog.insert(st.backlog.end(), r.producer.backlog.begin(),
                      r.producer.backlog.end());
  } while (seconds_since(t0) < seconds);
}

void TracePhase::finish(double open_seconds) {
  if (s_->corpus.empty() || !tracer_.enabled()) return;
  State& st = *s_;
  if (st.overhead.empty()) {
    out_.fail("traced run made no pair of offline passes");
  } else {
    out_.add("trace.overhead_share", "ratio", median(st.overhead));
  }

  // Open loop at the fixed rate, traced run only: its latency tail follows
  // the host's vCPU stalls (see README.md), so the lag metrics are per-layer
  // diagnostics, not gated end-to-end metrics.
  ServeSpec spec;
  spec.corpus = &st.corpus;
  spec.rate = kOpenRate;
  spec.min_seconds = open_seconds;
  spec.min_streams = kMinOpenStreams;
  spec.seed = cfg_.seed * 1000 + 999;
  {
    Scope s(tracer_, "stream.serve_open");
    const ServeResult r = serve(spec, st.violating, out_, &st.excerpt_bytes);
    s.set_count(r.stats.events);
    const std::vector<double>& lag = r.producer.lag_ms;
    const std::vector<double>& late = r.producer.late_ms;
    if (lag.size() < kMinOpenStreams) {
      out_.fail("open loop measured only " + std::to_string(lag.size()) +
                " streams");
    }
    out_.add("verdict_lag_ms_p50", "ms", percentile(lag, 0.50));
    out_.add("verdict_lag_ms_p99", "ms", percentile(lag, 0.99));
    out_.add("stream.generator_late_ms_p99", "ms", percentile(late, 0.99));
    st.quarantined += r.stats.streams_quarantined;
    st.discarded += r.stats.discarded_events;
  }

  out_.add("stream.stalls_per_kevent", "1/kevent",
           st.events == 0 ? 0.0
                          : 1000.0 * static_cast<double>(st.stalls) /
                                static_cast<double>(st.events));
  out_.add("stream.backlog_events_p99", "events",
           percentile(st.backlog, 0.99));
  out_.add("stream.quarantined", "count", static_cast<double>(st.quarantined));
  out_.add("stream.discarded_events", "count",
           static_cast<double>(st.discarded));
  double sum = 0;
  for (const double b : st.excerpt_bytes) sum += b;
  out_.add("runlog.excerpt_bytes_mean", "bytes",
           st.excerpt_bytes.empty()
               ? 0.0
               : sum / static_cast<double>(st.excerpt_bytes.size()));
  // Parse time per step against check time per step (traced blocks).
  const std::uint64_t parse_steps = tracer_.total_count("runlog.parse");
  const std::uint64_t check_steps =
      tracer_.total_count("runlog.check_trace_stream");
  const double parse_ns = tracer_.per_call_ns("runlog.parse");
  const double check_ns = tracer_.per_call_ns("runlog.check_trace_stream");
  out_.add("runlog.parse_ns_per_step", "ns", parse_ns);
  out_.add("runlog.parse_share", "ratio",
           parse_steps == 0 || check_steps == 0 ? 0.0 : parse_ns / check_ns);
}

/// Seeded corpus: record_walk runs over every (registry protocol, model)
/// pair the registry marks clean, each pair at one length near the middle of
/// each of four log-spaced strata of [200, 20000] steps, plus one trace
/// in 16 from a violating pair, cut at its violation.  The strata keep the
/// corpus size nearly the same for every seed; the seed picks the walks,
/// the lengths inside the strata and the violating pairs.  Violating walks alternate
/// between a violation inside the service's two excerpt windows (v2 excerpt)
/// and one past them (v3 excerpt with a base).
std::vector<std::string> make_corpus(const RunConfig& cfg, Results& out) {
  using namespace scv;
  constexpr double kMinSteps = 200, kMaxSteps = 20000;
  constexpr std::size_t kStrata = 4;
  /// Share of a stratum a length may move by; small, so the corpus size (and
  /// with it the offline pass time) barely depends on the seed.
  constexpr double kLengthJitter = 0.2;
  constexpr std::size_t kViolatingEvery = 16;
  constexpr std::size_t kViolationSteps = 250;
  constexpr std::size_t kExcerptSpan = 64;  ///< 2 * default excerpt_window

  struct Pair {
    const RegisteredProtocol* entry;
    MemoryModel model;
  };
  std::vector<Pair> clean, violating;
  for (const RegisteredProtocol& e : protocol_registry()) {
    for (const MemoryModel& m :
         {MemoryModel::sc(), MemoryModel::tso(), MemoryModel::coherence()}) {
      (e.violating_under(m) ? violating : clean).push_back({&e, m});
    }
  }

  const std::filesystem::path dir =
      std::filesystem::path(cfg.work_dir) / "corpus";
  std::filesystem::create_directories(dir);
  Xoshiro256 rng(cfg.seed ^ 0xC0FFEE1234ULL);
  std::vector<std::string> paths;
  std::size_t clean_made = 0, violating_made = 0;
  const std::size_t total = clean.size() * kStrata;
  for (std::size_t i = 0; clean_made < total; ++i) {
    const bool want_violation =
        (clean_made + violating_made) % kViolatingEvery ==
        kViolatingEvery - 1;
    RecordWalkOptions wo;
    RunTrace trace;
    if (!want_violation) {
      const Pair& pr = clean[clean_made % clean.size()];
      const std::size_t stratum = clean_made / clean.size();
      const double jitter =
          static_cast<double>(rng.below(1u << 20)) / (1u << 20) - 0.5;
      const double u = (static_cast<double>(stratum) + 0.5 +
                        kLengthJitter * jitter) /
                       static_cast<double>(kStrata);
      wo.steps = static_cast<std::size_t>(
          kMinSteps * std::pow(kMaxSteps / kMinSteps, u));
      wo.seed = rng();
      wo.observer.model = pr.model;
      trace = record_walk(*pr.entry->make(), wo);
      ++clean_made;
      out.attempt();
      if (trace.verdict != RunVerdict::Accepted) {
        out.fail("clean walk of " + pr.entry->id + " under " +
                 to_string(pr.model) + " ended " + to_string(trace.verdict));
      }
    } else {
      const bool long_excerpt = violating_made % 2 == 1;
      ++violating_made;
      bool found = false;
      for (int attempt = 0; attempt < 256 && !found; ++attempt) {
        const Pair& pr = violating[rng.below(violating.size())];
        wo.steps = kViolationSteps;
        wo.seed = rng();
        wo.observer.model = pr.model;
        trace = record_walk(*pr.entry->make(), wo);
        found = trace.verdict == RunVerdict::Violation &&
                (trace.steps.size() > kExcerptSpan) == long_excerpt;
      }
      out.attempt();
      if (!found) {
        out.fail("no violating walk found for corpus trace " +
                 std::to_string(i));
        continue;
      }
    }
    char name[32];
    std::snprintf(name, sizeof(name), "%03zu.scvr", i);
    const std::string path = (dir / name).string();
    std::string error;
    if (!write_run_trace(path, trace, error)) {
      out.fail("cannot write " + path + ": " + error);
      continue;
    }
    paths.push_back(path);
  }
  return paths;
}

}  // namespace perfbench
