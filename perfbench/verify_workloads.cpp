// verify_reduced and verify_bounded: fixed verify_sc suites with pinned
// verdicts and state counts, timed pass by pass; in the traced run, the
// analysis prechecks and a layer-replay walk time the protocol, observer,
// checker and util calls run_bfs makes.
#include <algorithm>
#include <functional>
#include <memory>

#include "analysis/lint.hpp"
#include "analysis/skeleton.hpp"
#include "bench.hpp"
#include "core/verifier.hpp"
#include "protocol/directory.hpp"
#include "protocol/get_shared_toy.hpp"
#include "protocol/lazy_caching.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"
#include "runlog/replay.hpp"
#include "util/fingerprint.hpp"
#include "util/fp_set.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace scv;

/// One suite entry and its pinned outcome (re-derived on this tree: a
/// mismatch is a failed operation, never a skip).
struct Entry {
  const char* label;
  std::function<std::unique_ptr<Protocol>()> make;
  MemoryModel model;
  McVerdict verdict;
  std::size_t states;
};

std::unique_ptr<Protocol> wb(std::size_t p, std::size_t b, std::size_t v,
                             std::size_t d, bool fwd, bool drain = false) {
  return std::make_unique<WriteBuffer>(p, b, v, d, fwd, drain);
}

const MemoryModel kSc = MemoryModel::sc();

/// Orbit canonicalization and POR engage; every registry protocol kind at a
/// size that reaches a verdict.  Single-threaded, McOptions defaults.
const std::vector<Entry>& reduced_suite() {
  static const std::vector<Entry> suite = {
      {"DirectoryProtocol(2,1,1)/sc",
       [] { return std::make_unique<DirectoryProtocol>(2, 1, 1); }, kSc,
       McVerdict::Verified, 101333},
      {"MsiBus(2,1,1)/sc", [] { return std::make_unique<MsiBus>(2, 1, 1); },
       kSc, McVerdict::Verified, 19454},
      {"LazyCaching(2,1,2,1,2)/sc",
       [] { return std::make_unique<LazyCaching>(2, 1, 2, 1, 2); }, kSc,
       McVerdict::Verified, 134091},
      {"SerialMemory(4,1,1)/sc",
       [] { return std::make_unique<SerialMemory>(4, 1, 1); }, kSc,
       McVerdict::Verified, 12859},
      {"WriteBuffer(3,1,1,2,fwd,drain)/sc",
       [] { return wb(3, 1, 1, 2, true, true); }, kSc, McVerdict::Verified,
       57631},
      {"WriteBuffer(2,1,2,2)/tso", [] { return wb(2, 1, 2, 2, false); },
       MemoryModel::tso(), McVerdict::Verified, 154609},
      {"MsiBus(2,2,2,bug)/sc",
       [] { return std::make_unique<MsiBus>(2, 2, 2, true); }, kSc,
       McVerdict::Violation, 28951},
      {"WriteBuffer(2,2,2,2,fwd,drain)/sc",
       [] { return wb(2, 2, 2, 2, true, true); }, kSc, McVerdict::Violation,
       42736},
      {"WriteBuffer(2,2,2,2,fwd)/sc", [] { return wb(2, 2, 2, 2, true); }, kSc,
       McVerdict::Violation, 1773},
      {"GetSharedToy(2,2,2,2)/sc",
       [] { return std::make_unique<GetSharedToy>(2, 2, 2, 2); }, kSc,
       McVerdict::Violation, 357},
  };
  return suite;
}

/// No orbit search or POR (sc+bpN strips both): the store, dedup and expand
/// paths carry the load.  Two engine threads.
const std::vector<Entry>& bounded_suite() {
  static const std::vector<Entry> suite = {
      {"SerialMemory(2,2,2)/sc+bp1",
       [] { return std::make_unique<SerialMemory>(2, 2, 2); },
       MemoryModel::bounded_sc(1), McVerdict::Verified, 298985},
      {"MsiBus(2,1,2)/sc+bp1",
       [] { return std::make_unique<MsiBus>(2, 1, 2); },
       MemoryModel::bounded_sc(1), McVerdict::Verified, 199470},
      {"LazyCaching(2,1,2,1,2)/sc+bp1",
       [] { return std::make_unique<LazyCaching>(2, 1, 2, 1, 2); },
       MemoryModel::bounded_sc(1), McVerdict::Verified, 233860},
      {"DirectoryProtocol(2,1,1)/sc+bp2",
       [] { return std::make_unique<DirectoryProtocol>(2, 1, 1); },
       MemoryModel::bounded_sc(2), McVerdict::Verified, 169028},
      {"MsiBus(2,2,2,bug)/sc+bp1",
       [] { return std::make_unique<MsiBus>(2, 2, 2, true); },
       MemoryModel::bounded_sc(1), McVerdict::Violation, 34263},
      {"WriteBuffer(2,2,2,2,fwd,drain)/sc+bp2",
       [] { return wb(2, 2, 2, 2, true, true); }, MemoryModel::bounded_sc(2),
       McVerdict::Violation, 149445},
  };
  return suite;
}

McOptions options_for(const Entry& e, std::size_t threads) {
  McOptions o;
  o.threads = threads;
  o.record_counterexample = true;
  o.observer.model = e.model;
  return o;
}

struct PassResult {
  /// Sum over the entries, each from the verify_sc call until its verdict
  /// returns (counterexample export included).
  double seconds = 0;
  /// Highest VmHWM over the entries, each reset just before its call.
  double peak_rss_mb = 0;
  bool rss_reset = true;  ///< every reset was accepted
  std::vector<McResult> results;  ///< suite order
};

/// One pass over the suite, calling `after_entry` with each entry's time
/// once its verdict has returned (outside the timing).  Checks each verdict
/// and state count against the pin and re-rejects each counterexample
/// through check_trace.
PassResult run_pass(const std::vector<Entry>& suite, std::size_t threads,
                    Results& out, Tracer* tracer,
                    const std::function<void(double)>& after_entry) {
  PassResult pass;
  pass.results.resize(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Entry& e = suite[i];
    const std::unique_ptr<Protocol> proto = e.make();
    const McOptions opt = options_for(e, threads);
    pass.rss_reset = reset_peak_rss() && pass.rss_reset;
    const std::uint32_t span =
        tracer != nullptr ? tracer->begin("mc.verify_sc") : 0;
    const auto t0 = Clock::now();
    McResult r = verify_sc(*proto, opt);
    const double entry_s = seconds_since(t0);
    if (tracer != nullptr) tracer->end(span, r.states);
    pass.peak_rss_mb = std::max(pass.peak_rss_mb, peak_rss_mb());
    pass.seconds += entry_s;
    pass.results[i] = std::move(r);
    after_entry(entry_s);
  }

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Entry& e = suite[i];
    const McResult& r = pass.results[i];
    out.attempt();
    if (r.verdict != e.verdict || r.states != e.states) {
      out.fail(std::string(e.label) + ": " + to_string(r.verdict) + " with " +
               std::to_string(r.states) + " states, pinned " +
               to_string(e.verdict) + " with " + std::to_string(e.states));
      continue;
    }
    if (r.verdict != McVerdict::Violation) continue;
    if (!r.counterexample_trace.has_value()) {
      out.fail(std::string(e.label) + ": violation without a counterexample");
      continue;
    }
    const TraceCheckResult c = check_trace(*r.counterexample_trace);
    if (!c.ok || c.accepted) {
      out.fail(std::string(e.label) +
               ": counterexample does not re-reject through check_trace");
    }
  }
  return pass;
}

/// Set-up of the suite: the sum of (wall - McResult::seconds) over its
/// Verified entries, on calls capped at one state.  model_check runs every
/// precheck (lint, symmetry self-check, POR commutation walk) before it
/// explores, so a capped call times exactly those.  In full passes the same
/// sum also took in the teardown of the visited store, which made it swing
/// between 4 and 22 ms within one run on verify_bounded.
double measure_setup(const std::vector<Entry>& suite, std::size_t threads) {
  double total = 0;
  for (const Entry& e : suite) {
    if (e.verdict != McVerdict::Verified) continue;
    const std::unique_ptr<Protocol> proto = e.make();
    McOptions opt = options_for(e, threads);
    opt.max_states = 1;
    const auto t0 = Clock::now();
    const McResult r = verify_sc(*proto, opt);
    total += seconds_since(t0) - r.seconds;
  }
  return total;
}

/// mc metrics of one (traced) pass, read from McResult.
void record_mc(const std::vector<McResult>& results, Results& out) {
  double states = 0, transitions = 0, seconds = 0, orbit_weighted = 0;
  double store_bytes = 0, frontier_peak = 0, hits = 0, lookups = 0;
  double ample = 0, full = 0, pruned = 0;
  McPhaseTimes phases;
  for (const McResult& r : results) {
    states += static_cast<double>(r.states);
    transitions += static_cast<double>(r.transitions);
    seconds += r.seconds;
    orbit_weighted += r.orbit_reduction * static_cast<double>(r.states);
    store_bytes += static_cast<double>(r.store_bytes);
    frontier_peak =
        std::max(frontier_peak, static_cast<double>(r.frontier_bytes));
    hits += static_cast<double>(r.dup_cache_hits);
    lookups += static_cast<double>(r.dup_cache_lookups);
    ample += static_cast<double>(r.por_ample_states);
    full += static_cast<double>(r.por_full_states);
    pruned += static_cast<double>(r.preemption_pruned);
    phases.expand += r.phase_times.expand;
    phases.canonicalize += r.phase_times.canonicalize;
    phases.dedup += r.phase_times.dedup;
    phases.materialize += r.phase_times.materialize;
  }
  const double phase_sum = phases.expand + phases.canonicalize +
                           phases.dedup + phases.materialize;
  out.add("mc.states", "count", states);
  out.add("mc.transitions", "count", transitions);
  out.add("mc.expand_cpu_s", "s", phases.expand);
  out.add("mc.canonicalize_cpu_s", "s", phases.canonicalize);
  out.add("mc.dedup_cpu_s", "s", phases.dedup);
  out.add("mc.materialize_cpu_s", "s", phases.materialize);
  out.add("mc.canonicalize_share", "ratio",
          phase_sum > 0 ? phases.canonicalize / phase_sum : 0.0);
  out.add("mc.explore_states_per_s", "1/s", seconds > 0 ? states / seconds : 0);
  out.add("mc.store_bytes_per_state", "bytes",
          states > 0 ? store_bytes / states : 0.0);
  out.add("mc.frontier_peak_mb", "MB", frontier_peak / 1e6);
  out.add("mc.dup_cache_hit_ratio", "ratio", lookups > 0 ? hits / lookups : 0);
  out.add("mc.orbit_reduction", "ratio",
          states > 0 ? orbit_weighted / states : 1.0);
  out.add("mc.por_ample_ratio", "ratio",
          ample + full > 0 ? ample / (ample + full) : 0.0);
  out.add("mc.preemption_pruned", "count", pruned);
}

/// The analysis calls model_check makes before exploring: the Sampled lint
/// (always), the symmetry self-check (when the engine would run it), and
/// the control-skeleton build the inferred-POR work starts from.
void record_analysis(const std::vector<Entry>& suite, Results& out,
                     Tracer& tracer) {
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Entry& e : suite) {
      const std::unique_ptr<Protocol> proto = e.make();
      {
        Scope s(tracer, "analysis.lint");
        LintOptions lopt;
        lopt.mode = LintOptions::Mode::Sampled;
        lopt.observer.model = e.model;
        const LintReport report = lint_protocol(*proto, lopt);
        if (report.has_errors()) out.fail(std::string(e.label) + ": lint");
      }
      const auto& pr = proto->params();
      if (proto->processor_symmetric() && pr.procs >= 2 &&
          pr.procs <= ProcPerm::kMax && !e.model.bounded_preemption()) {
        Scope s(tracer, "analysis.symmetry_check");
        const SymmetryCheckResult sym = check_processor_symmetry(*proto);
        if (!sym.ok) out.fail(std::string(e.label) + ": symmetry check");
      }
      {
        Scope s(tracer, "analysis.skeleton");
        const analysis::ProtocolSkeleton sk = analysis::build_skeleton(*proto);
        s.set_count(sk.num_states());
      }
    }
  }
  out.add("analysis.lint_s", "s", tracer.total_seconds("analysis.lint") / kReps);
  out.add("analysis.symmetry_check_s", "s",
          tracer.total_seconds("analysis.symmetry_check") / kReps);
  out.add("analysis.skeleton_s", "s",
          tracer.total_seconds("analysis.skeleton") / kReps);
}

/// Layer-replay walk: a seeded walk per suite entry through the public
/// calls run_bfs makes, recorded once, then replayed layer by layer with
/// one span per batch of calls.
void record_layers(const std::vector<Entry>& suite, std::uint64_t seed,
                   Results& out, Tracer& tracer) {
  constexpr std::size_t kSteps = 2048;
  constexpr int kReps = 8;
  std::uint64_t symbols_emitted = 0, steps_replayed = 0;
  Xoshiro256 rng(seed ^ 0x1A7E4ULL);
  for (const Entry& e : suite) {
    const std::unique_ptr<Protocol> proto = e.make();
    const Protocol& p = *proto;
    ObserverConfig ocfg;
    ocfg.model = e.model;
    const Observer fresh_obs(p, ocfg);
    const auto& pr = p.params();
    const ScCheckerConfig ccfg{fresh_obs.bandwidth(), pr.procs, pr.blocks,
                               pr.values, false, e.model};
    const ScChecker fresh_chk(ccfg);

    // Record the walk.  It restarts from the initial state at a dead end or
    // a failing step; `restart[i]` marks the first step of each segment.
    struct Step {
      std::vector<std::uint8_t> pre, post;
      Transition t;
      std::vector<Symbol> symbols;
      std::vector<GraphId> id_canon;
      std::vector<std::uint8_t> snapshot, key;
      bool restart = false;
    };
    std::vector<Step> steps;
    std::vector<Observer> observers;
    std::vector<ScChecker> checkers;
    steps.reserve(kSteps);
    {
      std::vector<std::uint8_t> state(p.state_size());
      p.initial_state(state);
      Observer obs = fresh_obs;
      ScChecker chk = fresh_chk;
      bool restart = true;
      std::vector<Transition> enabled;
      while (steps.size() < kSteps) {
        enabled.clear();
        p.enumerate(state, enabled);
        Step s;
        bool ok = !enabled.empty();
        if (ok) {
          s.t = enabled[rng.below(enabled.size())];
          s.pre = state;
          s.post = state;
          p.apply(s.post, s.t);
          ok = obs.step(s.t, s.post, s.symbols) == ObserverStatus::Ok &&
               chk.feed_batch(s.symbols) == ScChecker::Status::Ok;
        }
        if (!ok) {
          p.initial_state(state);
          obs = fresh_obs;
          chk = fresh_chk;
          restart = true;
          continue;
        }
        s.restart = restart;
        restart = false;
        ByteWriter w;
        w.bytes(s.post);
        obs.serialize(w, &s.id_canon);
        chk.serialize_canonical(w, s.id_canon);
        s.key = w.data();
        ByteWriter snap;
        chk.snapshot(snap);
        s.snapshot = snap.data();
        state = s.post;
        observers.push_back(obs);
        checkers.push_back(chk);
        steps.push_back(std::move(s));
      }
    }

    const std::uint64_t n = steps.size();
    std::vector<Transition> enabled;
    std::vector<std::uint8_t> buf(p.state_size());
    std::vector<Symbol> syms;
    std::vector<GraphId> id_canon;
    ByteWriter w;
    for (int rep = 0; rep < kReps; ++rep) {
      {
        Scope s(tracer, "protocol.enumerate");
        for (const Step& st : steps) {
          enabled.clear();
          p.enumerate(st.pre, enabled);
        }
        s.set_count(n);
      }
      {
        Scope s(tracer, "protocol.apply");
        for (const Step& st : steps) {
          std::copy(st.pre.begin(), st.pre.end(), buf.begin());
          p.apply(buf, st.t);
        }
        s.set_count(n);
      }
      {
        Scope s(tracer, "observer.step");
        Observer obs = fresh_obs;
        std::uint64_t emitted = 0;
        for (const Step& st : steps) {
          if (st.restart) obs = fresh_obs;
          syms.clear();
          if (obs.step(st.t, st.post, syms) != ObserverStatus::Ok) {
            out.fail(std::string(e.label) + ": observer replay diverged");
          }
          emitted += syms.size();
        }
        s.set_count(n);
        symbols_emitted += emitted;
        steps_replayed += n;
      }
      {
        Scope s(tracer, "checker.feed");
        ScChecker chk = fresh_chk;
        std::uint64_t fed = 0;
        for (const Step& st : steps) {
          if (st.restart) chk = fresh_chk;
          chk.feed_batch(st.symbols);
          fed += st.symbols.size();
        }
        s.set_count(fed);
      }
      {
        Scope s(tracer, "observer.key");
        for (std::size_t i = 0; i < n; ++i) {
          w.clear();
          observers[i].serialize(w, &id_canon);
        }
        s.set_count(n);
      }
      {
        Scope s(tracer, "checker.key");
        for (std::size_t i = 0; i < n; ++i) {
          w.clear();
          checkers[i].serialize_canonical(w, steps[i].id_canon);
        }
        s.set_count(n);
      }
      {
        Scope s(tracer, "checker.snapshot");
        for (std::size_t i = 0; i < n; ++i) {
          w.clear();
          checkers[i].snapshot(w);
        }
        s.set_count(n);
      }
      {
        Scope s(tracer, "checker.restore");
        ScChecker chk = fresh_chk;
        for (const Step& st : steps) {
          ByteReader r(st.snapshot);
          chk.restore(r);
        }
        s.set_count(n);
      }
      {
        Scope s(tracer, "util.fp_insert");
        FingerprintSet set(n);
        for (const Step& st : steps) set.insert(fingerprint128(st.key));
        s.set_count(n);
      }
    }
  }
  out.add("protocol.enumerate_ns", "ns", tracer.per_call_ns("protocol.enumerate"));
  out.add("protocol.apply_ns", "ns", tracer.per_call_ns("protocol.apply"));
  out.add("observer.step_ns", "ns", tracer.per_call_ns("observer.step"));
  out.add("observer.symbols_per_step", "count",
          steps_replayed == 0 ? 0.0
                              : static_cast<double>(symbols_emitted) /
                                    static_cast<double>(steps_replayed));
  out.add("checker.feed_ns_per_symbol", "ns",
          tracer.per_call_ns("checker.feed"));
  out.add("observer.key_ns", "ns", tracer.per_call_ns("observer.key"));
  out.add("checker.key_ns", "ns", tracer.per_call_ns("checker.key"));
  out.add("checker.snapshot_ns", "ns", tracer.per_call_ns("checker.snapshot"));
  out.add("checker.restore_ns", "ns", tracer.per_call_ns("checker.restore"));
  out.add("util.fp_insert_ns", "ns", tracer.per_call_ns("util.fp_insert"));
}

}  // namespace

void run_verify_workload(const RunConfig& cfg, Results& out, Tracer& tracer) {
  const bool bounded = cfg.workload == "verify_bounded";
  const std::vector<Entry>& suite = bounded ? bounded_suite() : reduced_suite();
  const std::size_t threads = bounded ? 2 : 1;

  // Every run reports every end-to-end metric, so the verify workloads also
  // re-check and serve a record_walk corpus through the trace phase.  (The
  // suite's own counterexamples, 3-7 steps each, are too few and too short
  // for a steady throughput.)  The phase runs between suite entries: each
  // second of verify_sc owes kTracePerVerify seconds of it, paid in slices
  // of at least one offline block and one serve rep.  Its samples then span
  // the whole run, as the passes do; the host's memory speed moves between
  // two levels over seconds to minutes.  For the same reason set-up is
  // sampled once after every entry, not in a batch after each pass.
  TracePhase phase(cfg, make_corpus(cfg, out), out, tracer);
  constexpr double kTracePerVerify = 0.5;
  constexpr double kSliceSeconds = 1.0;
  double owed = 0;
  const std::function<void(double)> after_entry = [&](double entry_s) {
    if (!tracer.enabled()) {
      out.add("setup_s", "s", measure_setup(suite, threads),
              kSlowerQuartileTime);
    }
    owed += kTracePerVerify * entry_s;
    if (owed < kSliceSeconds) return;
    const auto t = Clock::now();
    phase.run(owed);
    owed -= seconds_since(t);
  };

  // A pass and its slices take about 10 s (verify_reduced) or 8 s
  // (verify_bounded) on a 4-CPU 2.1 GHz host.  Run at least three passes
  // (one when traced) and stop before the run would exceed its seconds;
  // an untraced run spends what is left on the trace phase.  A traced run
  // traces every pass (one span per verify_sc call) and leaves a third of
  // its time for the analysis, the replay walk and the open loop.
  const double budget = cfg.seconds * (tracer.enabled() ? 0.62 : 1.0);
  std::vector<double> cycle_s;
  const auto t0 = Clock::now();
  std::vector<McResult> traced_results;
  for (int i = 0;; ++i) {
    const auto t_cycle = Clock::now();
    PassResult pass = run_pass(suite, threads, out,
                               tracer.enabled() ? &tracer : nullptr,
                               after_entry);
    if (tracer.enabled()) {
      traced_results = std::move(pass.results);
    } else {
      out.add("verdict_s", "s", pass.seconds, kSlowerQuartileTime);
      // Per pass: the 2-thread engine's peak varies from pass to pass.
      // Where a VmHWM reset is refused, VmHWM is the process's high-water
      // mark instead, so the pass counts a failed operation rather than
      // report it.
      if (pass.rss_reset) {
        out.add("peak_rss_mb", "MB", pass.peak_rss_mb);
      } else {
        out.fail("cannot reset the peak RSS through /proc/self/clear_refs");
      }
    }
    cycle_s.push_back(seconds_since(t_cycle));
    const int min_passes = tracer.enabled() ? 1 : 3;
    if (i + 1 >= min_passes && seconds_since(t0) + median(cycle_s) > budget) {
      break;
    }
  }
  if (!tracer.enabled() && budget - seconds_since(t0) > kSliceSeconds) {
    phase.run(budget - seconds_since(t0));
  }

  if (tracer.enabled()) {
    record_mc(traced_results, out);
    record_analysis(suite, out, tracer);
    record_layers(suite, cfg.seed, out, tracer);
  }

  phase.finish(cfg.seconds * 0.1);
}

}  // namespace perfbench
