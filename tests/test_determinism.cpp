// Thread-count invariance of the exploration engine.  Every level numbers
// its new states in the order a single worker expands in, so a run at N
// workers must return exactly the 1-worker result — verdict, counts,
// per-level statistics, counterexample and recorded trace bytes — in both
// store modes, under the state budget and from a minimum-size store.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checker/memory_model.hpp"
#include "mc/model_checker.hpp"
#include "protocol/directory.hpp"
#include "protocol/registry.hpp"
#include "runlog/run_trace.hpp"
#include "util/byte_io.hpp"

namespace scv {
namespace {

std::vector<std::uint8_t> trace_bytes(const McResult& r) {
  std::vector<std::uint8_t> out;
  if (r.counterexample_trace.has_value()) {
    ByteWriter w(out);
    serialize_run_trace(*r.counterexample_trace, w);
  }
  return out;
}

/// Everything a run reports that the worker count must not change.
void expect_same_result(const McResult& a, const McResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.verdict, b.verdict) << what << ": " << a.summary() << " vs "
                                  << b.summary();
  EXPECT_EQ(a.states, b.states) << what;
  EXPECT_EQ(a.transitions, b.transitions) << what;
  EXPECT_EQ(a.depth, b.depth) << what;
  EXPECT_EQ(a.peak_frontier, b.peak_frontier) << what;
  EXPECT_EQ(a.peak_live_nodes, b.peak_live_nodes) << what;
  EXPECT_EQ(a.preemption_pruned, b.preemption_pruned) << what;
  EXPECT_EQ(a.orbit_reduction, b.orbit_reduction) << what;
  EXPECT_EQ(a.por_ample_states, b.por_ample_states) << what;
  EXPECT_EQ(a.por_full_states, b.por_full_states) << what;
  EXPECT_EQ(a.por_proviso_fallbacks, b.por_proviso_fallbacks) << what;
  EXPECT_EQ(a.por_deferred_transitions, b.por_deferred_transitions) << what;
  EXPECT_EQ(a.reason, b.reason) << what;
  EXPECT_EQ(a.cycle, b.cycle) << what;
  ASSERT_EQ(a.level_stats.size(), b.level_stats.size()) << what;
  for (std::size_t i = 0; i < a.level_stats.size(); ++i) {
    EXPECT_EQ(a.level_stats[i].frontier, b.level_stats[i].frontier)
        << what << ", level " << i;
    EXPECT_EQ(a.level_stats[i].fresh, b.level_stats[i].fresh)
        << what << ", level " << i;
  }
  ASSERT_EQ(a.counterexample.size(), b.counterexample.size()) << what;
  for (std::size_t i = 0; i < a.counterexample.size(); ++i) {
    EXPECT_EQ(a.counterexample[i].action, b.counterexample[i].action)
        << what << ", step " << i;
    EXPECT_EQ(a.counterexample[i].emitted, b.counterexample[i].emitted)
        << what << ", step " << i;
  }
  EXPECT_EQ(trace_bytes(a), trace_bytes(b)) << what;
}

/// Runs `proto` under `opt` at 1 worker, then at 2 and 4, and compares.
void expect_thread_invariant(const Protocol& proto, McOptions opt,
                             const std::string& what) {
  opt.threads = 1;
  const McResult base = model_check(proto, opt);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    opt.threads = threads;
    expect_same_result(base, model_check(proto, opt),
                       what + " at " + std::to_string(threads) + " threads");
  }
}

// Every registry protocol under sc and tso (symmetry and POR engage where
// the protocol declares them), both store modes.  The cap keeps each run
// small; runs that reach it exercise the budget stop, the others end in a
// verdict — a violation for most of the sc column.
TEST(Determinism, RegistryResultsMatchAcrossThreadCounts) {
  constexpr std::size_t kCap = 4000;
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const auto proto = entry.make();
    for (const MemoryModel& model : {MemoryModel::sc(), MemoryModel::tso()}) {
      for (const bool exact : {false, true}) {
        McOptions opt;
        opt.observer.model = model;
        opt.exact_states = exact;
        opt.max_states = kCap;
        opt.record_counterexample = true;
        expect_thread_invariant(
            *proto, opt,
            entry.id + "/" + to_string(model) + (exact ? " exact" : ""));
      }
    }
  }
}

// Bounded preemption keys states by their scheduling context and prunes
// over-budget transitions; pruned counts must not depend on the workers.
TEST(Determinism, PreemptionBoundedResultsMatchAcrossThreadCounts) {
  struct Case {
    const char* id;
    MemoryModel model;
  };
  for (const Case& c : {Case{"msi_bus_buggy", MemoryModel::bounded_sc(1)},
                        Case{"write_buffer_fwd_drain",
                             MemoryModel::bounded_sc(2)}}) {
    const auto proto = make_registered_protocol(c.id);
    ASSERT_NE(proto, nullptr) << c.id;
    for (const bool exact : {false, true}) {
      McOptions opt;
      opt.observer.model = c.model;
      opt.exact_states = exact;
      opt.max_states = 20'000;
      opt.record_counterexample = true;
      expect_thread_invariant(
          *proto, opt,
          std::string(c.id) + "/" + to_string(c.model) +
              (exact ? " exact" : ""));
    }
  }
}

// The state budget stops a level mid-way: the stopping candidate, and the
// counts of the entries before it, must be the single worker's.
TEST(Determinism, TightStateLimitMatchesAcrossThreadCounts) {
  const DirectoryProtocol proto(2, 1, 2);
  for (const std::size_t cap :
       {std::size_t{1}, std::size_t{2}, std::size_t{37}, std::size_t{1000}}) {
    McOptions opt;
    opt.max_states = cap;
    const std::string what = "max_states " + std::to_string(cap);
    expect_thread_invariant(proto, opt, what);
    opt.threads = 1;
    const McResult r = model_check(proto, opt);
    EXPECT_EQ(r.verdict, McVerdict::StateLimit) << what;
    EXPECT_EQ(r.states, std::max<std::size_t>(cap, 2)) << what;
  }
}

// A one-state size hint makes every level's barrier grow the store's
// partitions in place, many times over, up to a budget stop.
TEST(Determinism, MinimumStoreGrowsToTheSameResult) {
  const auto proto = make_registered_protocol("msi_bus");
  ASSERT_NE(proto, nullptr);
  for (const bool exact : {false, true}) {
    McOptions opt;
    opt.visited_size_hint = 1;
    opt.max_states = 20'000;
    opt.exact_states = exact;
    expect_thread_invariant(*proto, opt,
                            std::string("size hint 1") +
                                (exact ? " exact" : ""));
  }
}

/// Forwards every hook to a registry protocol and counts enumerate() calls,
/// remembering when the first and the last one happened.
class CountingProtocol final : public Protocol {
 public:
  explicit CountingProtocol(std::unique_ptr<Protocol> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::size_t enumerate_calls() const { return calls_.load(); }
  /// Seconds between the first and the last enumerate() call.
  [[nodiscard]] double enumerate_span_s() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::duration(last_.load() -
                                                   first_.load()))
        .count();
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] const Params& params() const override {
    return inner_->params();
  }
  [[nodiscard]] std::size_t state_size() const override {
    return inner_->state_size();
  }
  void initial_state(std::span<std::uint8_t> state) const override {
    inner_->initial_state(state);
  }
  void enumerate(std::span<const std::uint8_t> state,
                 std::vector<Transition>& out) const override {
    const auto now =
        std::chrono::steady_clock::now().time_since_epoch().count();
    if (calls_.fetch_add(1) == 0) first_.store(now);
    auto last = last_.load();
    while (last < now && !last_.compare_exchange_weak(last, now)) {
    }
    inner_->enumerate(state, out);
  }
  void apply(std::span<std::uint8_t> state,
             const Transition& t) const override {
    inner_->apply(state, t);
  }
  [[nodiscard]] bool real_time_st_order() const override {
    return inner_->real_time_st_order();
  }
  [[nodiscard]] bool real_time_st_order(const MemoryModel& m) const override {
    return inner_->real_time_st_order(m);
  }
  [[nodiscard]] bool could_load_bottom(std::span<const std::uint8_t> state,
                                       BlockId b) const override {
    return inner_->could_load_bottom(state, b);
  }
  [[nodiscard]] std::string action_name(const Action& a) const override {
    return inner_->action_name(a);
  }
  void transition_effects(const Transition& t,
                          TransitionEffects& out) const override {
    inner_->transition_effects(t, out);
  }
  [[nodiscard]] bool processor_symmetric() const override {
    return inner_->processor_symmetric();
  }
  void permute_procs(std::span<std::uint8_t> state,
                     const ProcPerm& perm) const override {
    inner_->permute_procs(state, perm);
  }
  [[nodiscard]] LocId permute_loc(LocId loc,
                                  const ProcPerm& perm) const override {
    return inner_->permute_loc(loc, perm);
  }
  [[nodiscard]] Action permute_action(const Action& a,
                                      const ProcPerm& perm) const override {
    return inner_->permute_action(a, perm);
  }
  void proc_signature(std::span<const std::uint8_t> state, ProcId p,
                      ByteWriter& w) const override {
    inner_->proc_signature(state, p, w);
  }
  [[nodiscard]] std::uint32_t touched_procs(
      std::span<const std::uint8_t> state,
      const Transition& t) const override {
    return inner_->touched_procs(state, t);
  }
  [[nodiscard]] bool por_enabled() const override {
    return inner_->por_enabled();
  }
  [[nodiscard]] PorFootprint por_footprint(
      const Transition& t) const override {
    return inner_->por_footprint(t);
  }
  [[nodiscard]] bool independent(const Transition& t,
                                 const Transition& u) const override {
    return inner_->independent(t, u);
  }

 private:
  std::unique_ptr<Protocol> inner_;
  mutable std::atomic<std::size_t> calls_{0};
  mutable std::atomic<std::chrono::steady_clock::rep> first_{0};
  mutable std::atomic<std::chrono::steady_clock::rep> last_{0};
};

// A violation found by several workers is reported from that same
// exploration, not from a single-worker re-run: McResult::seconds spans
// every enumerate() call the exploration made (a re-run's clock would start
// after the first attempt's calls), and the only expansions the 1-worker
// run does not make are entries of the failing level past the failing
// entry, which another worker can reach before the failure is found.  (The
// prechecks are off so that every enumerate() call is the exploration's.)
TEST(Determinism, ViolationIsNotReExplored) {
  McOptions opt;
  opt.lint_first = false;
  opt.symmetry_reduction = false;
  opt.partial_order_reduction = false;
  opt.record_counterexample = true;

  CountingProtocol one(make_registered_protocol("write_buffer_fwd"));
  opt.threads = 1;
  const McResult r1 = model_check(one, opt);
  ASSERT_EQ(r1.verdict, McVerdict::Violation) << r1.summary();
  ASSERT_FALSE(r1.level_stats.empty());
  // The 1-worker run expands every completed level, then the failing
  // level up to and including the failing entry.
  std::size_t completed = 0;
  for (const McLevelStat& ls : r1.level_stats) completed += ls.frontier;
  const std::size_t failing_level = r1.level_stats.back().fresh;
  ASSERT_GT(one.enumerate_calls(), completed);
  const std::size_t past_failure =
      failing_level - (one.enumerate_calls() - completed);

  CountingProtocol two(make_registered_protocol("write_buffer_fwd"));
  opt.threads = 2;
  const McResult r2 = model_check(two, opt);
  expect_same_result(r1, r2, "write_buffer_fwd at 2 threads");
  EXPECT_GE(two.enumerate_calls(), one.enumerate_calls());
  EXPECT_LE(two.enumerate_calls(), one.enumerate_calls() + past_failure)
      << "1 thread: " << one.enumerate_calls() << " calls";
  EXPECT_GE(r2.seconds, two.enumerate_span_s());
}

// Phase times at several workers: every phase is measured, and the phases
// (worker CPU time) fit in the workers' share of the wall clock.
TEST(Determinism, PhaseTimesAtTwoThreads) {
  const auto proto = make_registered_protocol("msi_bus");
  ASSERT_NE(proto, nullptr);
  McOptions opt;
  opt.threads = 2;
  opt.max_states = 20'000;
  const McResult r = model_check(*proto, opt);
  EXPECT_GT(r.phase_times.expand, 0.0);
  EXPECT_GT(r.phase_times.canonicalize, 0.0);
  EXPECT_GT(r.phase_times.dedup, 0.0);
  EXPECT_GT(r.phase_times.materialize, 0.0);
  EXPECT_LE(r.phase_times.expand + r.phase_times.canonicalize +
                r.phase_times.dedup + r.phase_times.materialize,
            static_cast<double>(opt.threads) * r.seconds);
}

}  // namespace
}  // namespace scv
