// Differential tests for incremental canonicalization (DESIGN.md §13): the
// dirty-mask/signature-cache/delta-re-keying fast path must be *byte
// identical* to the reference permute-and-reserialize canonicalizer — same
// canonical keys, same orbit counts, same verdicts, same recorded
// counterexamples — and the dirty-mask contract it leans on (a clear bit
// certifies the processor's signature did not change) must hold along real
// exploration walks, not just on hand-picked states.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mc/model_checker.hpp"
#include "mc/product.hpp"
#include "protocol/registry.hpp"
#include "runlog/run_trace.hpp"
#include "util/byte_io.hpp"

namespace scv {
namespace {

/// Deterministic splitmix64 stream for reproducible random walks.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

std::vector<std::uint8_t> signature_of(const Product& p, ProcId q) {
  ByteWriter w;
  p.proc_signature(q, w);
  return w.data();
}

// One random walk over `proto`'s product: from each visited state, every
// enabled successor is canonicalized twice — incrementally (with the
// successor's real touched-processor mask) and from scratch by the
// reference path — and the keys and orbit counts must agree byte for byte.
// Along the way, every processor whose dirty bit is *clear* must have a
// signature byte-identical to the base state's (the soundness contract the
// signature cache depends on).
// Returns the number of successors compared (so callers can assert the
// walk did real work and did not dead-end immediately) and adds to `clean`
// the number of successors with at least one clean dirty bit (so callers
// can assert the incremental path actually engaged).
std::size_t differential_walk(const Protocol& proto, std::uint64_t seed,
                              std::size_t max_bases, std::size_t& clean) {
  const ObserverConfig ocfg;
  Product cur(proto, ocfg, /*with_observer=*/true);
  Product succ_inc(proto, ocfg, /*with_observer=*/true);
  Product succ_ref(proto, ocfg, /*with_observer=*/true);

  ProcCanonicalizer canon_inc(proto, /*enable=*/true, /*incremental=*/true);
  ProcCanonicalizer canon_ref(proto, /*enable=*/true, /*incremental=*/false);
  EXPECT_EQ(canon_inc.active(), canon_ref.active());

  KeyScratch ks_inc;
  KeyScratch ks_ref;
  Rng rng{seed};
  std::vector<Transition> ts;
  std::vector<Symbol> syms;
  const std::size_t procs = proto.params().procs;
  std::size_t compared = 0;

  for (std::size_t base = 0; base < max_bases; ++base) {
    canon_inc.begin_base();
    ts.clear();
    cur.enumerate(ts);
    if (ts.empty()) break;

    std::vector<std::size_t> ok;  // indices whose step completed
    for (std::size_t i = 0; i < ts.size(); ++i) {
      succ_inc.assign_from(cur);
      if (succ_inc.step(ts[i], syms) != StepOutcome::Ok) continue;
      ok.push_back(i);
      const std::uint32_t dirty = succ_inc.touched_procs();
      const std::uint32_t all = (1u << procs) - 1;
      if ((dirty & all) != all) ++clean;

      // Dirty-mask contract: clear bit => signature unchanged vs the base.
      for (ProcId q = 0; q < procs; ++q) {
        if ((dirty >> q) & 1u) continue;
        EXPECT_EQ(signature_of(succ_inc, q), signature_of(cur, q))
            << proto.name() << ": base " << base << " transition " << i
            << " proc " << static_cast<int>(q)
            << ": untouched signature differs from base";
      }

      succ_ref.assign_from(cur);
      EXPECT_EQ(succ_ref.step(ts[i], syms), StepOutcome::Ok);
      const std::uint64_t orbit_inc =
          canon_inc.canonicalize_key(succ_inc, ks_inc, nullptr, dirty);
      const std::uint64_t orbit_ref = canon_ref.canonicalize_key(
          succ_ref, ks_ref, nullptr, ProcCanonicalizer::kAllDirty);
      EXPECT_EQ(orbit_inc, orbit_ref)
          << proto.name() << ": base " << base << " transition " << i;
      EXPECT_EQ(ks_inc.w.data(), ks_ref.w.data())
          << proto.name() << ": base " << base << " transition " << i
          << ": canonical keys diverge";
      ++compared;
    }
    if (ok.empty()) break;

    // Advance the walk along one completed successor (the *concrete* state,
    // not the canonical representative — dirty masks are defined against
    // whatever base the successors were stepped from).
    const std::size_t pick = ok[rng.next() % ok.size()];
    succ_inc.assign_from(cur);
    EXPECT_EQ(succ_inc.step(ts[pick], syms), StepOutcome::Ok);
    cur.assign_from(succ_inc);
  }
  return compared;
}

TEST(IncrementalCanon, DifferentialAlongRandomWalks) {
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const auto proto = entry.make();
    std::size_t compared = 0;
    std::size_t clean = 0;
    for (std::uint64_t seed : {0x5cu, 0xc0ffeeu}) {
      compared += differential_walk(*proto, seed, /*max_bases=*/60, clean);
    }
    // Both walks together must have exercised a real slice of the product
    // (a protocol whose walk dead-ends immediately would vacuously pass).
    EXPECT_GE(compared, 100u) << entry.id;
    // Every processor-symmetric protocol declares touched masks precise
    // enough that some successor leaves a processor clean; an all-ones
    // mask everywhere would silently disable the signature cache.
    if (proto->processor_symmetric()) {
      EXPECT_GT(clean, 0u) << entry.id << ": every successor fully dirty";
    }
  }
}

// Whole-run parity: exploring with the incremental canonicalizer must be
// observationally identical to the reference path — not merely the same
// verdict, but the same state count, depth, transition count and exact
// orbit accounting (byte-identical keys dedup identically).
TEST(IncrementalCanon, ModelCheckParityAcrossRegistry) {
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const auto proto = entry.make();
    McOptions inc;
    inc.max_states = 80'000;
    inc.incremental_canonicalization = true;
    McOptions ref = inc;
    ref.incremental_canonicalization = false;
    const McResult rinc = model_check(*proto, inc);
    const McResult rref = model_check(*proto, ref);
    EXPECT_EQ(rinc.verdict, rref.verdict)
        << entry.id << ": inc=" << rinc.summary()
        << " ref=" << rref.summary();
    EXPECT_EQ(rinc.states, rref.states) << entry.id;
    EXPECT_EQ(rinc.transitions, rref.transitions) << entry.id;
    EXPECT_EQ(rinc.depth, rref.depth) << entry.id;
    EXPECT_EQ(rinc.symmetry_active, rref.symmetry_active) << entry.id;
    EXPECT_DOUBLE_EQ(rinc.orbit_reduction, rref.orbit_reduction) << entry.id;
  }
}

// Counterexample parity on the violating protocols: both canonicalizers
// must find a violation at the same depth and record byte-identical
// replayable traces (canonical keys drive which orbit representative the
// BFS visits, so byte-identical keys mean the same counterexample run).
TEST(IncrementalCanon, CounterexampleByteParity) {
  for (const RegisteredProtocol& entry : protocol_registry()) {
    if (!entry.sc_violating) continue;
    const auto proto = entry.make();
    McOptions inc;
    inc.max_states = 100'000;
    inc.record_counterexample = true;
    inc.incremental_canonicalization = true;
    McOptions ref = inc;
    ref.incremental_canonicalization = false;
    const McResult rinc = model_check(*proto, inc);
    const McResult rref = model_check(*proto, ref);
    ASSERT_EQ(rinc.verdict, McVerdict::Violation) << entry.id;
    ASSERT_EQ(rref.verdict, McVerdict::Violation) << entry.id;
    EXPECT_EQ(rinc.counterexample.size(), rref.counterexample.size())
        << entry.id << ": counterexample depth diverges";
    ASSERT_TRUE(rinc.counterexample_trace.has_value()) << entry.id;
    ASSERT_TRUE(rref.counterexample_trace.has_value()) << entry.id;
    ByteWriter wi;
    ByteWriter wr;
    serialize_run_trace(*rinc.counterexample_trace, wi);
    serialize_run_trace(*rref.counterexample_trace, wr);
    EXPECT_EQ(wi.data(), wr.data())
        << entry.id << ": recorded counterexamples not byte-identical";
  }
}

// ------------------------------------------------- empty-key regression
//
// A symmetric protocol with a zero-byte state (and hence empty signatures
// and an empty canonical key) drives the tie loop through candidates whose
// serialized keys are all empty.  The old implementation used
// best_.empty() as its "first candidate" sentinel, so every candidate
// looked like the first: the stabilizer hit count stayed at 1 and the
// orbit size came out as p! instead of 1.  The fix tracks the first
// iteration explicitly; this stub protocol pins the behaviour.
class EmptyStateProtocol final : public Protocol {
 public:
  EmptyStateProtocol() { params_.procs = 2; }
  [[nodiscard]] std::string name() const override { return "EmptyState"; }
  [[nodiscard]] const Params& params() const override { return params_; }
  [[nodiscard]] std::size_t state_size() const override { return 0; }
  void initial_state(std::span<std::uint8_t> /*state*/) const override {}
  void enumerate(std::span<const std::uint8_t> /*state*/,
                 std::vector<Transition>& /*out*/) const override {}
  void apply(std::span<std::uint8_t> /*state*/,
             const Transition& /*t*/) const override {}
  [[nodiscard]] bool could_load_bottom(
      std::span<const std::uint8_t> /*state*/, BlockId /*b*/) const override {
    return false;
  }
  // With no per-processor state the identity renaming is genuinely
  // equivariant, so the base class's no-op permute hooks and empty
  // signatures are *honest* here — unlike the false-declaration fixtures.
  [[nodiscard]] bool processor_symmetric() const override { return true; }

 private:
  Params params_;
};

TEST(IncrementalCanon, EmptyKeyOrbitIsExactInBothModes) {
  const EmptyStateProtocol proto;
  for (const bool incremental : {true, false}) {
    ProcCanonicalizer canon(proto, /*enable=*/true, incremental);
    ASSERT_TRUE(canon.active());
    Product prod(proto, ObserverConfig{}, /*with_observer=*/false);
    KeyScratch ks;
    ProcPerm applied;
    // The state is fixed by every permutation: stabilizer order 2!, orbit
    // size exactly 1.  (The sentinel bug reported 2.)
    EXPECT_EQ(canon.canonicalize_key(prod, ks, &applied), 1u)
        << "incremental=" << incremental;
    EXPECT_TRUE(ks.w.data().empty());
    EXPECT_TRUE(applied.is_identity());
    // Same through the all-clean fast path: an empty dirty mask against a
    // fresh epoch exercises the cached-signature branches end to end.
    canon.begin_base();
    EXPECT_EQ(canon.canonicalize_key(prod, ks, nullptr, 0), 1u);
    EXPECT_EQ(canon.canonicalize_key(prod, ks, nullptr, 0), 1u);
  }
}

}  // namespace
}  // namespace scv
