// State-transfer contracts of the product automaton (DESIGN.md §13): moving
// a product state — copy-assignment, snapshot/restore, canonical keying —
// costs O(live nodes), and every encoding stays byte-identical.
//
//   * Digest pins: a seeded walk per registry protocol × {sc, tso} hashes
//     every Product::key, Product::snapshot and ScChecker::snapshot it
//     produces.  The pinned digests were recorded on the full-capacity
//     implementation; any change to an encoding shows up here.
//   * Stale slots: free checker slots and observer nodes may hold bytes of
//     nodes that have since retired.  Copy-assigning or restoring into a
//     component that last held a *different* live set must read exactly
//     like a freshly built copy through every read path, and keep doing so
//     as feeding continues.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mc/product.hpp"
#include "protocol/registry.hpp"
#include "util/byte_io.hpp"
#include "util/hash.hpp"

namespace scv {
namespace {

/// Deterministic splitmix64 stream for reproducible walks.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9;
    z = (z ^ (z >> 27)) * 0x94d049bb133111eb;
    return z ^ (z >> 31);
  }
};

ObserverConfig config_for(const MemoryModel& model) {
  ObserverConfig cfg;
  cfg.model = model;
  return cfg;
}

/// Steps `succ` from `cur` along the first transition, starting at a
/// random index, that completes; false when none does (dead end or every
/// successor rejects).
bool step_random(Product& cur, Product& succ, Rng& rng,
                 std::vector<Transition>& ts, std::vector<Symbol>& syms,
                 Transition* taken = nullptr) {
  ts.clear();
  cur.enumerate(ts);
  if (ts.empty()) return false;
  const std::size_t start = rng.next() % ts.size();
  for (std::size_t k = 0; k < ts.size(); ++k) {
    const Transition& t = ts[(start + k) % ts.size()];
    succ.assign_from(cur);
    if (succ.step(t, syms) == StepOutcome::Ok) {
      if (taken != nullptr) *taken = t;
      return true;
    }
  }
  return false;
}

struct WalkDigests {
  std::size_t steps = 0;
  std::uint64_t key = 0;
  std::uint64_t snapshot = 0;
  std::uint64_t checker = 0;
};

// Each step goes through all three transfer paths: assign_from into the
// successor, snapshot of it, restore of that snapshot into the walk's base.
WalkDigests walk_digests(const Protocol& proto, const MemoryModel& model,
                         std::uint64_t seed, std::size_t max_steps) {
  const ObserverConfig cfg = config_for(model);
  Product cur(proto, cfg, /*with_observer=*/true);
  Product succ(proto, cfg, /*with_observer=*/true);
  KeyScratch ks;
  ByteWriter snap;
  ByteWriter chk;
  std::vector<std::uint8_t> keys;
  std::vector<std::uint8_t> snaps;
  std::vector<std::uint8_t> chks;
  std::vector<Transition> ts;
  std::vector<Symbol> syms;
  Rng rng{seed};
  WalkDigests d;
  for (; d.steps < max_steps; ++d.steps) {
    if (!step_random(cur, succ, rng, ts, syms)) break;
    const auto key = succ.key(ks);
    keys.insert(keys.end(), key.begin(), key.end());
    snap.clear();
    succ.snapshot(snap);
    snaps.insert(snaps.end(), snap.data().begin(), snap.data().end());
    chk.clear();
    succ.checker().snapshot(chk);
    chks.insert(chks.end(), chk.data().begin(), chk.data().end());
    ByteReader r(snap.data());
    cur.restore(r);
    EXPECT_TRUE(r.done());
  }
  d.key = fnv1a64(keys);
  d.snapshot = fnv1a64(snaps);
  d.checker = fnv1a64(chks);
  return d;
}

struct Pin {
  const char* id;
  const char* model;
  WalkDigests want;
};

// Recorded on the full-capacity copy/snapshot/restore implementation
// (seed 0x5eed, up to 300 steps per walk).
constexpr Pin kPins[] = {
    {"serial_memory", "sc",
     {300, 0x86a144e366eccdda, 0x673801fe53a25436, 0x0500a78606104151}},
    {"serial_memory", "tso",
     {300, 0x724348cfede40317, 0xcd2413d980816f66, 0xfc54a2318a9583a6}},
    {"write_buffer", "sc",
     {300, 0x337e251392c00375, 0x0face04b462cf722, 0x25eccc8ccfdc2aee}},
    {"write_buffer", "tso",
     {300, 0xe5d5e1ecbf35b6fa, 0xa0a69ccacfcc52db, 0x1d27ebd3525ac590}},
    {"write_buffer_fwd", "sc",
     {300, 0xe719e5662377ca79, 0x73413484eb1657b3, 0x3fccb38386c4bffa}},
    {"write_buffer_fwd", "tso",
     {300, 0x0f9e1cdf8ace2c3b, 0x0614b37a9987d4fe, 0x6e608846d858620a}},
    {"write_buffer_fwd_drain", "sc",
     {300, 0x37a7c67b19971848, 0x14c6d907cb9ab269, 0x41e147571c207f17}},
    {"write_buffer_fwd_drain", "tso",
     {300, 0x0f9e1cdf8ace2c3b, 0x0614b37a9987d4fe, 0x6e608846d858620a}},
    {"msi_bus", "sc",
     {300, 0x8eb21574db26bf01, 0x8d3430300218281b, 0xa3b59182d17e7d7d}},
    {"msi_bus", "tso",
     {300, 0x3b37e10209bfb398, 0xda101720357e244d, 0x9633f1426110218e}},
    {"msi_bus_buggy", "sc",
     {300, 0x523aa65894a9b55c, 0xa0d026f55e3fddac, 0x8c638682f062a6b0}},
    {"msi_bus_buggy", "tso",
     {300, 0x21804b46a88171f1, 0xb69e7346eae3bf8b, 0x2f521f206ed9329d}},
    {"get_shared_toy", "sc",
     {300, 0xa7eac72049974358, 0xd808b38cb78ba018, 0x142ea2f12481800b}},
    {"get_shared_toy", "tso",
     {300, 0x89294e310d709d89, 0x5474b6ffdf7ba0a1, 0x66e963b9a2731ad1}},
    {"directory", "sc",
     {300, 0x739f0745fa2a22d8, 0xfafcc8979be33197, 0x771cfb9f05ce0cbe}},
    {"directory", "tso",
     {300, 0x21a2d7814cec0bdf, 0x187101919caeba21, 0x25b9e814d9023f60}},
    {"lazy_caching", "sc",
     {300, 0x11484fff0fee43ea, 0xe36420e57d6e4f16, 0xe9aa4c39c71eb88b}},
    {"lazy_caching", "tso",
     {300, 0x35b2e1a060a5156c, 0x6dcc546bcdecbcb1, 0xd6060bfbf9efebcc}},
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(StateTransfer, EncodingDigestsArePinned) {
  std::size_t checked = 0;
  for (const RegisteredProtocol& entry : protocol_registry()) {
    for (const char* model : {"sc", "tso"}) {
      const auto proto = entry.make();
      const MemoryModel m =
          std::string(model) == "sc" ? MemoryModel::sc() : MemoryModel::tso();
      const WalkDigests got = walk_digests(*proto, m, 0x5eed, 300);
      const std::string row = std::string("{\"") + entry.id + "\", \"" +
                              model + "\", {" + std::to_string(got.steps) +
                              ", " + hex(got.key) + ", " + hex(got.snapshot) +
                              ", " + hex(got.checker) + "}},";
      const Pin* pin = nullptr;
      for (const Pin& p : kPins) {
        if (entry.id == p.id && std::string(model) == p.model) pin = &p;
      }
      if (pin == nullptr) {
        ADD_FAILURE() << "no pin for " << row;
        continue;
      }
      EXPECT_GE(got.steps, 20u) << row;
      EXPECT_EQ(got.steps, pin->want.steps) << row;
      EXPECT_EQ(got.key, pin->want.key) << row;
      EXPECT_EQ(got.snapshot, pin->want.snapshot) << row;
      EXPECT_EQ(got.checker, pin->want.checker) << row;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kPins));
}

// ------------------------------------------------------------ stale slots

/// A path of transitions that complete from the initial product, chosen by
/// a seeded walk.
std::vector<Transition> pick_path(const Protocol& proto,
                                  const ObserverConfig& cfg,
                                  std::uint64_t seed, std::size_t steps,
                                  const Product* from = nullptr) {
  Product cur(proto, cfg, /*with_observer=*/true);
  Product succ(proto, cfg, /*with_observer=*/true);
  if (from != nullptr) cur.assign_from(*from);
  std::vector<Transition> ts;
  std::vector<Symbol> syms;
  std::vector<Transition> path;
  Rng rng{seed};
  Transition t;
  while (path.size() < steps && step_random(cur, succ, rng, ts, syms, &t)) {
    path.push_back(t);
    cur.assign_from(succ);
  }
  return path;
}

/// Steps `p` along `path` directly, with no copy or restore in between.
void replay(Product& p, const std::vector<Transition>& path) {
  std::vector<Symbol> syms;
  for (const Transition& t : path) {
    ASSERT_EQ(p.step(t, syms), StepOutcome::Ok);
  }
}

/// Everything a reader can observe of an observer/checker pair.
struct Readout {
  std::vector<std::uint8_t> obs_key;
  std::vector<GraphId> id_canon;
  std::vector<std::uint8_t> obs_snapshot;
  std::vector<std::uint8_t> obs_sigs;
  std::size_t obs_live = 0;
  std::vector<std::uint8_t> chk_raw;
  std::vector<std::uint8_t> chk_key;
  std::vector<std::uint8_t> chk_sigs;
  std::uint32_t obligations = 0;
  std::size_t chk_live = 0;
  bool rejected = false;

  friend bool operator==(const Readout&, const Readout&) = default;
};

Readout read_all(const Observer& obs, const ScChecker& chk,
                 std::size_t procs) {
  Readout r;
  ByteWriter w;
  obs.serialize(w, &r.id_canon);
  r.obs_key = w.data();
  w.clear();
  obs.snapshot(w);
  r.obs_snapshot = w.data();
  w.clear();
  for (std::size_t q = 0; q < procs; ++q) {
    obs.proc_signature(static_cast<ProcId>(q), w);
  }
  r.obs_sigs = w.data();
  r.obs_live = obs.live_nodes();
  w.clear();
  chk.serialize(w);
  r.chk_raw = w.data();
  w.clear();
  chk.serialize_canonical(w, r.id_canon);
  r.chk_key = w.data();
  w.clear();
  for (std::size_t q = 0; q < procs; ++q) {
    chk.proc_signature(static_cast<ProcId>(q), w);
  }
  r.chk_sigs = w.data();
  r.obligations = chk.obligation_procs();
  r.chk_live = chk.active_nodes();
  r.rejected = chk.rejected();
  return r;
}

// Sources and destinations walk different seeded paths, so the destination
// last held a different live set (its slots hold other nodes' bytes) when
// the transfer lands.  Each transferred copy — product assign_from, product
// restore, and the bare Observer/ScChecker copy-assignment and restore —
// must read exactly like a product stepped from scratch along the source's
// path, and keep doing so while stepping (or, for the bare components,
// being fed) along a continuation.
TEST(StateTransfer, StaleSlotsAreInvisibleAfterCopyAndRestore) {
  std::size_t transfers = 0;
  std::size_t differing_destinations = 0;
  for (const RegisteredProtocol& entry : protocol_registry()) {
    for (const MemoryModel& model : {MemoryModel::sc(), MemoryModel::tso()}) {
      const auto proto = entry.make();
      const ObserverConfig cfg = config_for(model);
      const std::size_t procs = proto->params().procs;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto src_path = pick_path(*proto, cfg, seed, 25 + 10 * seed);
        const auto dst_path = pick_path(*proto, cfg, seed + 100, 60);

        Product ref(*proto, cfg, /*with_observer=*/true);  // from scratch
        replay(ref, src_path);
        Product dst(*proto, cfg, /*with_observer=*/true);  // other live set
        replay(dst, dst_path);
        if (read_all(dst.observer(), dst.checker(), procs) !=
            read_all(ref.observer(), ref.checker(), procs)) {
          ++differing_destinations;
        }

        ByteWriter snap;
        ref.snapshot(snap);
        Product assigned(*proto, cfg, /*with_observer=*/true);
        replay(assigned, dst_path);
        assigned.assign_from(ref);
        Product restored(*proto, cfg, /*with_observer=*/true);
        replay(restored, dst_path);
        ByteReader rd(snap.data());
        restored.restore(rd);
        ASSERT_TRUE(rd.done());

        ByteWriter obs_snap;
        ref.observer().snapshot(obs_snap);
        ByteWriter chk_snap;
        ref.checker().snapshot(chk_snap);
        Observer obs_assigned = dst.observer();
        obs_assigned = ref.observer();
        Observer obs_restored = dst.observer();
        ByteReader ord(obs_snap.data());
        obs_restored.restore(ord);
        ScChecker chk_assigned = dst.checker();
        chk_assigned = ref.checker();
        ScChecker chk_restored = dst.checker();
        ByteReader crd(chk_snap.data());
        chk_restored.restore(crd);

        KeyScratch ks_ref;
        KeyScratch ks;
        const auto expect_same = [&](const char* when) {
          const std::string at = entry.id + "/" + to_string(model.kind) +
                                 " seed " + std::to_string(seed) + " " + when;
          const Readout want = read_all(ref.observer(), ref.checker(), procs);
          EXPECT_TRUE(read_all(assigned.observer(), assigned.checker(),
                               procs) == want)
              << at << ": product assign_from";
          EXPECT_TRUE(read_all(restored.observer(), restored.checker(),
                               procs) == want)
              << at << ": product restore";
          EXPECT_TRUE(read_all(obs_assigned, chk_assigned, procs) == want)
              << at << ": component copy-assignment";
          EXPECT_TRUE(read_all(obs_restored, chk_restored, procs) == want)
              << at << ": component restore";
          const auto key = ref.key(ks_ref);
          const std::vector<std::uint8_t> want_key(key.begin(), key.end());
          const auto a = assigned.key(ks);
          EXPECT_TRUE(std::vector<std::uint8_t>(a.begin(), a.end()) ==
                      want_key)
              << at << ": product key after assign_from";
          const auto r = restored.key(ks);
          EXPECT_TRUE(std::vector<std::uint8_t>(r.begin(), r.end()) ==
                      want_key)
              << at << ": product key after restore";
        };
        expect_same("after transfer");
        ++transfers;

        // Continue: every copy steps (or is fed) along the same path.
        const auto more = pick_path(*proto, cfg, seed + 200, 30, &ref);
        std::vector<Symbol> syms;
        std::vector<Symbol> got;
        for (const Transition& t : more) {
          ASSERT_EQ(ref.step(t, syms), StepOutcome::Ok);
          EXPECT_EQ(assigned.step(t, got), StepOutcome::Ok);
          EXPECT_EQ(got, syms);
          EXPECT_EQ(restored.step(t, got), StepOutcome::Ok);
          EXPECT_EQ(got, syms);
          for (Observer* o : {&obs_assigned, &obs_restored}) {
            got.clear();
            EXPECT_EQ(o->step(t, ref.protocol_state(), got),
                      ObserverStatus::Ok);
            EXPECT_EQ(got, syms);
          }
          EXPECT_EQ(chk_assigned.feed_batch(syms), ScChecker::Status::Ok);
          EXPECT_EQ(chk_restored.feed_batch(syms), ScChecker::Status::Ok);
        }
        expect_same("after continuing");
      }
    }
  }
  EXPECT_EQ(transfers, protocol_registry().size() * 2 * 4);
  // The stale-slot claim needs destinations whose state really differed.
  EXPECT_GE(differing_destinations, transfers * 3 / 4);
}

}  // namespace
}  // namespace scv
