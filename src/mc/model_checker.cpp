#include "mc/model_checker.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "analysis/footprint_infer.hpp"
#include "analysis/lint.hpp"
#include "analysis/skeleton.hpp"
#include "checker/sc_checker.hpp"
#include "descriptor/descriptor.hpp"
#include "mc/por.hpp"
#include "mc/product.hpp"
#include "util/assert.hpp"
#include "util/concurrent_fp_set.hpp"
#include "util/fingerprint.hpp"
#include "util/fp_set.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace scv {

std::string to_string(McVerdict v) {
  switch (v) {
    case McVerdict::Verified: return "Verified";
    case McVerdict::Violation: return "Violation";
    case McVerdict::BandwidthExceeded: return "BandwidthExceeded";
    case McVerdict::TrackingInconsistent: return "TrackingInconsistent";
    case McVerdict::StateLimit: return "StateLimit";
    case McVerdict::LintRejected: return "LintRejected";
  }
  return "?";
}

std::string McResult::summary() const {
  std::ostringstream os;
  os << to_string(verdict) << ": " << states << " states, " << transitions
     << " transitions, depth " << depth << ", "
     << (seconds > 0 ? static_cast<std::size_t>(
                           static_cast<double>(transitions) / seconds)
                     : 0)
     << " trans/s";
  if (preemption_bounded) os << " [preemption-bounded]";
  if (!reason.empty()) os << " — " << reason;
  return os.str();
}

namespace {

struct Meta {
  std::uint32_t parent = 0;
  Transition via{};
};

/// Expected distinct-state count used to pre-size the visited store and
/// avoid rehash churn mid-run (DESIGN.md §9).  An explicit hint wins,
/// clamped by the state budget.  Without one, a small max_states is a
/// genuine exploration budget worth sizing for, while the 50M default
/// would pre-size a ~1 GB table for what is usually a tiny run — so large
/// budgets fall back to organic growth.
std::size_t presize_expected(const McOptions& opt) {
  if (opt.visited_size_hint != 0) {
    return std::min(opt.max_states, opt.visited_size_hint);
  }
  return opt.max_states <= (std::size_t{1} << 20) ? opt.max_states : 0;
}

/// glibc allocator chunk model: 8-byte header, 16-byte alignment, 32-byte
/// minimum chunk.  Shared by the exact-mode store estimates; measured
/// against mallinfo2 this matches std::unordered_set<std::string> within a
/// few percent.
std::size_t malloc_chunk(std::size_t payload) noexcept {
  return std::max<std::size_t>(32, (payload + 8 + 15) / 16 * 16);
}

/// Exact mode charges each state one hash node (bucket chain pointer +
/// cached hash + std::string key + slot index) plus the key's heap buffer
/// when it escapes the small-string optimization, plus the bucket array and
/// the slot directory's pointer.
std::size_t exact_store_bytes(std::size_t keys, std::size_t buckets,
                              std::size_t state_bytes) noexcept {
  const std::size_t node = malloc_chunk(2 * sizeof(void*) +
                                        sizeof(std::string) +
                                        sizeof(std::uint32_t));
  const std::size_t heap = state_bytes > 15 ? malloc_chunk(state_bytes + 1) : 0;
  return keys * (node + heap + sizeof(void*)) + buckets * sizeof(void*);
}

/// The visited-state store: a ConcurrentFingerprintSet by default, or exact
/// key maps behind McOptions::exact_states (the differential escape hatch
/// values correctness over speed).  Both modes split their states into the
/// same partitions, the fingerprint set's shards.  The BFS only reads the
/// store while a level expands and only inserts at the level barrier, each
/// partition from one worker, so neither mode takes a lock, and growth
/// happens in place, by the partition's writer.
///
/// Exact mode additionally hands out a (partition, slot) reference for every
/// stored key: the partition is implied by the fingerprint, the slot indexes
/// a per-partition directory of node-stable key pointers.  Worker-local
/// duplicate caches remember {fingerprint, slot} of confirmed members and
/// later validate a cache hit with one byte-compare (confirm()) instead of
/// a full hash-map probe — the exact-mode analogue of the fingerprint
/// cache's membership-is-identity shortcut.
class ConcurrentStateStore {
 public:
  static constexpr std::size_t kPartitions = ConcurrentFingerprintSet::kShards;
  struct Found {
    bool member = false;
    std::uint32_t slot = 0;  ///< exact mode: partition-local slot of the key
  };

  ConcurrentStateStore(bool exact, std::size_t expected)
      : exact_(exact), fps_(exact ? 0 : expected) {}

  [[nodiscard]] static std::size_t partition(Fingerprint fp) noexcept {
    return ConcurrentFingerprintSet::shard_index(fp);
  }

  /// Membership.  Safe concurrently with other reads, not with insert().
  [[nodiscard]] Found find(std::span<const std::uint8_t> key,
                           Fingerprint fp) const {
    if (!exact_) return {fps_.contains(fp), 0};
    const Stripe& s = stripes_[partition(fp)];
    const auto it = s.keys.find(as_view(key));
    if (it == s.keys.end()) return {};
    return {true, it->second};
  }

  /// Stores the state; true iff it was not stored yet.  At most one thread
  /// may insert into a partition at a time, and nobody may read it then.
  bool insert(std::span<const std::uint8_t> key, Fingerprint fp) {
    if (!exact_) {
      for (;;) {
        const auto r = fps_.insert(fp);
        if (r != ConcurrentFingerprintSet::Insert::TableFull) {
          return r == ConcurrentFingerprintSet::Insert::Fresh;
        }
        fps_.grow_shard_of(fp);
      }
    }
    Stripe& s = stripes_[partition(fp)];
    const auto [it, fresh] = s.keys.emplace(
        std::string(as_view(key)), static_cast<std::uint32_t>(s.slots.size()));
    if (fresh) s.slots.push_back(&it->first);
    return fresh;
  }

  /// Exact-mode cache validation: true iff `slot` of `fp`'s partition holds
  /// exactly `key`.  True certifies membership (the caller may report a
  /// duplicate without re-probing the map); false only means the cache
  /// entry was a fingerprint alias — fall back to find().
  [[nodiscard]] bool confirm(std::span<const std::uint8_t> key,
                             Fingerprint fp, std::uint32_t slot) const {
    const Stripe& s = stripes_[partition(fp)];
    if (slot >= s.slots.size()) return false;
    return *s.slots[slot] == as_view(key);
  }

  [[nodiscard]] bool should_grow() const noexcept {
    return !exact_ && fps_.should_grow();
  }
  /// Requires quiescence (no concurrent access); the BFS calls it between
  /// levels.
  void grow() {
    if (!exact_) fps_.grow();
  }

  [[nodiscard]] std::size_t occupied() const noexcept {
    if (!exact_) return fps_.size();
    std::size_t n = 0;
    for (const Stripe& s : stripes_) n += s.keys.size();
    return n;
  }
  [[nodiscard]] std::size_t slots() const noexcept {
    if (!exact_) return fps_.capacity();
    std::size_t n = 0;
    for (const Stripe& s : stripes_) n += s.keys.bucket_count();
    return n;
  }
  [[nodiscard]] std::size_t memory_bytes(
      std::size_t state_bytes) const noexcept {
    return exact_ ? exact_store_bytes(occupied(), slots(), state_bytes)
                  : fps_.memory_bytes();
  }

 private:
  static std::string_view as_view(std::span<const std::uint8_t> key) {
    return {reinterpret_cast<const char*>(key.data()), key.size()};
  }
  /// Heterogeneous lookup: find() probes with a view of the scratch key
  /// instead of building a std::string per successor.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view k) const noexcept {
      return std::hash<std::string_view>{}(k);
    }
  };
  struct Stripe {
    /// Key -> partition-local slot; map nodes are stable, so the slot
    /// directory can hold pointers straight into the keys.
    std::unordered_map<std::string, std::uint32_t, KeyHash, std::equal_to<>>
        keys;
    std::vector<const std::string*> slots;
  };

  bool exact_;
  ConcurrentFingerprintSet fps_;
  std::array<Stripe, kPartitions> stripes_;
};

void fill_store_stats(McResult& result, const ConcurrentStateStore& store) {
  result.store_bytes = store.memory_bytes(result.state_bytes);
  const std::size_t slots = store.slots();
  result.store_load_factor =
      slots == 0 ? 0.0
                 : static_cast<double>(store.occupied()) /
                       static_cast<double>(slots);
}

/// Append-only per-state Meta records, indexed by state number, in chunks
/// that never move (no reallocation copy of the whole arena as it grows).
/// Written only at level barriers, by the thread that runs the BFS.
class MetaArena {
 public:
  MetaArena() { push({}); }  // state 0, the initial state, has no parent

  /// Number of stored states.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push(const Meta& m) {
    if ((size_ & kChunkMask) == 0) {
      chunks_.push_back(std::make_unique<Meta[]>(kChunkMask + 1));
    }
    chunks_.back()[size_ & kChunkMask] = m;
    ++size_;
  }

  const Meta& operator[](std::size_t idx) const {
    SCV_EXPECTS(idx < size_);
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }

 private:
  static constexpr std::size_t kChunkShift = 14;  ///< 16K entries per chunk
  static constexpr std::size_t kChunkMask =
      (std::size_t{1} << kChunkShift) - 1;

  std::vector<std::unique_ptr<Meta[]>> chunks_;
  std::size_t size_ = 0;
};

/// One worker's slice of a BFS level as flat serialized entries:
/// [u32 global index][product snapshot], delimited by an offsets array.
/// This is the compact frontier: a level lives as two flat buffers per
/// worker (the one being read and the one being written) instead of a
/// heavyweight object graph per state.  Entries are written before their
/// state has a number; the level barrier fills the index in
/// (set_entry_index).
struct FrontierBatch {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> offsets;

  [[nodiscard]] std::size_t size() const noexcept { return offsets.size(); }
  [[nodiscard]] std::span<const std::uint8_t> entry(std::size_t i) const {
    const std::size_t begin = offsets[i];
    const std::size_t end =
        i + 1 < offsets.size() ? offsets[i + 1] : bytes.size();
    return std::span<const std::uint8_t>(bytes).subspan(begin, end - begin);
  }
  /// Keeps the allocations for the next level (double buffering).
  void clear() noexcept {
    bytes.clear();
    offsets.clear();
  }
  /// Overwrites entry i's leading index (ByteWriter::u32's little-endian).
  void set_entry_index(std::size_t i, std::uint32_t idx) noexcept {
    for (std::size_t k = 0; k < 4; ++k) {
      bytes[offsets[i] + k] = static_cast<std::uint8_t>(idx >> (8 * k));
    }
  }
};

/// Where a frontier entry lives: which worker's batch, which entry in it.
/// A level's frontier is the list of these in expansion order.
struct EntryRef {
  std::uint32_t batch = 0;
  std::uint32_t entry = 0;
};

/// Scheduling context carried per state under a bounded-preemption model
/// (McOptions::observer's MemoryModel::preemption_bound): the processor of
/// the last memory operation on the path (kNoLastProc before the first) and
/// the context switches still allowed.  Internal protocol transitions are
/// unattributed — only memory operations move `last` or consume budget, so
/// the bound counts scheduler alternation between processors' program
/// streams, not bus/directory activity.  The pair is appended to state keys
/// and frontier entries: two product-identical states with different
/// budgets reach different futures and must not merge.
struct PreemptState {
  static constexpr std::uint8_t kNoLastProc = 0xff;
  std::uint8_t last = kNoLastProc;
  std::uint32_t budget = 0;
};

void append_entry(std::uint32_t idx, const Product& p, FrontierBatch& b,
                  const PreemptState* ps = nullptr) {
  b.offsets.push_back(static_cast<std::uint32_t>(b.bytes.size()));
  ByteWriter w(b.bytes);
  w.u32(idx);
  if (ps != nullptr) {
    w.u8(ps->last);
    w.u32(ps->budget);
  }
  // Raw snapshots through the component loop, not the canonical key: the
  // canonical form deliberately erases pool IDs and handle naming, so it
  // cannot rebuild a steppable product.  Snapshot/restore is bit-faithful.
  p.snapshot(w);
}

std::uint32_t restore_entry(std::span<const std::uint8_t> blob, Product& p,
                            PreemptState* ps = nullptr) {
  ByteReader r(blob);
  const std::uint32_t idx = r.u32();
  if (ps != nullptr) {
    ps->last = r.u8();
    ps->budget = r.u32();
  }
  p.restore(r);
  SCV_ASSERT(r.done());
  return idx;
}

/// The checker configuration the product pairs with `proto`'s observer.
ScCheckerConfig checker_config(const Protocol& proto, const McOptions& opt) {
  const auto& pr = proto.params();
  return ScCheckerConfig{Observer(proto, opt.observer).bandwidth(), pr.procs,
                         pr.blocks, pr.values, opt.observer.coherence_only,
                         opt.observer.model};
}

struct ReplayOutput {
  std::vector<CounterexampleStep> steps;
  std::string reason;
  std::vector<RunStep> recorded;  ///< filled only when recording
};

/// Re-executes `path` from the initial state through a fresh product,
/// collecting each step's action name and emitted observer symbols, the
/// terminal failure reason, and — when `record` — the RunTrace step body
/// via a recorder sink on the same pipeline.
///
/// Under symmetry reduction the path's transitions are relative to *orbit
/// representatives*: exploration canonicalized every successor before
/// storing it, so t_i is enabled in the canonical state s_{i-1}, not in the
/// concrete state the un-permuted run reaches.  The replay therefore drives
/// two products:
///
///   * the concrete product c, stepped with u_i = σ_{i-1}⁻¹(t_i), which is
///     a genuine run of the protocol from its true initial state (this is
///     what gets recorded — the trace re-checks offline like any other);
///   * a shadow product s that repeats exploration's exact sequence —
///     step with t_i, canonicalize obtaining π_i — purely to track the
///     cumulative renaming σ_i = σ_{i-1}·π_i with s_i = σ_i(c_i).
///
/// σ exists because processor permutations are bisimulations: t enabled in
/// σ(c) implies σ⁻¹(t) enabled in c with step(c, σ⁻¹(t)) = σ⁻¹(step(σ(c),
/// t)).  The shadow is byte-faithful to exploration (same deterministic
/// construction, steps and canonicalizer), so the π_i match the ones
/// exploration chose.  The final failing step needs no shadow work.
ReplayOutput replay(const Protocol& proto, const McOptions& opt,
                    const std::vector<Transition>& path, bool record) {
  ReplayOutput out;
  Product p(proto, opt.observer, !opt.protocol_only);
  RunRecorder recorder;
  if (record) p.add_sink(&recorder);
  std::vector<Symbol> symbols;

  ProcCanonicalizer canon(proto, opt.symmetry_reduction,
                          opt.incremental_canonicalization);
  Product shadow(proto, opt.observer, !opt.protocol_only);
  std::vector<Symbol> shadow_symbols;
  KeyScratch shadow_key;
  ProcPerm sigma = ProcPerm::identity(proto.params().procs);
  if (canon.active()) canon.canonicalize_key(shadow, shadow_key, &sigma);

  for (std::size_t i = 0; i < path.size(); ++i) {
    const Transition u =
        canon.active() ? proto.permute_transition(path[i], sigma.inverse())
                       : path[i];
    const std::string action = proto.action_name(u.action);
    const StepOutcome outcome = p.step(u, symbols, action);
    out.steps.push_back({action, symbols});
    if (outcome != StepOutcome::Ok) {
      out.reason = p.failure_reason(outcome);
      break;
    }
    if (canon.active() && i + 1 < path.size()) {
      shadow.step(path[i], shadow_symbols);
      ProcPerm pi;
      canon.canonicalize_key(shadow, shadow_key, &pi);
      sigma = sigma.then(pi);
    }
  }
  if (record) out.recorded = recorder.take();
  return out;
}

/// `MetaStore` is MetaArena or anything else indexable by state number.
template <typename MetaStore>
std::vector<Transition> path_to(const MetaStore& meta, std::uint32_t idx,
                                const Transition* final_step) {
  std::vector<Transition> path;
  for (std::uint32_t i = idx; i != 0; i = meta[i].parent) {
    path.push_back(meta[i].via);
  }
  std::reverse(path.begin(), path.end());
  if (final_step != nullptr) path.push_back(*final_step);
  return path;
}

template <typename MetaStore>
McResult finish_failure(const Protocol& proto, const McOptions& opt,
                        McResult result, StepOutcome outcome,
                        const MetaStore& meta, std::uint32_t parent,
                        const Transition& via) {
  switch (outcome) {
    case StepOutcome::Reject:
      result.verdict = McVerdict::Violation;
      break;
    case StepOutcome::Bound:
      result.verdict = McVerdict::BandwidthExceeded;
      break;
    case StepOutcome::Tracking:
      result.verdict = McVerdict::TrackingInconsistent;
      break;
    case StepOutcome::Ok:
      SCV_UNREACHABLE("finish_failure on Ok outcome");
  }
  const auto path = path_to(meta, parent, &via);
  ReplayOutput rep = replay(proto, opt, path, opt.record_counterexample);
  result.reason = std::move(rep.reason);
  result.counterexample = std::move(rep.steps);

  if (opt.record_counterexample) {
    RunTrace trace;
    trace.protocol = proto.name();
    trace.checker = checker_config(proto, opt);
    trace.verdict = result.verdict == McVerdict::Violation
                        ? RunVerdict::Violation
                        : (result.verdict == McVerdict::BandwidthExceeded
                               ? RunVerdict::BandwidthExceeded
                               : RunVerdict::TrackingInconsistent);
    trace.reason = result.reason;
    trace.steps = std::move(rep.recorded);
    result.counterexample_trace = std::move(trace);
  }

  // For cycle rejections, expand the full emitted descriptor (which is a
  // valid graph description regardless of cycles) and extract a concrete
  // cycle — the Lemma 3.1 witness that the trace is not SC.
  if (result.verdict == McVerdict::Violation) {
    Descriptor d;
    d.k = Observer(proto, opt.observer).bandwidth();
    for (const CounterexampleStep& step : result.counterexample) {
      d.symbols.insert(d.symbols.end(), step.emitted.begin(),
                       step.emitted.end());
    }
    const ExpansionResult expansion = expand(d);
    if (expansion.graph.has_value()) {
      if (const auto cyc = expansion.graph->graph.find_cycle()) {
        for (const std::uint32_t node : *cyc) {
          const auto& label = expansion.graph->node_labels[node];
          result.cycle.push_back(
              std::to_string(node + 1) + ":" +
              (label ? to_string(*label) : std::string("?")));
        }
      }
    }
  }
  return result;
}

/// Product-level symmetry self-check: on a deterministic sample walk,
/// verifies for every transposition τ (transpositions generate S_p) that
///   * a state and its τ-image canonicalize to the same key (same orbit,
///     same representative), and
///   * permute-then-step equals step-then-permute up to canonicalization:
///     canon(step(τ(s), τ(t))) == canon(step(s, t)) for every enabled t.
/// This exercises the *whole* product — protocol state, observer chains and
/// tracker, checker bookkeeping — so a permute hook that forgets one
/// component's per-processor state is caught here before the reduction can
/// merge non-equivalent states.  `detail` receives the first violation.
bool product_symmetry_ok(const Protocol& proto, const McOptions& opt,
                         std::string& detail) {
  const std::size_t procs = proto.params().procs;
  const bool with_obs = !opt.protocol_only;
  Product cur(proto, opt.observer, with_obs);
  Product perm_cur(proto, opt.observer, with_obs);
  Product succ(proto, opt.observer, with_obs);
  Product perm_succ(proto, opt.observer, with_obs);
  ProcCanonicalizer canon(proto, true, opt.incremental_canonicalization);
  KeyScratch ka;
  KeyScratch kb;
  std::vector<Transition> trans;
  std::vector<Symbol> symbols;

  const auto canon_keys_equal = [&](Product& x, Product& y) {
    canon.canonicalize_key(x, ka);
    canon.canonicalize_key(y, kb);
    const auto xa = ka.w.data();
    const auto yb = kb.w.data();
    return xa.size() == yb.size() &&
           std::equal(xa.begin(), xa.end(), yb.begin());
  };

  constexpr std::size_t kSamples = 24;
  constexpr std::size_t kMaxSteps = 96;
  std::size_t sampled = 0;
  for (std::size_t step = 0; step < kMaxSteps && sampled < kSamples; ++step) {
    trans.clear();
    cur.enumerate(trans);
    ++sampled;
    for (std::size_t a = 0; a + 1 < procs; ++a) {
      for (std::size_t b = a + 1; b < procs; ++b) {
        const ProcPerm tau =
            ProcPerm::transposition(procs, static_cast<ProcId>(a),
                                    static_cast<ProcId>(b));
        perm_cur.assign_from(cur);
        perm_cur.permute_procs(tau);
        succ.assign_from(cur);
        perm_succ.assign_from(perm_cur);
        if (!canon_keys_equal(succ, perm_succ)) {
          detail = "state and its (" + std::to_string(a) + " " +
                   std::to_string(b) +
                   ") image canonicalize to different keys at sample " +
                   std::to_string(sampled);
          return false;
        }
        for (const Transition& t : trans) {
          succ.assign_from(cur);
          if (succ.step(t, symbols) != StepOutcome::Ok) continue;
          perm_succ.assign_from(perm_cur);
          const Transition tp = proto.permute_transition(t, tau);
          if (perm_succ.step(tp, symbols) != StepOutcome::Ok) {
            detail = "permuted transition '" + proto.action_name(tp.action) +
                     "' not cleanly steppable in the (" + std::to_string(a) +
                     " " + std::to_string(b) + ") image at sample " +
                     std::to_string(sampled);
            return false;
          }
          if (!canon_keys_equal(succ, perm_succ)) {
            detail = "permute-then-step diverges from step-then-permute on '" +
                     proto.action_name(t.action) + "' under (" +
                     std::to_string(a) + " " + std::to_string(b) +
                     ") at sample " + std::to_string(sampled);
            return false;
          }
        }
      }
    }
    if (trans.empty()) break;
    const Transition& t = trans[(step * 13 + 7) % trans.size()];
    if (cur.step(t, symbols) != StepOutcome::Ok) break;
  }
  return true;
}

/// Full-identity transition comparison.  Action classes are not enough:
/// protocols emit distinct transitions with identical actions that differ
/// only in their copy labels (GetSharedToy's Get-Shared picks both a source
/// and a destination slot), so independence checks must match transitions
/// by every observable field.
bool same_transition(const Transition& a, const Transition& b) {
  if (a.loc != b.loc || a.serialize_loc != b.serialize_loc) return false;
  if (a.copies.size() != b.copies.size()) return false;
  for (std::size_t i = 0; i < a.copies.size(); ++i) {
    if (a.copies[i].dst != b.copies[i].dst ||
        a.copies[i].src != b.copies[i].src) {
      return false;
    }
  }
  const Action& x = a.action;
  const Action& y = b.action;
  if (x.kind != y.kind) return false;
  if (x.is_memory_op()) {
    return x.op.proc == y.op.proc && x.op.block == y.op.block &&
           x.op.value == y.op.value;
  }
  return x.internal_id == y.internal_id && x.arg0 == y.arg0 &&
         x.arg1 == y.arg1;
}

const Transition* find_transition(const std::vector<Transition>& trans,
                                  const Transition& t) {
  for (const Transition& c : trans) {
    if (same_transition(c, t)) return &c;
  }
  return nullptr;
}

/// Verifies the independence contract for the pair (t, u), both enabled in
/// `cur`: t must leave u enabled with the same step outcome u has from
/// `cur`, u must leave t enabled, and when every step is clean the two
/// interleavings must reach the same canonical product state.  Outcome
/// preservation is what keeps reject states reachable in the reduced
/// graph; key equality is the diamond the reordering argument commutes
/// through.  sa/sb/ka/kb/etrans/sym are caller scratch.
bool independence_commutes(const Protocol& proto, ProcCanonicalizer& canon,
                           const Product& cur, const Transition& t,
                           const Transition& u, Product& sa, Product& sb,
                           KeyScratch& ka, KeyScratch& kb,
                           std::vector<Transition>& etrans,
                           std::vector<Symbol>& sym, std::string& detail) {
  const auto pair_name = [&] {
    return "('" + proto.action_name(t.action) + "', '" +
           proto.action_name(u.action) + "')";
  };
  sa.assign_from(cur);
  if (sa.step(t, sym) != StepOutcome::Ok) return true;  // dead end: vacuous
  etrans.clear();
  sa.enumerate(etrans);
  const Transition* u_after = find_transition(etrans, u);
  if (u_after == nullptr) {
    detail = "declared-independent pair " + pair_name() +
             ": the first disables the second";
    return false;
  }
  sb.assign_from(sa);
  const StepOutcome o_tu = sb.step(*u_after, sym);
  if (o_tu == StepOutcome::Ok) canon.canonicalize_key(sb, ka);
  sb.assign_from(cur);
  const StepOutcome o_u = sb.step(u, sym);
  if (o_u != o_tu) {
    detail = "declared-independent pair " + pair_name() +
             ": step outcome differs between orders";
    return false;
  }
  if (o_u != StepOutcome::Ok) return true;  // both orders fail identically
  etrans.clear();
  sb.enumerate(etrans);
  const Transition* t_after = find_transition(etrans, t);
  if (t_after == nullptr) {
    detail = "declared-independent pair " + pair_name() +
             ": the second disables the first";
    return false;
  }
  if (sb.step(*t_after, sym) != StepOutcome::Ok) {
    detail = "declared-independent pair " + pair_name() +
             ": outcome differs on the deferred first transition";
    return false;
  }
  canon.canonicalize_key(sb, kb);
  const auto xa = ka.w.data();
  const auto xb = kb.w.data();
  if (xa.size() != xb.size() || !std::equal(xa.begin(), xa.end(), xb.begin())) {
    detail = "declared-independent pair " + pair_name() +
             ": the two orders reach different product states";
    return false;
  }
  return true;
}

/// Product-level independence self-check (the POR analogue of
/// product_symmetry_ok): on a deterministic sample walk, verifies that the
/// declared relation is symmetric, that every declared-independent
/// co-enabled pair commutes through the whole product (protocol state,
/// observer tracking, checker bookkeeping — independence_commutes), and
/// that every ample candidate (invisible singleton-processor footprint) is
/// a stutter: stepping it emits no descriptor symbols.  `detail` receives
/// the first violation.
bool product_por_ok(const Protocol& proto, const McOptions& opt,
                    const PorOracle& oracle, std::string& detail) {
  const bool with_obs = !opt.protocol_only;
  Product cur(proto, opt.observer, with_obs);
  Product sa(proto, opt.observer, with_obs);
  Product sb(proto, opt.observer, with_obs);
  ProcCanonicalizer canon(proto, opt.symmetry_reduction,
                          opt.incremental_canonicalization);
  KeyScratch ka;
  KeyScratch kb;
  std::vector<Transition> trans;
  std::vector<Transition> etrans;
  std::vector<Symbol> symbols;

  constexpr std::size_t kSamples = 24;
  constexpr std::size_t kMaxSteps = 96;
  std::size_t sampled = 0;
  for (std::size_t step = 0; step < kMaxSteps && sampled < kSamples; ++step) {
    trans.clear();
    cur.enumerate(trans);
    ++sampled;
    for (std::size_t i = 0; i < trans.size(); ++i) {
      const PorFootprint fp = oracle.footprint(trans[i]);
      if (!fp.visible && std::has_single_bit(fp.procs) &&
          !cur.transition_visible(trans[i])) {
        sa.assign_from(cur);
        if (sa.step(trans[i], symbols) == StepOutcome::Ok &&
            !symbols.empty()) {
          detail = "invisible-footprint transition '" +
                   proto.action_name(trans[i].action) +
                   "' emits descriptor symbols at sample " +
                   std::to_string(sampled);
          return false;
        }
      }
      for (std::size_t j = i + 1; j < trans.size(); ++j) {
        const bool ij = oracle.independent(trans[i], trans[j]);
        const bool ji = oracle.independent(trans[j], trans[i]);
        if (ij != ji) {
          detail = "independence relation is asymmetric on ('" +
                   proto.action_name(trans[i].action) + "', '" +
                   proto.action_name(trans[j].action) + "') at sample " +
                   std::to_string(sampled);
          return false;
        }
        if (!ij) continue;
        if (!independence_commutes(proto, canon, cur, trans[i], trans[j],
                                   sa, sb, ka, kb, etrans, symbols,
                                   detail)) {
          detail += " at sample " + std::to_string(sampled);
          return false;
        }
      }
    }
    if (trans.empty()) break;
    const Transition& t = trans[(step * 13 + 7) % trans.size()];
    if (cur.step(t, symbols) != StepOutcome::Ok) break;
  }
  return true;
}

/// In-engine ample cross-validation cadence: one sampled state per this
/// many reduced expansions.  Each sample costs ~|ample| * |T| product
/// steps, so the cadence keeps the overhead in the low percent.
constexpr std::uint64_t kPorSampleEvery = 4096;

/// Phase-timing cadence: one frontier entry in this many (by frontier
/// position) reads the clock at every phase boundary; the others only count
/// toward their worker's total expansion time, which the sampled entries'
/// phase shares then split (McPhaseTimes).
constexpr std::size_t kPhaseSampleEvery = 16;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Position of one expanded transition in the single-worker expansion
/// order: the entry's frontier position in the high half, the transition's
/// index in the entry's expansion order (ample members or all enabled
/// transitions, preemption-pruned ones included) in the low half.
using Tag = std::uint64_t;
constexpr Tag kNoTag = ~Tag{0};

constexpr Tag make_tag(std::size_t entry, std::size_t ti) noexcept {
  return (static_cast<Tag>(entry) << 32) | static_cast<Tag>(ti);
}
constexpr std::size_t tag_entry(Tag t) noexcept {
  return static_cast<std::size_t>(t >> 32);
}
constexpr std::uint32_t tag_index(Tag t) noexcept {
  return static_cast<std::uint32_t>(t);
}

/// What expanding one frontier entry contributed.  Kept per entry so that
/// a level that stops early counts exactly the entries before its stop.
struct EntryStat {
  enum Kind : std::uint8_t {
    kPlain,    ///< POR inactive
    kFull,     ///< POR active, full expansion
    kAmple,    ///< expanded through an ample set whose successors are all new
    kProviso,  ///< ample set with a successor stored before this level (C3)
  };
  std::uint32_t expanded = 0;  ///< transitions stepped
  std::uint32_t pruned = 0;    ///< transitions cut by the preemption bound
  std::uint32_t peak = 0;      ///< highest observer live-node count reached
  std::uint32_t deferred = 0;  ///< ample: enabled transitions left out
  Kind kind = kPlain;
};

/// A successor that was not stored when its level began, at the first tag
/// its worker reached it by.  The level barrier keeps, per state, the
/// candidate with the smallest tag over all workers.
struct Candidate {
  Tag tag = 0;
  Fingerprint fp;
  std::uint64_t orbit = 0;
  Meta meta;
  // The entry's counts up to and including this step.
  std::uint32_t expanded = 0;
  std::uint32_t peak = 0;
  bool fresh = false;  ///< set at the barrier: this is the state's least tag
};

/// A failing step: where it happened and the entry's counts up to it.
struct Failure {
  Tag tag = kNoTag;
  StepOutcome outcome = StepOutcome::Ok;
  Meta at;  ///< the failing entry's state number and the failing transition
  std::uint32_t expanded = 0;
  std::uint32_t peak = 0;
};

/// One worker's successors of the current level that are new to it, keyed
/// by fingerprint: an open-addressing table of candidate numbers, emptied
/// in O(1) per level by a generation stamp.
class LevelSeen {
 public:
  void clear() noexcept {
    size_ = 0;
    if (++gen_ != 0) return;
    for (Slot& s : slots_) s.gen = 0;  // stamp wrap-around
    gen_ = 1;
  }

  /// The earlier candidate holding this state — `same(c)` confirms a
  /// fingerprint match — or `next` once recorded.
  template <typename Same>
  std::uint32_t find_or_add(Fingerprint fp, std::uint32_t next, Same&& same) {
    if ((size_ + 1) * 2 > slots_.size()) rehash();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = fp.hi & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {
        s = {fp, next, gen_};
        ++size_;
        return next;
      }
      if (s.fp == fp && same(s.cand)) return s.cand;
    }
  }

 private:
  struct Slot {
    Fingerprint fp;
    std::uint32_t cand = 0;
    std::uint32_t gen = 0;
  };

  void rehash() {
    std::vector<Slot> old(std::max<std::size_t>(slots_.size() * 2, 1024));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      std::size_t i = s.fp.hi & mask;
      while (slots_[i].gen == gen_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint32_t gen_ = 1;
};

/// Visits, in ascending tag order, the items of `n` tag-sorted sequences
/// whose tags are <= `last`: `size(w)` is sequence w's length, `tag_at(w,
/// i)` the tag of its item i, and `visit(w, i)` returns false to stop.
/// Tags are unique across the sequences (each transition is expanded by
/// one worker), so the order is total.
template <typename Size, typename TagAt, typename Visit>
void merge_by_tag(std::size_t n, Tag last, std::vector<std::size_t>& pos,
                  Size size, TagAt tag_at, Visit visit) {
  pos.assign(n, 0);
  for (;;) {
    std::size_t best = n;
    Tag best_tag = last;
    for (std::size_t w = 0; w < n; ++w) {
      if (pos[w] == size(w)) continue;
      const Tag t = tag_at(w, pos[w]);
      if (best == n ? t <= last : t < best_tag) {
        best = w;
        best_tag = t;
      }
    }
    if (best == n || !visit(best, pos[best]++)) return;
  }
}

// The exploration engine — one level-synchronized BFS for every thread
// count, driving the uniform Product through the compact frontier, whose
// result does not depend on the thread count.  Each level runs in three
// phases:
//
//   * expand (parallel): workers claim chunks of the frontier in order and
//     step every successor into reused scratch.  The visited store is
//     frozen — only read — so a successor is either stored already, or a
//     *candidate*: new to the store and to this worker's level set, it is
//     serialized into the worker's batch with its tag (entry position,
//     transition index).  A worker's tags ascend, because its chunks do.
//   * resolve (parallel): worker o owns the store partitions p with
//     p % workers == o and inserts the candidates routed to them in tag
//     order across all workers, so the smallest tag of each state claims
//     it.  Each partition has one writer, which grows it in place.
//   * assign (serial): a merge of the workers' candidate lists in tag order
//     numbers the claimed states, writes their Meta records and builds the
//     next frontier's entry order.
//
// Tag order is exactly the order a single worker expands in, so the state
// numbers, the next frontier and every counter are those of the 1-worker
// run: `threads` changes how fast a result arrives, not the result.  A
// failing step or the state budget stops the level at the smallest tag
// where it happens; counts cover the entries before it (kept per entry in
// EntryStat) plus the stopping entry's prefix.  A worker that fails, or
// whose own candidates alone exhaust the budget, publishes its entry as an
// upper bound on the stop, and nobody expands past it.  `threads == 1`
// runs the same phases inline on the calling thread.
class LevelBfs {
 public:
  LevelBfs(const Protocol& proto, const McOptions& opt,
           const PorOracle& oracle);

  McResult run();

  /// Set when a sampled ample set failed cross-validation at runtime; the
  /// result of run() is then void and the caller re-explores without POR.
  [[nodiscard]] const std::string& por_violation() const {
    return por_violation_;
  }

 private:
  enum Phase : std::size_t { kExpand, kCanonicalize, kDedup, kMaterialize };

  struct Worker {
    Worker(const Protocol& p, const ObserverConfig& c, bool prod,
           GraphId null_id, bool sym, bool incr, const PorOracle& orc,
           bool por_on, std::size_t owners)
        : cur(p, c, prod),
          succ(p, c, prod),
          stats(null_id),
          canon(p, sym, incr),
          ample(p, orc, por_on),
          route(owners) {}
    Product cur;   ///< entry being expanded (restored from the frontier)
    Product succ;  ///< successor scratch, reused across transitions
    std::uint32_t cur_idx = 0;
    PreemptState ps;  ///< cur's scheduling context (preemption bounding)
    KeyScratch key;
    std::vector<Transition> transitions;
    std::vector<Symbol> symbols;
    SymbolStatsSink stats;    ///< attached to succ when symbol_stats
    ProcCanonicalizer canon;  ///< per-worker (it carries scratch)
    // Direct-mapped positive-membership cache in front of the visited
    // store.  In fingerprint mode a hit certifies the fingerprint is
    // stored, or is one of this worker's candidates of the level `slot`
    // names — duplicates short-circuit without probing the (much larger,
    // cache-missing) global table.  A candidate of an earlier level is
    // stored by now (a level that drops a candidate keeps another worker's
    // copy of the state).  Exact mode dedups by full key, so a hit is only
    // a nomination: it is validated against the cached partition slot with
    // one byte-compare (ConcurrentStateStore::confirm) instead of a full
    // hash-map probe, and only stored states are cached.  Membership is
    // monotone, so entries never invalidate, even across growth.  Sized to
    // stay L2-resident: 8Ki entries * 24 B ≈ 192 KiB.
    struct CacheEntry {
      Fingerprint fp;
      std::uint32_t slot = 0;  ///< exact: store slot; else 0 or level + 1
    };
    std::vector<CacheEntry> dup_cache = std::vector<CacheEntry>(8192);
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_lookups = 0;
    AmpleSelector ample;  ///< per-worker (it carries scratch)
    std::vector<std::uint32_t> ample_idx;
    // The level's candidates in tag order, their frontier entries in the
    // same order (worker 0's batch also takes the proviso fallback's
    // states after them), their keys in exact mode, and their numbers by
    // the worker that owns their store partition.
    std::vector<Candidate> cands;
    FrontierBatch out;
    std::vector<std::uint8_t> cand_keys;
    std::vector<std::uint32_t> cand_key_ends;
    LevelSeen seen;
    std::vector<std::vector<std::uint32_t>> route;
    std::vector<std::size_t> merge_pos;
    Failure fail;         ///< this worker's first failing step
    Tag bound = kNoTag;   ///< where its own candidates exhausted the budget
    std::size_t chunk_next = 0;
    std::size_t chunk_end = 0;
    double expand_s = 0.0;  ///< time in the expand phase
    std::array<double, 4> sampled{};  ///< phase times of sampled entries
    double resolve_s = 0.0;

    [[nodiscard]] std::span<const std::uint8_t> cand_key(
        std::uint32_t c) const {
      if (cand_key_ends.empty()) return {};
      const std::uint32_t begin = c == 0 ? 0 : cand_key_ends[c - 1];
      return std::span<const std::uint8_t>(cand_keys)
          .subspan(begin, cand_key_ends[c] - begin);
    }
  };

  enum class Seen : std::uint8_t { Stored, Level, New };

  void begin_level();
  void expand(std::size_t w);
  void expand_entries(Worker& ws);
  Seen classify(Worker& ws, std::span<const std::uint8_t> key,
                Fingerprint fp);
  void resolve(std::size_t o);
  const Candidate* assign();
  void commit_entries(std::size_t end);
  void commit_prefix(Tag tag, std::uint32_t expanded, std::uint32_t peak);
  bool ample_samples_ok(std::size_t end);
  bool ample_check_ok(Worker& ws, std::string& detail);
  enum class Halt : std::uint8_t { None, Failure, Limit };
  Halt proviso_fallback();
  void load_entry(Worker& ws, std::size_t gi);
  void lower_stop(std::size_t gi);
  void end_level(Clock::time_point level_start);
  McResult finish(McVerdict v);
  /// finish() plus the counterexample of failure_ (finish_failure sets the
  /// verdict from its outcome).
  McResult finish_failed() {
    return finish_failure(proto_, opt_, finish(McVerdict::Violation),
                          failure_.outcome, meta_, failure_.at.parent,
                          failure_.at.via);
  }

  const Clock::time_point t0_ = Clock::now();
  const Protocol& proto_;
  const McOptions& opt_;
  const std::size_t nworkers_;
  const bool product_;
  const MemoryModel model_;
  const bool preempt_;
  const bool por_;
  ThreadPool pool_;
  ConcurrentStateStore visited_;
  MetaArena meta_;
  bool symmetry_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Scratch of the sampled ample cross-validation (por_self_check).
  std::unique_ptr<Product> chk_a_;
  std::unique_ptr<Product> chk_b_;
  KeyScratch chk_key_;
  std::vector<Transition> chk_trans_;

  // The level being expanded: the workers' batches of the previous level,
  // addressed in expansion order by order_.
  std::vector<FrontierBatch> frontier_;
  std::vector<EntryRef> order_;
  std::vector<EntryRef> next_order_;
  std::vector<EntryStat> entry_stats_;
  std::size_t total_ = 0;
  std::size_t chunk_sz_ = 1;
  std::size_t states_before_ = 0;
  std::atomic<std::size_t> claim_{0};
  /// Upper bound on the entry the level stops in (SIZE_MAX: none yet).
  std::atomic<std::size_t> stop_entry_{~std::size_t{0}};
  Tag stop_tag_ = kNoTag;  ///< smallest failure or budget bound of the level
  std::vector<std::size_t> assign_pos_;

  // Counts over committed expansions.
  std::uint64_t transitions_ = 0;
  std::uint64_t pruned_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t orbit_sum_ = 0;  ///< orbit sizes of the stored states
  AmpleStats por_stats_;
  std::uint64_t por_reduced_seen_ = 0;
  Failure failure_;
  std::string por_violation_;
  double assign_s_ = 0.0;
  McResult result_;
};

LevelBfs::LevelBfs(const Protocol& proto, const McOptions& opt,
                   const PorOracle& oracle)
    : proto_(proto),
      opt_(opt),
      nworkers_(opt.threads),
      product_(!opt.protocol_only),
      // Bounded preemption (see McOptions::observer): thread the scheduling
      // context through keys and frontier entries, prune over-budget
      // transitions.  model_check already strips symmetry and POR under it;
      // the gates here keep the engine sound even with a raw option set.
      model_(opt.observer.effective_model()),
      preempt_(model_.bounded_preemption()),
      // POR engages only against the full product: invisibility (C2) is
      // defined relative to the observer/checker pipeline, which
      // protocol_only drops.
      por_(opt.partial_order_reduction && product_ && !preempt_ &&
           AmpleSelector(proto, oracle, true).active()),
      // One worker needs no OS threads: the pool runs the task inline.
      pool_(nworkers_ == 1 ? 0 : nworkers_, opt.pin_threads),
      visited_(opt.exact_states, presize_expected(opt)),
      frontier_(nworkers_) {
  Product init(proto, opt.observer, product_);
  ProcCanonicalizer init_canon(proto, opt.symmetry_reduction && !preempt_,
                               opt.incremental_canonicalization);
  symmetry_ = init_canon.active();
  const PreemptState init_ps{PreemptState::kNoLastProc,
                             model_.preemption_bound};
  KeyScratch ks;
  orbit_sum_ = init_canon.canonicalize_key(init, ks);
  if (preempt_) {
    ks.w.u8(init_ps.last);
    ks.w.u32(init_ps.budget);
  }
  const auto key = ks.w.data();
  result_.state_bytes = key.size();
  visited_.insert(key, fingerprint128(key));
  append_entry(0, init, frontier_[0], preempt_ ? &init_ps : nullptr);
  order_.push_back({0, 0});

  const GraphId stats_null_id =
      product_ ? static_cast<GraphId>(init.observer().bandwidth() + 1)
               : kNoId;
  workers_.reserve(nworkers_);
  for (std::size_t w = 0; w < nworkers_; ++w) {
    workers_.push_back(std::make_unique<Worker>(
        proto, opt.observer, product_, stats_null_id, symmetry_,
        opt.incremental_canonicalization, oracle, por_, nworkers_));
    if (opt.symbol_stats && product_) {
      workers_.back()->succ.add_sink(&workers_.back()->stats);
    }
  }
  if (por_ && opt.por_self_check) {
    chk_a_ = std::make_unique<Product>(proto, opt.observer, product_);
    chk_b_ = std::make_unique<Product>(proto, opt.observer, product_);
  }
}

McResult LevelBfs::run() {
  while (!order_.empty()) {
    if (result_.depth >= opt_.max_depth) return finish(McVerdict::StateLimit);
    const auto level_start = Clock::now();
    begin_level();
    pool_.run_on_all([this](std::size_t w) { expand(w); });
    stop_tag_ = kNoTag;
    for (const auto& ws : workers_) {
      stop_tag_ = std::min({stop_tag_, ws->fail.tag, ws->bound});
    }
    pool_.run_on_all([this](std::size_t o) { resolve(o); });
    const Candidate* limit = assign();

    // The level's stop, if any: the budget-exhausting candidate, or else
    // the smallest failing step (a worker's budget bound always yields a
    // limit candidate at or before it).
    Tag stop = kNoTag;
    if (limit != nullptr) {
      stop = limit->tag;
    } else if (stop_tag_ != kNoTag) {
      for (const auto& ws : workers_) {
        if (ws->fail.tag == stop_tag_) failure_ = ws->fail;
      }
      SCV_ASSERT(failure_.tag == stop_tag_);
      stop = stop_tag_;
    }
    const std::size_t end = stop == kNoTag ? total_ : tag_entry(stop);
    if (por_ && opt_.por_self_check &&
        !ample_samples_ok(stop == kNoTag ? total_ : end + 1)) {
      return {};
    }
    commit_entries(end);
    if (limit != nullptr) {
      commit_prefix(limit->tag, limit->expanded, limit->peak);
      return finish(McVerdict::StateLimit);
    }
    if (stop != kNoTag) {
      commit_prefix(failure_.tag, failure_.expanded, failure_.peak);
      return finish_failed();
    }
    if (por_) {
      const Halt halt = proviso_fallback();
      if (halt == Halt::Limit) return finish(McVerdict::StateLimit);
      if (halt == Halt::Failure) return finish_failed();
    }
    end_level(level_start);
  }
  return finish(McVerdict::Verified);
}

void LevelBfs::begin_level() {
  total_ = order_.size();
  states_before_ = meta_.size();
  if (entry_stats_.size() < total_) entry_stats_.resize(total_);
  // Chunked work claiming: workers grab contiguous runs of frontier
  // entries from a shared cursor instead of a fixed stride, so a worker
  // stuck on expensive entries does not leave its whole stride stranded
  // while others idle at the level barrier.  Chunks are sized so each
  // worker sees ~8 claims per level (caps tail imbalance at ~1/8 of a
  // worker's share) but at most 64 entries (bounds the tail chunk's
  // latency).  Claims ascend, so each worker's tags do.
  chunk_sz_ = std::clamp<std::size_t>(total_ / (nworkers_ * 8), 1, 64);
  claim_.store(0, std::memory_order_relaxed);
  stop_entry_.store(~std::size_t{0}, std::memory_order_relaxed);
  next_order_.clear();
  for (const auto& ws : workers_) {
    ws->cands.clear();
    ws->out.clear();
    ws->cand_keys.clear();
    ws->cand_key_ends.clear();
    ws->seen.clear();
    for (auto& r : ws->route) r.clear();
    ws->fail = {};
    ws->bound = kNoTag;
    ws->chunk_next = 0;
    ws->chunk_end = 0;
  }
}

void LevelBfs::lower_stop(std::size_t gi) {
  std::size_t cur = stop_entry_.load(std::memory_order_relaxed);
  while (gi < cur && !stop_entry_.compare_exchange_weak(
                         cur, gi, std::memory_order_relaxed)) {
  }
}

void LevelBfs::load_entry(Worker& ws, std::size_t gi) {
  const EntryRef r = order_[gi];
  ws.cur_idx = restore_entry(frontier_[r.batch].entry(r.entry), ws.cur,
                             preempt_ ? &ws.ps : nullptr);
  ws.transitions.clear();
  ws.cur.enumerate(ws.transitions);
}

void LevelBfs::expand(std::size_t w) {
  Worker& ws = *workers_[w];
  const auto start = Clock::now();
  expand_entries(ws);
  ws.expand_s += seconds_since(start);
}

LevelBfs::Seen LevelBfs::classify(Worker& ws,
                                  std::span<const std::uint8_t> key,
                                  Fingerprint fp) {
  // In fingerprint mode a cache hit IS membership; exact mode confirms the
  // cached slot with one byte-compare, and an alias falls back to find().
  Worker::CacheEntry& entry = ws.dup_cache[fp.lo & (ws.dup_cache.size() - 1)];
  const auto level_mark = static_cast<std::uint32_t>(result_.depth + 1);
  ++ws.cache_lookups;
  if (entry.fp == fp) {
    if (!opt_.exact_states) {
      ++ws.cache_hits;
      return entry.slot == level_mark ? Seen::Level : Seen::Stored;
    }
    if (visited_.confirm(key, fp, entry.slot)) {
      ++ws.cache_hits;
      return Seen::Stored;
    }
  }
  const ConcurrentStateStore::Found found = visited_.find(key, fp);
  if (found.member) {
    entry = {fp, found.slot};
    return Seen::Stored;
  }
  const auto next = static_cast<std::uint32_t>(ws.cands.size());
  const std::uint32_t c = ws.seen.find_or_add(fp, next, [&](std::uint32_t p) {
    if (!opt_.exact_states) return true;
    const auto k = ws.cand_key(p);
    return std::equal(k.begin(), k.end(), key.begin(), key.end());
  });
  if (c != next) return Seen::Level;
  if (!opt_.exact_states) entry = {fp, level_mark};
  return Seen::New;
}

void LevelBfs::expand_entries(Worker& ws) {
  // Sampled entries charge everything between two clock reads to the phase
  // that just ran (restore/enumerate/step -> expand, signature/canonical-key
  // work -> canonicalize, fingerprint/store probe -> dedup, candidate and
  // serialization -> materialize).
  Clock::time_point mark;
  const auto charge = [&](Phase p) {
    const auto now = Clock::now();
    ws.sampled[p] += std::chrono::duration<double>(now - mark).count();
    mark = now;
  };
  for (;;) {
    if (ws.chunk_next >= ws.chunk_end) {
      ws.chunk_next = claim_.fetch_add(chunk_sz_, std::memory_order_relaxed);
      if (ws.chunk_next >= total_) return;
      ws.chunk_end = std::min(ws.chunk_next + chunk_sz_, total_);
    }
    const std::size_t gi = ws.chunk_next++;
    // Past the earliest stop found so far nothing counts; claims ascend,
    // so nothing later in this worker's queue does either.
    if (gi > stop_entry_.load(std::memory_order_relaxed)) return;
    const bool sampled = gi % kPhaseSampleEvery == 0;
    if (sampled) mark = Clock::now();
    load_entry(ws, gi);
    const bool reduced =
        por_ && ws.ample.select(ws.cur, ws.transitions, ws.ample_idx);
    EntryStat& es = entry_stats_[gi];
    es = {};
    if (reduced) {
      es.kind = EntryStat::kAmple;
      es.deferred = static_cast<std::uint32_t>(ws.transitions.size() -
                                               ws.ample_idx.size());
    } else if (por_) {
      es.kind = EntryStat::kFull;
    }
    // New base state for the canonicalizer's per-processor signature
    // cache; successor dirty masks below are relative to ws.cur.
    ws.canon.begin_base();
    bool unproven = false;
    const std::size_t ntrans =
        reduced ? ws.ample_idx.size() : ws.transitions.size();
    PreemptState nps = ws.ps;
    for (std::size_t ti = 0; ti < ntrans; ++ti) {
      const Transition& t = ws.transitions[reduced ? ws.ample_idx[ti] : ti];
      if (preempt_) {
        nps = ws.ps;
        if (t.action.is_memory_op()) {
          const std::uint8_t tp = t.action.op.proc;
          if (nps.last != PreemptState::kNoLastProc && tp != nps.last) {
            if (nps.budget == 0) {
              // Context-switch budget exhausted: the bound prunes this
              // scheduling.  Not counted as an explored transition.
              ++es.pruned;
              continue;
            }
            --nps.budget;
          }
          nps.last = tp;
        }
      }
      ++es.expanded;
      ws.succ.assign_from(ws.cur);
      const StepOutcome outcome = ws.succ.step(t, ws.symbols);
      if (outcome != StepOutcome::Ok) {
        ws.fail = {make_tag(gi, ti), outcome, {ws.cur_idx, t}, es.expanded,
                   es.peak};
        lower_stop(gi);
        return;
      }
      if (product_) {
        es.peak = std::max(es.peak, static_cast<std::uint32_t>(
                                        ws.succ.observer().peak_live_nodes()));
      }
      if (sampled) charge(kExpand);
      // succ = step(cur, t), so the step's touched mask doubles as the
      // dirty mask relative to the begin_base() state.
      const std::uint64_t orbit = ws.canon.canonicalize_key(
          ws.succ, ws.key, nullptr, ws.succ.touched_procs());
      if (preempt_) {
        ws.key.w.u8(nps.last);
        ws.key.w.u32(nps.budget);
      }
      if (sampled) charge(kCanonicalize);
      const auto key = ws.key.w.data();
      const Fingerprint fp = fingerprint128(key);
      const Seen seen = classify(ws, key, fp);
      if (sampled) charge(kDedup);
      if (seen == Seen::Stored) {
        // An ample successor stored before this level may close a cycle
        // inside the reduced graph (C3): decided after the barrier.
        unproven = unproven || reduced;
        continue;
      }
      if (seen == Seen::Level) continue;
      const auto c = static_cast<std::uint32_t>(ws.cands.size());
      ws.cands.push_back({make_tag(gi, ti), fp, orbit, {ws.cur_idx, t},
                          es.expanded, es.peak, false});
      if (opt_.exact_states) {
        ws.cand_keys.insert(ws.cand_keys.end(), key.begin(), key.end());
        ws.cand_key_ends.push_back(
            static_cast<std::uint32_t>(ws.cand_keys.size()));
      }
      ws.route[ConcurrentStateStore::partition(fp) % nworkers_].push_back(c);
      append_entry(0, ws.succ, ws.out, preempt_ ? &nps : nullptr);
      if (sampled) charge(kMaterialize);
      // This worker's candidates are distinct states, each claimed at or
      // before its tag, so the budget runs out here at the latest.
      if (states_before_ + ws.cands.size() >= opt_.max_states) {
        ws.bound = ws.cands.back().tag;
        lower_stop(gi);
        return;
      }
    }
    if (unproven) es.kind = EntryStat::kProviso;
  }
}

void LevelBfs::resolve(std::size_t o) {
  const auto start = Clock::now();
  Worker& me = *workers_[o];
  merge_by_tag(
      nworkers_, stop_tag_, me.merge_pos,
      [&](std::size_t w) { return workers_[w]->route[o].size(); },
      [&](std::size_t w, std::size_t i) {
        const Worker& src = *workers_[w];
        return src.cands[src.route[o][i]].tag;
      },
      [&](std::size_t w, std::size_t i) {
        Worker& src = *workers_[w];
        const std::uint32_t c = src.route[o][i];
        src.cands[c].fresh = visited_.insert(src.cand_key(c), src.cands[c].fp);
        return true;
      });
  me.resolve_s += seconds_since(start);
}

const Candidate* LevelBfs::assign() {
  const auto start = Clock::now();
  const Candidate* limit = nullptr;
  merge_by_tag(
      nworkers_, stop_tag_, assign_pos_,
      [&](std::size_t w) { return workers_[w]->cands.size(); },
      [&](std::size_t w, std::size_t i) { return workers_[w]->cands[i].tag; },
      [&](std::size_t w, std::size_t i) {
        Worker& src = *workers_[w];
        const Candidate& c = src.cands[i];
        if (!c.fresh) return true;
        const auto idx = static_cast<std::uint32_t>(meta_.size());
        meta_.push(c.meta);
        orbit_sum_ += c.orbit;
        src.out.set_entry_index(i, idx);
        next_order_.push_back(
            {static_cast<std::uint32_t>(w), static_cast<std::uint32_t>(i)});
        if (idx + 1 >= opt_.max_states) {
          limit = &c;
          return false;
        }
        return true;
      });
  assign_s_ += seconds_since(start);
  return limit;
}

void LevelBfs::commit_entries(std::size_t end) {
  for (std::size_t gi = 0; gi < end; ++gi) {
    const EntryStat& es = entry_stats_[gi];
    transitions_ += es.expanded;
    pruned_ += es.pruned;
    peak_live_ = std::max<std::size_t>(peak_live_, es.peak);
    if (es.kind == EntryStat::kAmple) {
      ++por_stats_.ample_states;
      por_stats_.deferred_transitions += es.deferred;
    } else if (es.kind == EntryStat::kFull) {
      ++por_stats_.full_states;
    }
    // kProviso entries are counted by the fallback, which a stopped level
    // never reaches.
  }
}

void LevelBfs::commit_prefix(Tag tag, std::uint32_t expanded,
                             std::uint32_t peak) {
  transitions_ += expanded;
  pruned_ += tag_index(tag) + 1 - expanded;
  peak_live_ = std::max<std::size_t>(peak_live_, peak);
}

// In-engine ample cross-validation: re-establishes on live reachable
// states what product_por_ok sampled from its walk.  Every ample member
// must be a stutter (no descriptor symbols) and must commute with every
// deferred transition through the whole product.
bool LevelBfs::ample_check_ok(Worker& ws, std::string& detail) {
  for (const std::uint32_t i : ws.ample_idx) {
    chk_a_->assign_from(ws.cur);
    if (chk_a_->step(ws.transitions[i], ws.symbols) == StepOutcome::Ok &&
        !ws.symbols.empty()) {
      detail = "ample member '" +
               proto_.action_name(ws.transitions[i].action) +
               "' emits descriptor symbols";
      return false;
    }
    std::size_t m = 0;
    for (std::size_t j = 0; j < ws.transitions.size(); ++j) {
      if (m < ws.ample_idx.size() && ws.ample_idx[m] == j) {
        ++m;  // member-member pairs need no commutation argument
        continue;
      }
      if (!independence_commutes(proto_, ws.canon, ws.cur, ws.transitions[i],
                                 ws.transitions[j], *chk_a_, *chk_b_, ws.key,
                                 chk_key_, chk_trans_, ws.symbols, detail)) {
        return false;
      }
    }
  }
  return true;
}

/// Cross-validates every kPorSampleEvery-th reduced entry, counted in
/// expansion order over the whole run, among the level's first `end`
/// entries.
bool LevelBfs::ample_samples_ok(std::size_t end) {
  Worker& ws = *workers_[0];
  for (std::size_t gi = 0; gi < end; ++gi) {
    const auto kind = entry_stats_[gi].kind;
    if (kind != EntryStat::kAmple && kind != EntryStat::kProviso) continue;
    if (por_reduced_seen_++ % kPorSampleEvery != 0) continue;
    load_entry(ws, gi);
    const bool reduced = ws.ample.select(ws.cur, ws.transitions, ws.ample_idx);
    SCV_ASSERT(reduced);  // selection is deterministic in the state bytes
    std::string detail;
    if (!ample_check_ok(ws, detail)) {
      por_violation_ = std::move(detail);
      return false;
    }
  }
  return true;
}

// Cycle-proviso (C3) fallback.  BFS assigns minimal depths, so any cycle in
// the reduced graph has an edge whose target is no deeper than its source;
// that edge shows up as an ample successor that was stored before this
// level began.  Expansion flagged exactly those entries (kProviso): with
// the store frozen during expansion, "stored" means "stored before this
// level" at every thread count.  Each flagged entry now expands its
// deferred complement too, in entry order, after the level's regular
// states were numbered; the states it finds come last in the next frontier.
LevelBfs::Halt LevelBfs::proviso_fallback() {
  Worker& ws = *workers_[0];
  for (std::size_t gi = 0; gi < total_; ++gi) {
    if (entry_stats_[gi].kind != EntryStat::kProviso) continue;
    ++por_stats_.proviso_fallbacks;
    ++por_stats_.full_states;
    load_entry(ws, gi);
    const bool reduced = ws.ample.select(ws.cur, ws.transitions, ws.ample_idx);
    SCV_ASSERT(reduced);  // selection is deterministic in the state bytes
    ws.canon.begin_base();
    std::size_t m = 0;
    for (std::size_t j = 0; j < ws.transitions.size(); ++j) {
      if (m < ws.ample_idx.size() && ws.ample_idx[m] == j) {
        ++m;
        continue;
      }
      ++transitions_;
      const Transition& t = ws.transitions[j];
      ws.succ.assign_from(ws.cur);
      const StepOutcome outcome = ws.succ.step(t, ws.symbols);
      if (outcome != StepOutcome::Ok) {
        failure_.outcome = outcome;
        failure_.at = {ws.cur_idx, t};
        return Halt::Failure;
      }
      const std::uint64_t orbit = ws.canon.canonicalize_key(
          ws.succ, ws.key, nullptr, ws.succ.touched_procs());
      const auto key = ws.key.w.data();
      // Serial here, so inserting straight into the store is safe.
      if (!visited_.insert(key, fingerprint128(key))) continue;
      const auto idx = static_cast<std::uint32_t>(meta_.size());
      meta_.push({ws.cur_idx, t});
      orbit_sum_ += orbit;
      append_entry(idx, ws.succ, ws.out);
      next_order_.push_back({0, static_cast<std::uint32_t>(ws.out.size() - 1)});
      if (idx + 1 >= opt_.max_states) return Halt::Limit;
    }
  }
  return Halt::None;
}

void LevelBfs::end_level(Clock::time_point level_start) {
  if (visited_.should_grow()) visited_.grow();
  // The workers' batches become the next frontier; the old frontier
  // buffers become next level's write buffers (double buffering).
  std::size_t cur_bytes = 0;
  std::size_t next_bytes = 0;
  for (std::size_t w = 0; w < nworkers_; ++w) {
    cur_bytes += frontier_[w].bytes.size();
    std::swap(frontier_[w], workers_[w]->out);
    next_bytes += frontier_[w].bytes.size();
  }
  order_.swap(next_order_);
  result_.peak_frontier = std::max(result_.peak_frontier, order_.size());
  result_.frontier_bytes =
      std::max(result_.frontier_bytes, cur_bytes + next_bytes);
  result_.level_stats.push_back(
      {total_, meta_.size() - states_before_, seconds_since(level_start)});
  ++result_.depth;
}

McResult LevelBfs::finish(McVerdict v) {
  McResult& r = result_;
  r.verdict = v;
  r.states = meta_.size();
  r.transitions = transitions_;
  r.preemption_pruned = pruned_;
  r.peak_live_nodes = peak_live_;
  r.preemption_bounded = preempt_;
  r.symmetry_active = symmetry_;
  r.orbit_reduction = static_cast<double>(orbit_sum_) /
                      static_cast<double>(meta_.size());
  r.por_active = por_;
  r.por_ample_states = por_stats_.ample_states;
  r.por_full_states = por_stats_.full_states;
  r.por_proviso_fallbacks = por_stats_.proviso_fallbacks;
  r.por_deferred_transitions = por_stats_.deferred_transitions;
  // Phase times: the sampled entries' phase shares split the workers' whole
  // expansion time; the barrier phases are timed directly.
  double expand_s = 0.0;
  std::array<double, 4> sampled{};
  for (const auto& ws : workers_) {
    if (opt_.symbol_stats) r.symbol_stats.merge(ws->stats.stats());
    r.dup_cache_hits += ws->cache_hits;
    r.dup_cache_lookups += ws->cache_lookups;
    expand_s += ws->expand_s;
    for (std::size_t p = 0; p < sampled.size(); ++p) {
      sampled[p] += ws->sampled[p];
    }
    r.phase_times.dedup += ws->resolve_s;
  }
  const double sampled_s = sampled[kExpand] + sampled[kCanonicalize] +
                           sampled[kDedup] + sampled[kMaterialize];
  const auto share = [&](Phase p) {
    return sampled_s > 0 ? expand_s * sampled[p] / sampled_s : 0.0;
  };
  r.phase_times.expand = sampled_s > 0 ? share(kExpand) : expand_s;
  r.phase_times.canonicalize = share(kCanonicalize);
  r.phase_times.dedup += share(kDedup);
  r.phase_times.materialize = share(kMaterialize) + assign_s_;
  fill_store_stats(r, visited_);
  r.seconds = seconds_since(t0_);
  return std::move(r);
}

McResult run_bfs(const Protocol& proto, const McOptions& opt,
                 const PorOracle& oracle) {
  std::string por_violation;
  {
    LevelBfs bfs(proto, opt, oracle);
    McResult result = bfs.run();
    if (bfs.por_violation().empty()) return result;
    por_violation = bfs.por_violation();
  }
  // A live ample set failed cross-validation: some independence or
  // footprint declaration is wrong, so nothing explored under it can be
  // trusted.  Redo the whole run with POR off — sound, just slower — and
  // say why.  (The first attempt's store and frontier are released first.)
  McOptions full = opt;
  full.partial_order_reduction = false;
  McResult redo = run_bfs(proto, full, oracle);
  redo.por_note = "ample self-check failed at runtime (" + por_violation +
                  "); explored without partial-order reduction";
  return redo;
}

/// PorOracle backed by the verified static inference (DESIGN.md §15):
/// builds the protocol's control skeleton once, runs the exhaustive
/// invisibility / commutation sweep, and serves footprints and independence
/// by shape lookup.  Independence is deliberately restricted to pairs with
/// at least one ample *candidate* (inferred-invisible, singleton processor
/// support) on a side: the raw relation also proves visible protocol-level
/// commutations whose product executions diverge (observer ID allocation is
/// order-sensitive), and product_por_ok validates every pair the oracle
/// calls independent at the product level.  Ample selection only ever
/// consults pairs anchored by a candidate, so the restriction costs no
/// reduction.
class InferredPorOracle final : public PorOracle {
 public:
  explicit InferredPorOracle(const Protocol& proto)
      : skeleton_(analysis::build_skeleton(proto)),
        inference_(analysis::infer_por(skeleton_)) {
    candidate_.resize(skeleton_.shapes.size(), 0);
    for (std::size_t s = 0; s < skeleton_.shapes.size(); ++s) {
      candidate_[s] = inference_.invisible[s] &&
                              std::has_single_bit(inference_.proc_support[s])
                          ? 1
                          : 0;
    }
  }

  [[nodiscard]] bool usable() const { return inference_.usable; }
  [[nodiscard]] const std::string& note() const { return inference_.note; }

  [[nodiscard]] bool por_enabled() const override {
    return inference_.usable;
  }

  [[nodiscard]] PorFootprint footprint(const Transition& t) const override {
    const std::uint32_t s = skeleton_.find_shape(t);
    // Unknown shape (should not happen on a complete skeleton): fall back
    // to the everything-conflicts footprint, which reduces nothing.
    if (s == analysis::ProtocolSkeleton::npos) return PorFootprint{};
    return inference_.footprints[s];
  }

  [[nodiscard]] bool independent(const Transition& a,
                                 const Transition& b) const override {
    const std::uint32_t i = skeleton_.find_shape(a);
    const std::uint32_t j = skeleton_.find_shape(b);
    if (i == analysis::ProtocolSkeleton::npos ||
        j == analysis::ProtocolSkeleton::npos) {
      return false;
    }
    if (candidate_[i] == 0 && candidate_[j] == 0) return false;
    return inference_.independent(i, j);
  }

 private:
  analysis::ProtocolSkeleton skeleton_;
  analysis::InferredPor inference_;
  std::vector<char> candidate_;
};

}  // namespace

McResult model_check(const Protocol& protocol, const McOptions& options) {
  SCV_EXPECTS(options.threads >= 1);
  if (options.lint_first && !options.protocol_only) {
    // Fail-fast static precheck: malformed tracking metadata would abort or
    // mislead exploration much later; reject it in milliseconds instead.
    // Sampled mode keeps the bounded-walk cost (the exhaustive skeleton
    // build would add ~hundreds of ms per model_check call on the larger
    // protocols); run lint_protocol / tools/scv_lint for definite verdicts.
    LintOptions lopt;
    lopt.mode = LintOptions::Mode::Sampled;
    lopt.observer = options.observer;
    const LintReport lint = lint_protocol(protocol, lopt);
    if (lint.has_errors()) {
      McResult result;
      result.verdict = McVerdict::LintRejected;
      result.reason = "lint precheck failed — " + lint.summary();
      for (const LintFinding& f : lint.findings) {
        if (f.severity == LintSeverity::Error) {
          result.reason += "; [" + to_string(f.rule) + "] " + f.message;
        }
      }
      return result;
    }
  }

  // Symmetry self-check: a declared symmetry is trusted only after the
  // protocol-level commutation check (the lint R6 rule's engine) and the
  // product-level one both pass; otherwise fall back to identity
  // canonicalization — a slower but sound exploration — and say why.
  McOptions opt = options;
  std::string symmetry_note;
  // Bounded preemption strips both reductions before their self-checks
  // spend time validating them: orbit canonicalization merges states whose
  // scheduling context (last processor, remaining budget) differs, and
  // ample deferral reorders exactly the processor alternation the budget
  // counts.  run_bfs re-derives the same gates defensively.
  const bool preemption_bounded =
      opt.observer.effective_model().bounded_preemption();
  if (preemption_bounded && opt.symmetry_reduction) {
    opt.symmetry_reduction = false;
    symmetry_note =
        "bounded preemption keys states by their scheduling context, which "
        "orbit canonicalization does not preserve; exploring without "
        "symmetry reduction";
  }
  const auto& pr = protocol.params();
  if (opt.symmetry_reduction && opt.symmetry_self_check &&
      protocol.processor_symmetric() && pr.procs >= 2 &&
      pr.procs <= ProcPerm::kMax) {
    const SymmetryCheckResult sym = check_processor_symmetry(protocol);
    std::string detail;
    if (!sym.ok) {
      detail = sym.detail;
    } else {
      product_symmetry_ok(protocol, opt, detail);
    }
    if (!detail.empty()) {
      opt.symmetry_reduction = false;
      symmetry_note =
          "declared processor symmetry failed the commutation self-check (" +
          detail + "); exploring without orbit canonicalization";
    }
  }

  // POR oracle selection: the protocol's declared hooks by default; the
  // verified static inference (DESIGN.md §15) when requested and usable.
  // An unusable inference falls back to the declared hooks (which may be
  // disabled — then POR is simply off), never to an unverified relation.
  DeclaredPorOracle declared(protocol);
  const PorOracle* oracle = &declared;
  std::unique_ptr<InferredPorOracle> inferred;
  std::string por_provenance = "declared";
  std::string por_note;
  if (preemption_bounded && opt.partial_order_reduction) {
    opt.partial_order_reduction = false;
    por_note =
        "bounded preemption counts processor alternation, which ample-set "
        "deferral reorders; exploring without partial-order reduction";
  }
  if (opt.partial_order_reduction && !opt.protocol_only &&
      opt.inferred_footprints) {
    inferred = std::make_unique<InferredPorOracle>(protocol);
    if (inferred->usable()) {
      oracle = inferred.get();
      por_provenance = "inferred";
    } else {
      por_note = "footprint inference unusable (" + inferred->note() +
                 "); falling back to the declared POR hooks";
    }
  }

  // POR self-check: the oracle's independence relation is trusted only
  // after the product-level commutation walk passes; otherwise fall back to
  // full expansion — slower but sound — and say why.  (The engine keeps
  // cross-validating ample sets on sampled reachable states during the
  // run; see run_bfs.)
  if (opt.partial_order_reduction && opt.por_self_check &&
      !opt.protocol_only && oracle->por_enabled()) {
    std::string detail;
    if (!product_por_ok(protocol, opt, *oracle, detail)) {
      opt.partial_order_reduction = false;
      por_note = por_provenance +
                 " independence failed the commutation self-check (" + detail +
                 "); exploring without partial-order reduction";
    }
  }

  McResult result = run_bfs(protocol, opt, *oracle);
  result.symmetry_note = std::move(symmetry_note);
  if (result.por_note.empty()) result.por_note = std::move(por_note);
  result.por_provenance = result.por_active ? por_provenance : "";
  return result;
}

}  // namespace scv
