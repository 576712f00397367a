// Per-processor FIFO store buffers in front of a shared memory.
//
// Stores enter the issuing processor's buffer and drain to memory later
// (internal Drain actions); loads read memory directly — and, in the
// forwarding variant, the newest buffered store to the same block first.
// Both variants violate sequential consistency (the classic store-buffering
// litmus: with both stores buffered, both processors load the other block's
// initial value), so these are the library's canonical *negative* examples:
// the verifier must produce a counterexample run whose constraint graph is
// cyclic via the ⊥-load forced edges of constraint 5(b).
//
// Locations: blocks 0..b-1 are the memory words; then per processor P and
// buffer depth slot d, location b + P*depth + d is buffer entry d (entry 0
// is the head; entries shift down on drain, expressed as copy labels).
#pragma once

#include "protocol/protocol.hpp"

namespace scv {

class WriteBuffer : public Protocol {
 public:
  /// `drain_order`: serialize stores at their Drain event (deferred ST
  /// order generator, Section 4.2) instead of at issue.  Under drain order
  /// the forwarding buffer is *coherent* (per-location SC) even though it
  /// is not SC — the memory-model ablation of the paper's Section 5.
  WriteBuffer(std::size_t procs, std::size_t blocks, std::size_t values,
              std::size_t depth, bool forwarding, bool drain_order = false);

  [[nodiscard]] std::string name() const override {
    return forwarding_ ? "WriteBufferFwd" : "WriteBuffer";
  }
  [[nodiscard]] const Params& params() const override { return params_; }
  [[nodiscard]] std::size_t state_size() const override;
  [[nodiscard]] bool real_time_st_order() const override {
    return !drain_order_;
  }
  /// Under a store→load-relaxed model the issue-order witness is wrong for
  /// this machine: stores reach memory in drain order, and pinning the ST
  /// order at issue manufactures cycles on runs that are fine (a load
  /// inheriting the later-drained store contradicts the issue-time STo
  /// edge).  Serialize at the Drain event instead; the SC/coherence
  /// witness — and with it every recorded SC counterexample — stays
  /// exactly as configured.
  [[nodiscard]] bool real_time_st_order(
      const MemoryModel& model) const override {
    return !drain_order_ && !model.rules().relax_store_load;
  }
  void initial_state(std::span<std::uint8_t> state) const override;
  void enumerate(std::span<const std::uint8_t> state,
                 std::vector<Transition>& out) const override;
  void apply(std::span<std::uint8_t> state,
             const Transition& t) const override;
  [[nodiscard]] bool could_load_bottom(std::span<const std::uint8_t> state,
                                       BlockId b) const override;
  [[nodiscard]] std::string action_name(const Action& a) const override;

  [[nodiscard]] bool processor_symmetric() const override { return true; }
  void permute_procs(std::span<std::uint8_t> state,
                     const ProcPerm& perm) const override;
  [[nodiscard]] LocId permute_loc(LocId loc,
                                  const ProcPerm& perm) const override;
  [[nodiscard]] Action permute_action(const Action& a,
                                      const ProcPerm& perm) const override;
  void proc_signature(std::span<const std::uint8_t> state, ProcId p,
                      ByteWriter& w) const override;
  /// Loads touch nothing; a ST and a Drain touch only their processor's
  /// buffer (the memory words are not part of any signature).
  [[nodiscard]] std::uint32_t touched_procs(
      std::span<const std::uint8_t> state, const Transition& t) const override;

  /// POR stays off for the write-buffer family.  All three variants are SC
  /// violators (or coherence-only), and their recorded counterexamples are
  /// byte-pinned by the trace tests; leaving them unreduced keeps those
  /// runs canonical.  Independence declarations for the drain pipeline are
  /// deferred (ROADMAP) — buffered STs and Drains chain through the same
  /// FIFO slots, so the honest relation is nearly empty anyway.
  [[nodiscard]] bool por_enabled() const override { return false; }

  static constexpr std::uint8_t kDrain = 1;  ///< internal action id

 private:
  // State layout: mem[blocks], then per proc: count, then depth*(block,val).
  [[nodiscard]] std::size_t proc_base(std::size_t p) const {
    return params_.blocks + p * (1 + 2 * depth_);
  }
  [[nodiscard]] LocId buffer_loc(std::size_t p, std::size_t d) const {
    return static_cast<LocId>(params_.blocks + p * depth_ + d);
  }

  Params params_;
  std::size_t depth_;
  bool forwarding_;
  bool drain_order_;
};

}  // namespace scv
