// The "extremely simple protocol" of Figure 4: p processors with a few
// cache slots each; a ST writes a (block, value) view into any slot of the
// issuing processor, a LD reads any local slot holding the requested block,
// and Get-Shared(Q,B) copies another processor's view of B into a slot of Q.
//
// The paper uses this protocol to illustrate tracking labels and ST
// indexes (Figure 4).  Note that the protocol is *not* sequentially
// consistent: stale views linger in slots after newer stores, so a
// processor can load values out of order.  The test suite uses it both to
// reproduce Figure 4 exactly and as a negative input to the verifier.
//
// Locations: slot s of processor P is location P*slots + s.  Each location
// holds (block+1, value) or (0,0) when empty.
#pragma once

#include "protocol/protocol.hpp"

namespace scv {

class GetSharedToy final : public Protocol {
 public:
  GetSharedToy(std::size_t procs, std::size_t blocks, std::size_t values,
               std::size_t slots_per_proc);

  [[nodiscard]] std::string name() const override { return "GetSharedToy"; }
  [[nodiscard]] const Params& params() const override { return params_; }
  [[nodiscard]] std::size_t state_size() const override {
    return 2 * params_.locations;
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
  /// Loads touch nothing; a ST and a Get-Shared write one slot of the
  /// issuing (resp. receiving) processor.
  [[nodiscard]] std::uint32_t touched_procs(
      std::span<const std::uint8_t> state, const Transition& t) const override;

  /// Enabled with the conservative base-class declarations: LD/ST carry
  /// copies or overwrite shared slots, and Get-Shared reads a remote slot,
  /// so every transition keeps the everything-conflicts default footprint
  /// and ample sets degenerate to full expansion.  That is intentional —
  /// the protocol violates SC, and reducing it with a sloppy relation would
  /// risk losing the Figure 4 counterexample the tests pin down.
  [[nodiscard]] bool por_enabled() const override { return true; }

  static constexpr std::uint8_t kGetShared = 1;

  [[nodiscard]] LocId slot_loc(std::size_t p, std::size_t s) const {
    return static_cast<LocId>(p * slots_ + s);
  }
  /// Block stored in a location (or -1 if empty) and its value.
  [[nodiscard]] int slot_block(std::span<const std::uint8_t> st,
                               LocId loc) const {
    return static_cast<int>(st[2 * loc]) - 1;
  }
  [[nodiscard]] Value slot_value(std::span<const std::uint8_t> st,
                                 LocId loc) const {
    return st[2 * loc + 1];
  }
  [[nodiscard]] std::size_t slots_per_proc() const noexcept { return slots_; }

 private:
  Params params_;
  std::size_t slots_;
};

}  // namespace scv
