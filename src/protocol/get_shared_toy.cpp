#include "protocol/get_shared_toy.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace scv {

GetSharedToy::GetSharedToy(std::size_t procs, std::size_t blocks,
                           std::size_t values, std::size_t slots_per_proc)
    : slots_(slots_per_proc) {
  SCV_EXPECTS(slots_per_proc >= 1);
  params_ = Params{procs, blocks, values,
                   /*locations=*/procs * slots_per_proc};
  validate_params(params_);
}

void GetSharedToy::initial_state(std::span<std::uint8_t> state) const {
  SCV_EXPECTS(state.size() == state_size());
  for (auto& x : state) x = 0;  // all slots empty
}

void GetSharedToy::enumerate(std::span<const std::uint8_t> state,
                             std::vector<Transition>& out) const {
  for (std::size_t p = 0; p < params_.procs; ++p) {
    for (std::size_t s = 0; s < slots_; ++s) {
      const LocId loc = slot_loc(p, s);
      const int blk = slot_block(state, loc);
      // Load from any local slot holding a block.
      if (blk >= 0) {
        Transition ld;
        ld.action = load_action(static_cast<ProcId>(p),
                                static_cast<BlockId>(blk),
                                slot_value(state, loc));
        ld.loc = loc;
        out.push_back(ld);
      }
      // Store any (block, value) into any local slot.
      for (std::size_t b = 0; b < params_.blocks; ++b) {
        for (std::size_t v = 1; v <= params_.values; ++v) {
          Transition st;
          st.action = store_action(static_cast<ProcId>(p),
                                   static_cast<BlockId>(b),
                                   static_cast<Value>(v));
          st.loc = loc;
          out.push_back(st);
        }
      }
    }
  }
  // Get-Shared(Q, B): copy another processor's view of B into a slot of Q,
  // provided Q currently has no view of B.
  for (std::size_t q = 0; q < params_.procs; ++q) {
    for (std::size_t b = 0; b < params_.blocks; ++b) {
      bool has_copy = false;
      for (std::size_t s = 0; s < slots_; ++s) {
        if (slot_block(state, slot_loc(q, s)) == static_cast<int>(b)) {
          has_copy = true;
        }
      }
      if (has_copy) continue;
      for (std::size_t p = 0; p < params_.procs; ++p) {
        if (p == q) continue;
        for (std::size_t s = 0; s < slots_; ++s) {
          const LocId src = slot_loc(p, s);
          if (slot_block(state, src) != static_cast<int>(b)) continue;
          for (std::size_t d = 0; d < slots_; ++d) {
            Transition gs;
            gs.action = internal_action(kGetShared,
                                        static_cast<std::uint8_t>(q),
                                        static_cast<std::uint8_t>(b));
            gs.action.arg1 = static_cast<std::uint8_t>(b);
            gs.copies.push_back(CopyEntry{slot_loc(q, d), src});
            out.push_back(gs);
          }
        }
      }
    }
  }
}

void GetSharedToy::apply(std::span<std::uint8_t> state,
                         const Transition& t) const {
  if (t.action.kind == Action::Kind::Store) {
    state[2 * t.loc] = static_cast<std::uint8_t>(t.action.op.block + 1);
    state[2 * t.loc + 1] = t.action.op.value;
  } else if (t.action.kind == Action::Kind::Internal) {
    SCV_EXPECTS(t.copies.size() == 1);
    const LocId dst = t.copies[0].dst;
    const LocId src = t.copies[0].src;
    state[2 * dst] = state[2 * src];
    state[2 * dst + 1] = state[2 * src + 1];
  }
}

bool GetSharedToy::could_load_bottom(std::span<const std::uint8_t>,
                                     BlockId) const {
  // Slots start empty, never ⊥-valued: a load of ⊥ is impossible.
  return false;
}

void GetSharedToy::permute_procs(std::span<std::uint8_t> state,
                                 const ProcPerm& perm) const {
  // The whole state is per-processor slot views, 2 bytes per slot.
  permute_proc_chunks(state, 0, 2 * slots_, perm);
}

LocId GetSharedToy::permute_loc(LocId loc, const ProcPerm& perm) const {
  return static_cast<LocId>(perm.to[loc / slots_] * slots_ + loc % slots_);
}

Action GetSharedToy::permute_action(const Action& a,
                                    const ProcPerm& perm) const {
  Action out = Protocol::permute_action(a, perm);
  if (!a.is_memory_op()) out.arg0 = perm(a.arg0);  // Get-Shared dest proc
  return out;
}

void GetSharedToy::proc_signature(std::span<const std::uint8_t> state,
                                  ProcId p, ByteWriter& w) const {
  w.bytes(state.subspan(2 * p * slots_, 2 * slots_));
}

std::uint32_t GetSharedToy::touched_procs(
    std::span<const std::uint8_t> /*state*/, const Transition& t) const {
  const Action& a = t.action;
  if (a.kind == Action::Kind::Load) return 0;
  if (a.kind == Action::Kind::Store) return 1u << a.op.proc;
  return 1u << a.arg0;  // Get-Shared(Q,B) fills a slot of Q
}

std::string GetSharedToy::action_name(const Action& a) const {
  if (a.is_memory_op()) return Protocol::action_name(a);
  std::ostringstream os;
  os << "Get-Shared(P" << (a.arg0 + 1) << ",B" << (a.arg1 + 1) << ")";
  return os.str();
}

}  // namespace scv
