#include "protocol/write_buffer.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace scv {

WriteBuffer::WriteBuffer(std::size_t procs, std::size_t blocks,
                         std::size_t values, std::size_t depth,
                         bool forwarding, bool drain_order)
    : depth_(depth), forwarding_(forwarding), drain_order_(drain_order) {
  SCV_EXPECTS(depth >= 1);
  params_ = Params{procs, blocks, values,
                   /*locations=*/blocks + procs * depth};
  validate_params(params_);
}

std::size_t WriteBuffer::state_size() const {
  return params_.blocks + params_.procs * (1 + 2 * depth_);
}

void WriteBuffer::initial_state(std::span<std::uint8_t> state) const {
  SCV_EXPECTS(state.size() == state_size());
  for (auto& b : state) b = 0;  // memory = ⊥, all buffers empty
}

void WriteBuffer::enumerate(std::span<const std::uint8_t> state,
                            std::vector<Transition>& out) const {
  for (std::size_t p = 0; p < params_.procs; ++p) {
    const std::size_t base = proc_base(p);
    const std::uint8_t count = state[base];

    for (std::size_t b = 0; b < params_.blocks; ++b) {
      // Load: newest buffered entry for b if forwarding, else memory.
      bool forwarded = false;
      if (forwarding_) {
        for (std::size_t d = count; d-- > 0;) {
          if (state[base + 1 + 2 * d] == b) {
            Transition ld;
            ld.action = load_action(static_cast<ProcId>(p),
                                    static_cast<BlockId>(b),
                                    state[base + 1 + 2 * d + 1]);
            ld.loc = buffer_loc(p, d);
            out.push_back(ld);
            forwarded = true;
            break;
          }
        }
      }
      if (!forwarded) {
        Transition ld;
        ld.action = load_action(static_cast<ProcId>(p),
                                static_cast<BlockId>(b), state[b]);
        ld.loc = static_cast<LocId>(b);
        out.push_back(ld);
      }
      // Store: append to the buffer if there is room.
      if (count < depth_) {
        for (std::size_t v = 1; v <= params_.values; ++v) {
          Transition st;
          st.action = store_action(static_cast<ProcId>(p),
                                   static_cast<BlockId>(b),
                                   static_cast<Value>(v));
          st.loc = buffer_loc(p, count);
          out.push_back(st);
        }
      }
    }

    // Drain: pop the head entry into memory; remaining entries shift down.
    if (count > 0) {
      Transition dr;
      dr.action = internal_action(kDrain, static_cast<std::uint8_t>(p));
      // Always emitted: the observer consults the hint only when the
      // witness for the model being checked defers serialization to the
      // drain (drain_order_, or any store→load-relaxed model).
      dr.serialize_loc = buffer_loc(p, 0);
      const BlockId head_block = state[base + 1];
      dr.copies.push_back(CopyEntry{static_cast<LocId>(head_block),
                                    buffer_loc(p, 0)});
      for (std::size_t d = 1; d < count; ++d) {
        dr.copies.push_back(CopyEntry{buffer_loc(p, d - 1), buffer_loc(p, d)});
      }
      // The vacated tail slot no longer tracks any store.
      dr.copies.push_back(CopyEntry{buffer_loc(p, count - 1), kClearSrc});
      out.push_back(dr);
    }
  }
}

void WriteBuffer::apply(std::span<std::uint8_t> state,
                        const Transition& t) const {
  if (t.action.kind == Action::Kind::Store) {
    const std::size_t p = t.action.op.proc;
    const std::size_t base = proc_base(p);
    const std::uint8_t count = state[base];
    SCV_EXPECTS(count < depth_);
    state[base + 1 + 2 * count] = t.action.op.block;
    state[base + 1 + 2 * count + 1] = t.action.op.value;
    state[base] = count + 1;
  } else if (t.action.kind == Action::Kind::Internal) {
    SCV_EXPECTS(t.action.internal_id == kDrain);
    const std::size_t p = t.action.arg0;
    const std::size_t base = proc_base(p);
    const std::uint8_t count = state[base];
    SCV_EXPECTS(count > 0);
    state[state[base + 1]] = state[base + 2];  // mem[block] = value
    for (std::size_t d = 1; d < count; ++d) {
      state[base + 1 + 2 * (d - 1)] = state[base + 1 + 2 * d];
      state[base + 1 + 2 * (d - 1) + 1] = state[base + 1 + 2 * d + 1];
    }
    state[base + 1 + 2 * (count - 1)] = 0;
    state[base + 1 + 2 * (count - 1) + 1] = 0;
    state[base] = count - 1;
  }
  // Loads leave the state unchanged.
}

bool WriteBuffer::could_load_bottom(std::span<const std::uint8_t> state,
                                    BlockId b) const {
  // Loads read memory (buffered entries are never ⊥), so ⊥ is loadable
  // exactly while the memory word is still ⊥.
  return state[b] == kBottom;
}

void WriteBuffer::permute_procs(std::span<std::uint8_t> state,
                                const ProcPerm& perm) const {
  // Per-processor chunk: the buffer count plus depth*(block,value) slots;
  // the leading memory words are shared.
  permute_proc_chunks(state, params_.blocks, 1 + 2 * depth_, perm);
}

LocId WriteBuffer::permute_loc(LocId loc, const ProcPerm& perm) const {
  if (loc < params_.blocks) return loc;  // memory word
  const std::size_t rel = loc - params_.blocks;
  return static_cast<LocId>(params_.blocks +
                            perm.to[rel / depth_] * depth_ + rel % depth_);
}

Action WriteBuffer::permute_action(const Action& a,
                                   const ProcPerm& perm) const {
  Action out = Protocol::permute_action(a, perm);
  if (!a.is_memory_op()) out.arg0 = perm(a.arg0);  // Drain(P)
  return out;
}

void WriteBuffer::proc_signature(std::span<const std::uint8_t> state,
                                 ProcId p, ByteWriter& w) const {
  w.bytes(state.subspan(proc_base(p), 1 + 2 * depth_));
}

std::uint32_t WriteBuffer::touched_procs(
    std::span<const std::uint8_t> /*state*/, const Transition& t) const {
  const Action& a = t.action;
  if (a.kind == Action::Kind::Load) return 0;
  if (a.kind == Action::Kind::Store) return 1u << a.op.proc;
  return 1u << a.arg0;  // Drain(P) pops P's buffer into shared memory
}

std::string WriteBuffer::action_name(const Action& a) const {
  if (a.is_memory_op()) return Protocol::action_name(a);
  std::ostringstream os;
  os << "Drain(P" << (a.arg0 + 1) << ")";
  return os.str();
}

}  // namespace scv
