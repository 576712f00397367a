#include "protocol/lazy_caching.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace scv {

LazyCaching::LazyCaching(std::size_t procs, std::size_t blocks,
                         std::size_t values, std::size_t out_depth,
                         std::size_t in_depth)
    : out_depth_(out_depth), in_depth_(in_depth) {
  SCV_EXPECTS(out_depth >= 1 && in_depth >= 1);
  params_ = Params{
      procs, blocks, values,
      /*locations=*/procs * blocks + blocks + procs * out_depth +
          procs * in_depth};
  validate_params(params_);
}

std::size_t LazyCaching::state_size() const {
  return params_.procs * params_.blocks + params_.blocks +
         params_.procs * (1 + 2 * out_depth_) +
         params_.procs * (1 + 3 * in_depth_);
}

void LazyCaching::initial_state(std::span<std::uint8_t> state) const {
  SCV_EXPECTS(state.size() == state_size());
  for (auto& x : state) x = 0;  // caches/memory ⊥, queues empty
}

bool LazyCaching::in_has_star(std::span<const std::uint8_t> s,
                              std::size_t p) const {
  const std::size_t base = iq_off(p);
  const std::uint8_t count = s[base];
  for (std::size_t d = 0; d < count; ++d) {
    if (s[base + 1 + 3 * d + 2] != 0) return true;
  }
  return false;
}

void LazyCaching::enumerate(std::span<const std::uint8_t> state,
                            std::vector<Transition>& out) const {
  for (std::size_t p = 0; p < params_.procs; ++p) {
    const std::size_t ob = oq_off(p);
    const std::size_t ib = iq_off(p);
    const std::uint8_t oc = state[ob];
    const std::uint8_t ic = state[ib];

    // R: reads allowed only once the processor's own writes are globally
    // serialized (out empty) and locally applied (no starred entries).
    if (oc == 0 && !in_has_star(state, p)) {
      for (std::size_t b = 0; b < params_.blocks; ++b) {
        Transition ld;
        ld.action = load_action(static_cast<ProcId>(p),
                                static_cast<BlockId>(b), cache(state, p, b));
        ld.loc = cache_loc(p, b);
        out.push_back(ld);
      }
    }
    // W: append to the out-queue.
    if (oc < out_depth_) {
      for (std::size_t b = 0; b < params_.blocks; ++b) {
        for (std::size_t v = 1; v <= params_.values; ++v) {
          Transition st;
          st.action = store_action(static_cast<ProcId>(p),
                                   static_cast<BlockId>(b),
                                   static_cast<Value>(v));
          st.loc = out_loc(p, oc);
          out.push_back(st);
        }
      }
    }
    // MW: serialize the head of the out-queue.  The update is broadcast to
    // every processor's in-queue (starred in the writer's own), so room is
    // needed everywhere.
    if (oc > 0) {
      bool room = true;
      for (std::size_t q = 0; q < params_.procs; ++q) {
        if (in_count(state, q) >= in_depth_) room = false;
      }
      if (room) {
        Transition mw;
        mw.action = internal_action(kMemWrite, static_cast<std::uint8_t>(p));
        const BlockId head_block = state[ob + 1];
        mw.serialize_loc = out_loc(p, 0);
        mw.copies.push_back(CopyEntry{mem_loc(head_block), out_loc(p, 0)});
        for (std::size_t q = 0; q < params_.procs; ++q) {
          mw.copies.push_back(
              CopyEntry{in_loc(q, in_count(state, q)), out_loc(p, 0)});
        }
        for (std::size_t d = 1; d < oc; ++d) {
          mw.copies.push_back(CopyEntry{out_loc(p, d - 1), out_loc(p, d)});
        }
        mw.copies.push_back(CopyEntry{out_loc(p, oc - 1), kClearSrc});
        out.push_back(mw);
      }
    }
    // MR: refresh some block from memory through the in-queue.  Enabled
    // only on an empty in-queue — a refresh while updates are pending is
    // pointless and, in a random walk, floods the queue and starves the
    // memory-writes that need room everywhere.
    if (ic == 0) {
      for (std::size_t b = 0; b < params_.blocks; ++b) {
        Transition mr;
        mr.action = internal_action(kMemRead, static_cast<std::uint8_t>(p),
                                    static_cast<std::uint8_t>(b));
        mr.copies.push_back(CopyEntry{in_loc(p, ic), mem_loc(b)});
        out.push_back(mr);
      }
    }
    // CU: apply the head of the in-queue to the cache.
    if (ic > 0) {
      Transition cu;
      cu.action = internal_action(kCacheUpdate, static_cast<std::uint8_t>(p));
      const BlockId head_block = state[ib + 1];
      cu.copies.push_back(CopyEntry{cache_loc(p, head_block), in_loc(p, 0)});
      for (std::size_t d = 1; d < ic; ++d) {
        cu.copies.push_back(CopyEntry{in_loc(p, d - 1), in_loc(p, d)});
      }
      cu.copies.push_back(CopyEntry{in_loc(p, ic - 1), kClearSrc});
      out.push_back(cu);
    }
  }
}

void LazyCaching::apply(std::span<std::uint8_t> state,
                        const Transition& t) const {
  const Action& a = t.action;
  if (a.kind == Action::Kind::Load) return;
  if (a.kind == Action::Kind::Store) {
    const std::size_t p = a.op.proc;
    const std::size_t ob = oq_off(p);
    const std::uint8_t oc = state[ob];
    SCV_EXPECTS(oc < out_depth_);
    state[ob + 1 + 2 * oc] = a.op.block;
    state[ob + 1 + 2 * oc + 1] = a.op.value;
    state[ob] = oc + 1;
    return;
  }

  const std::size_t p = a.arg0;
  if (a.internal_id == kMemWrite) {
    const std::size_t ob = oq_off(p);
    const std::uint8_t oc = state[ob];
    SCV_EXPECTS(oc > 0);
    const BlockId blk = state[ob + 1];
    const Value val = state[ob + 2];
    state[params_.procs * params_.blocks + blk] = val;  // memory
    for (std::size_t q = 0; q < params_.procs; ++q) {
      const std::size_t ib = iq_off(q);
      const std::uint8_t ic = state[ib];
      SCV_EXPECTS(ic < in_depth_);
      state[ib + 1 + 3 * ic] = blk;
      state[ib + 1 + 3 * ic + 1] = val;
      state[ib + 1 + 3 * ic + 2] = (q == p) ? 1 : 0;  // star own update
      state[ib] = ic + 1;
    }
    for (std::size_t d = 1; d < oc; ++d) {
      state[ob + 1 + 2 * (d - 1)] = state[ob + 1 + 2 * d];
      state[ob + 1 + 2 * (d - 1) + 1] = state[ob + 1 + 2 * d + 1];
    }
    state[ob + 1 + 2 * (oc - 1)] = 0;
    state[ob + 1 + 2 * (oc - 1) + 1] = 0;
    state[ob] = oc - 1;
    return;
  }
  if (a.internal_id == kMemRead) {
    const std::size_t ib = iq_off(p);
    const std::uint8_t ic = state[ib];
    SCV_EXPECTS(ic < in_depth_);
    const BlockId blk = a.arg1;
    state[ib + 1 + 3 * ic] = blk;
    state[ib + 1 + 3 * ic + 1] =
        state[params_.procs * params_.blocks + blk];
    state[ib + 1 + 3 * ic + 2] = 0;
    state[ib] = ic + 1;
    return;
  }
  if (a.internal_id == kCacheUpdate) {
    const std::size_t ib = iq_off(p);
    const std::uint8_t ic = state[ib];
    SCV_EXPECTS(ic > 0);
    const BlockId blk = state[ib + 1];
    state[p * params_.blocks + blk] = state[ib + 2];  // cache
    for (std::size_t d = 1; d < ic; ++d) {
      state[ib + 1 + 3 * (d - 1)] = state[ib + 1 + 3 * d];
      state[ib + 1 + 3 * (d - 1) + 1] = state[ib + 1 + 3 * d + 1];
      state[ib + 1 + 3 * (d - 1) + 2] = state[ib + 1 + 3 * d + 2];
    }
    state[ib + 1 + 3 * (ic - 1)] = 0;
    state[ib + 1 + 3 * (ic - 1) + 1] = 0;
    state[ib + 1 + 3 * (ic - 1) + 2] = 0;
    state[ib] = ic - 1;
    return;
  }
  SCV_UNREACHABLE("unknown LazyCaching internal action");
}

bool LazyCaching::could_load_bottom(std::span<const std::uint8_t> state,
                                    BlockId b) const {
  // Loads read caches only.  A cache word can be ⊥ now, or become ⊥ again
  // via an in-flight memory-read of a still-⊥ memory word.
  for (std::size_t p = 0; p < params_.procs; ++p) {
    if (cache(state, p, b) == kBottom) return true;
    const std::size_t ib = iq_off(p);
    const std::uint8_t ic = state[ib];
    for (std::size_t d = 0; d < ic; ++d) {
      if (state[ib + 1 + 3 * d] == b &&
          state[ib + 1 + 3 * d + 1] == kBottom) {
        return true;
      }
    }
  }
  return false;
}

void LazyCaching::permute_procs(std::span<std::uint8_t> state,
                                const ProcPerm& perm) const {
  // Three contiguous per-processor regions move as wholes: the cache rows,
  // the out-queues, and the in-queues.  Memory words are shared.  In-queue
  // star bits are relative to the queue's owner ("this entry is my own
  // write"), a relation preserved by renaming both sides consistently.
  permute_proc_chunks(state, 0, params_.blocks, perm);
  permute_proc_chunks(state, oq_off(0), 1 + 2 * out_depth_, perm);
  permute_proc_chunks(state, iq_off(0), 1 + 3 * in_depth_, perm);
}

LocId LazyCaching::permute_loc(LocId loc, const ProcPerm& perm) const {
  const std::size_t pb = params_.procs * params_.blocks;
  if (loc < pb) {  // cache entry (P,B)
    return static_cast<LocId>(perm.to[loc / params_.blocks] * params_.blocks +
                              loc % params_.blocks);
  }
  if (loc < pb + params_.blocks) return loc;  // memory word
  const std::size_t out_base = pb + params_.blocks;
  const std::size_t in_base = out_base + params_.procs * out_depth_;
  if (loc < in_base) {  // out-queue slot (P,d)
    const std::size_t rel = loc - out_base;
    return static_cast<LocId>(out_base + perm.to[rel / out_depth_] *
                                             out_depth_ + rel % out_depth_);
  }
  const std::size_t rel = loc - in_base;  // in-queue slot (P,d)
  return static_cast<LocId>(in_base + perm.to[rel / in_depth_] * in_depth_ +
                            rel % in_depth_);
}

Action LazyCaching::permute_action(const Action& a,
                                   const ProcPerm& perm) const {
  Action out = Protocol::permute_action(a, perm);
  if (!a.is_memory_op()) out.arg0 = perm(a.arg0);  // MW/MR/CU all carry P
  return out;
}

void LazyCaching::proc_signature(std::span<const std::uint8_t> state,
                                 ProcId p, ByteWriter& w) const {
  w.bytes(state.subspan(p * params_.blocks, params_.blocks));
  w.bytes(state.subspan(oq_off(p), 1 + 2 * out_depth_));
  w.bytes(state.subspan(iq_off(p), 1 + 3 * in_depth_));
}

std::uint32_t LazyCaching::touched_procs(
    std::span<const std::uint8_t> /*state*/, const Transition& t) const {
  const Action& a = t.action;
  if (a.kind == Action::Kind::Load) return 0;
  if (a.kind == Action::Kind::Store) return 1u << a.op.proc;  // out-queue
  if (a.internal_id == kMemWrite) return ~0u;  // lands in every in-queue
  return 1u << a.arg0;  // MR appends to, CU pops, the processor's in-queue
}

std::string LazyCaching::action_name(const Action& a) const {
  if (a.is_memory_op()) return Protocol::action_name(a);
  std::ostringstream os;
  switch (a.internal_id) {
    case kMemWrite:
      os << "MemWrite(P" << (a.arg0 + 1) << ")";
      break;
    case kMemRead:
      os << "MemRead(P" << (a.arg0 + 1) << ",B" << (a.arg1 + 1) << ")";
      break;
    default:
      os << "CacheUpdate(P" << (a.arg0 + 1) << ")";
  }
  return os.str();
}

}  // namespace scv
