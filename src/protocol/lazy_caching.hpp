// The Lazy Caching protocol of Afek, Brown & Merritt (TOPLAS 1993), the
// paper's canonical example of a sequentially consistent protocol *without*
// the real-time ST ordering property (Section 4.2): the serialization order
// of stores is the order of memory-write events, not the order of the ST
// operations themselves.
//
// Structure per processor P: a full cache of all blocks, an out-queue of P's
// own pending writes, and an in-queue of updates to apply to the cache.
//
//   W  (= ST(P,B,V)): append (B,V) to out(P).
//   MW (memory-write): pop the head of out(P), write it to memory, and
//       append a copy to *every* processor's in-queue — *starred* in the
//       writer's own queue.  This is the moment the store is *serialized*
//       (serialize_loc tracking hint): every cache applies updates in
//       memory-write order, which is why that order is the correct ST order
//       (Section 4.2 of Condon & Hu).
//   MR (memory-read): append the current memory word of some block to
//       in(P) (a cache refresh travelling through the update queue).
//   CU (cache-update): pop the head of in(P) into cache(P).
//   R  (= LD(P,B,v)): read cache(P,B); enabled only when out(P) is empty and
//       in(P) holds no starred entries — i.e. all of P's own writes have
//       been serialized *and* applied locally, the condition that makes the
//       protocol sequentially consistent.
//
// Locations: cache (P,B) = P*b + B; memory word B = p*b + B; out-queue slot
// (P,d) = p*b + b + P*Do + d; in-queue slot (P,d) after those.  Queues shift
// on pop (expressed as copy labels), so slot 0 is always the head.
#pragma once

#include "protocol/protocol.hpp"

namespace scv {

class LazyCaching final : public Protocol {
 public:
  LazyCaching(std::size_t procs, std::size_t blocks, std::size_t values,
              std::size_t out_depth, std::size_t in_depth);

  [[nodiscard]] std::string name() const override { return "LazyCaching"; }
  [[nodiscard]] const Params& params() const override { return params_; }
  [[nodiscard]] std::size_t state_size() const override;
  void initial_state(std::span<std::uint8_t> state) const override;
  void enumerate(std::span<const std::uint8_t> state,
                 std::vector<Transition>& out) const override;
  void apply(std::span<std::uint8_t> state,
             const Transition& t) const override;
  [[nodiscard]] bool real_time_st_order() const override { return false; }
  [[nodiscard]] bool could_load_bottom(std::span<const std::uint8_t> state,
                                       BlockId b) const override;
  [[nodiscard]] std::string action_name(const Action& a) const override;

  /// Caches, queues and the MW broadcast treat processors uniformly; the
  /// star bit is relative to the queue's owner, so it moves with the queue.
  [[nodiscard]] bool processor_symmetric() const override { return true; }
  void permute_procs(std::span<std::uint8_t> state,
                     const ProcPerm& perm) const override;
  [[nodiscard]] LocId permute_loc(LocId loc,
                                  const ProcPerm& perm) const override;
  [[nodiscard]] Action permute_action(const Action& a,
                                      const ProcPerm& perm) const override;
  void proc_signature(std::span<const std::uint8_t> state, ProcId p,
                      ByteWriter& w) const override;
  /// Loads touch nothing; W, MR and CU touch their processor's rows; MW
  /// broadcasts into every in-queue and touches every processor.
  [[nodiscard]] std::uint32_t touched_procs(
      std::span<const std::uint8_t> state, const Transition& t) const override;

  /// POR stays off: MW broadcasts into every processor's in-queue and CU/MR
  /// chain through shared FIFO slots, so the honest independence relation is
  /// nearly empty, and the protocol's deferred ST order makes visibility
  /// subtle (loads gate on queue emptiness).  Declarations are deferred
  /// until the queue protocols get a slot-indexed footprint scheme (ROADMAP).
  [[nodiscard]] bool por_enabled() const override { return false; }

  static constexpr std::uint8_t kMemWrite = 1;
  static constexpr std::uint8_t kCacheUpdate = 2;
  static constexpr std::uint8_t kMemRead = 3;

  [[nodiscard]] LocId cache_loc(std::size_t p, std::size_t b) const {
    return static_cast<LocId>(p * params_.blocks + b);
  }
  [[nodiscard]] LocId mem_loc(std::size_t b) const {
    return static_cast<LocId>(params_.procs * params_.blocks + b);
  }
  [[nodiscard]] LocId out_loc(std::size_t p, std::size_t d) const {
    return static_cast<LocId>(params_.procs * params_.blocks +
                              params_.blocks + p * out_depth_ + d);
  }
  [[nodiscard]] LocId in_loc(std::size_t p, std::size_t d) const {
    return static_cast<LocId>(params_.procs * params_.blocks +
                              params_.blocks + params_.procs * out_depth_ +
                              p * in_depth_ + d);
  }

  // State accessors (public for tests).
  [[nodiscard]] std::uint8_t cache(std::span<const std::uint8_t> s,
                                   std::size_t p, std::size_t b) const {
    return s[p * params_.blocks + b];
  }
  [[nodiscard]] std::uint8_t memory(std::span<const std::uint8_t> s,
                                    std::size_t b) const {
    return s[params_.procs * params_.blocks + b];
  }
  [[nodiscard]] std::uint8_t out_count(std::span<const std::uint8_t> s,
                                       std::size_t p) const {
    return s[oq_off(p)];
  }
  [[nodiscard]] std::uint8_t in_count(std::span<const std::uint8_t> s,
                                      std::size_t p) const {
    return s[iq_off(p)];
  }
  [[nodiscard]] bool in_has_star(std::span<const std::uint8_t> s,
                                 std::size_t p) const;

 private:
  // Layout: cache[p*b], mem[b], then per P: out_count + Do*(blk,val),
  // then per P: in_count + Di*(blk,val,star).
  [[nodiscard]] std::size_t oq_off(std::size_t p) const {
    return params_.procs * params_.blocks + params_.blocks +
           p * (1 + 2 * out_depth_);
  }
  [[nodiscard]] std::size_t iq_off(std::size_t p) const {
    return params_.procs * params_.blocks + params_.blocks +
           params_.procs * (1 + 2 * out_depth_) + p * (1 + 3 * in_depth_);
  }

  Params params_;
  std::size_t out_depth_;
  std::size_t in_depth_;
};

}  // namespace scv
