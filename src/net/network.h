// The algorithm-facing packet container: which packets sit at which
// processor between routing phases.
//
// Sorting algorithms alternate local phases (rank computations inside
// blocks, charged to the local cost model) with routing phases (executed by
// the engine). Network is the shared state: a per-processor queue of
// packets. Local phases mutate it directly; Engine::Route consumes and
// rebuilds it.
//
// Storage grows with the occupied processors, not with N. The directory is
// one 8-byte slot per processor: null for an empty processor, otherwise a
// pointer to a pooled PacketQueue block. Blocks never move once allocated,
// so a reference from At() stays valid while other processors allocate.
// The pool hands blocks out through lanes: one free list per engine worker,
// each grown from that lane's own chunks. During a Route pass only the
// worker that commits a processor touches its slot and block, taking from
// and giving back to its own lane, so the pass needs no locks and no
// atomics. Between passes the engine's coordinator evens out the lanes
// (BalanceLanes); everything else here (Add, At, Clear, copies) runs on
// the caller's thread and uses lane 0. A fresh pool hands out blocks in
// address order, so a Network filled in processor order keeps its queues
// in processor order, which is what the dense sweep over a nearly full
// mesh streams through.
//
// Occupancy counters: TotalPackets() and MaxQueue() are cached, not
// rescanned per call — phase spans and reports query them repeatedly and
// the O(N) sweeps used to dominate small-phase bookkeeping. The cache is
// invalidated by anything that hands out mutable queue access (non-const
// At(), slots(), EraseIf) and lazily recomputed on the next query; Add and
// Clear maintain it incrementally. Mutating packets in place (ForEach)
// cannot change occupancy and leaves the cache valid.
//
// Storage contract: Network is the ONLY packet container algorithms and
// tests see, and the engine routes on these queues in place. A packet in
// transit lives for one step in the engine's per-worker mailbox arena
// (net/engine.h); at every step boundary, and so whenever a Route or a
// checkpoint returns, every packet is back in exactly one queue here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "util/inline_vec.h"

namespace mdmesh {

/// One processor's queue, stored in a pooled block: small-buffer storage
/// sized for the multi-packet model's O(1) occupancy (measured maxima are
/// single digits almost everywhere; spills to the heap transparently
/// beyond 4).
using PacketQueue = InlineVec<Packet, 4>;

/// A free list of PacketQueue blocks plus the chunks it grew from. Take and
/// Give are for the lane's single owner at a time (see Network).
class alignas(64) QueueLane {
 public:
  /// Blocks per chunk a lane allocates when its free list runs dry.
  static constexpr std::size_t kChunk = 64;

  /// An empty block. Blocks of a fresh chunk come out in address order.
  PacketQueue* Take() {
    if (free_.empty()) Grow();
    PacketQueue* q = free_.back();
    free_.pop_back();
    return q;
  }
  /// Returns `q` to this lane's free list, emptied and back on its inline
  /// storage: a queue that spilled to the heap keeps no buffer once it is
  /// recycled.
  void Give(PacketQueue* q) {
    q->reset();
    free_.push_back(q);
  }

 private:
  friend class Network;
  void Grow();

  std::vector<PacketQueue*> free_;  // LIFO: a recycled block is still hot
  std::vector<std::unique_ptr<PacketQueue[]>> chunks_;
};

class Network {
 public:
  explicit Network(const Topology& topo);

  /// Copies are deep: the copy gets its own blocks, one per occupied
  /// processor, laid out in processor order.
  Network(const Network& other);
  Network& operator=(const Network& other);
  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  const Topology& topo() const { return *topo_; }

  void Add(ProcId at, Packet packet);
  /// Empties every queue and returns every block to the pool.
  void Clear();

  /// Mutable queue access; allocates a block for an empty processor. The
  /// reference stays valid until the queue's block is released (Clear,
  /// EraseIf or Scatter emptying it, or a Route). Invalidates the cached
  /// occupancy counters: the caller may push/pop packets directly, so the
  /// next TotalPackets() or MaxQueue() call rescans.
  PacketQueue& At(ProcId p) {
    counts_valid_ = false;
    PacketQueue*& q = slots_[static_cast<std::size_t>(p)];
    if (q == nullptr) q = lanes_[0].Take();
    return *q;
  }
  /// Read-only access; an empty processor reads as a shared empty queue.
  const PacketQueue& At(ProcId p) const {
    const PacketQueue* q = slots_[static_cast<std::size_t>(p)];
    return q != nullptr ? *q : kEmptyQueue;
  }

  /// Total resident packets / largest per-processor queue. O(1) while the
  /// cache is valid; one O(N) rescan after a mutable-access invalidation.
  std::int64_t TotalPackets() const {
    if (!counts_valid_) RecomputeCounts();
    return total_packets_;
  }
  std::int64_t MaxQueue() const {
    if (!counts_valid_) RecomputeCounts();
    return max_queue_;
  }

  /// Visits every (processor, packet) with fn(ProcId, Packet&), processor
  /// order then queue order. Statically dispatched (header-only): the
  /// callable is inlined into the loop, so per-packet visits cost no
  /// indirect call. In-place packet mutation cannot change occupancy, so
  /// the counter cache stays valid.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    const ProcId n = static_cast<ProcId>(slots_.size());
    for (ProcId p = 0; p < n; ++p) {
      PacketQueue* q = slots_[static_cast<std::size_t>(p)];
      if (q == nullptr) continue;
      for (Packet& pkt : *q) fn(p, pkt);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const ProcId n = static_cast<ProcId>(slots_.size());
    for (ProcId p = 0; p < n; ++p) {
      const PacketQueue* q = slots_[static_cast<std::size_t>(p)];
      if (q == nullptr) continue;
      for (const Packet& pkt : *q) fn(p, pkt);
    }
  }

  /// Removes every packet for which `pred(proc, packet)` returns true
  /// (e.g. packets parked on processors a FaultPlan declares dead). Queue
  /// order of the survivors is preserved, and a queue left empty gives its
  /// block back. Returns the number removed. Statically dispatched like
  /// ForEach; invalidates the counter cache.
  template <typename Pred>
  std::int64_t EraseIf(Pred&& pred) {
    std::int64_t removed = 0;
    const ProcId n = static_cast<ProcId>(slots_.size());
    for (ProcId p = 0; p < n; ++p) {
      PacketQueue*& slot = slots_[static_cast<std::size_t>(p)];
      if (slot == nullptr) continue;
      PacketQueue& q = *slot;
      std::size_t w = 0;
      for (std::size_t r = 0; r < q.size(); ++r) {
        if (pred(p, static_cast<const Packet&>(q[r]))) {
          ++removed;
          continue;
        }
        if (w != r) q[w] = q[r];
        ++w;
      }
      q.resize(w);
      if (w == 0) {
        lanes_[0].Give(slot);
        slot = nullptr;
      }
    }
    if (removed != 0) counts_valid_ = false;
    return removed;
  }

  /// Flattens to a single vector (processor order, then queue order).
  std::vector<Packet> Gather() const;

  /// Replaces the contents from (proc, packet) pairs.
  void Scatter(const std::vector<std::pair<ProcId, Packet>>& placed);

  /// Blocks the pool has allocated, and the ones holding a queue. A Route
  /// leaves exactly one live block per occupied processor.
  std::int64_t blocks_allocated() const;
  std::int64_t blocks_live() const;

  /// Engine access to the directory: N slots, null for an empty processor.
  /// Invalidates the cached occupancy counters like non-const At().
  PacketQueue** slots() {
    counts_valid_ = false;
    return slots_.data();
  }

  /// Engine access: moves queue contents between the occupied processors'
  /// blocks so that block addresses ascend with the processor ids, the
  /// order a dense sweep streams through. A fill in any other order, or a
  /// Route's recycling, leaves them out of order. O(N) when already in
  /// order; otherwise one sort of the occupied blocks.
  void LayOutInOrder();

  /// Engine access to the pool: makes sure there are at least `n` lanes
  /// (lane i serves worker i) and evens out the free lists of lanes
  /// [0, n), draining any lane past them. Call only between passes.
  QueueLane* BalanceLanes(std::size_t n);

 private:
  static const PacketQueue kEmptyQueue;

  void RecomputeCounts() const;

  const Topology* topo_;
  std::vector<PacketQueue*> slots_;
  std::vector<QueueLane> lanes_;
  mutable std::int64_t total_packets_ = 0;
  mutable std::int64_t max_queue_ = 0;
  mutable bool counts_valid_ = true;
};

}  // namespace mdmesh
