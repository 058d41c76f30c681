// The algorithm-facing packet container: which packets sit at which
// processor between routing phases.
//
// Sorting algorithms alternate local phases (rank computations inside
// blocks, charged to the local cost model) with routing phases (executed by
// the engine). Network is the shared state: a per-processor queue of
// packets. Local phases mutate it directly; Engine::Route consumes and
// rebuilds it.
//
// Occupancy counters: TotalPackets() and MaxQueue() are cached, not
// rescanned per call — phase spans and reports query them repeatedly and
// the O(N) sweeps used to dominate small-phase bookkeeping. The cache is
// invalidated by anything that hands out mutable queue access (non-const
// At(), queues(), EraseIf) and lazily recomputed on the next query; Add and
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
#include <vector>

#include "net/packet.h"
#include "util/inline_vec.h"

namespace mdmesh {

/// Per-processor queue: small-buffer storage sized for the multi-packet
/// model's O(1) occupancy (measured maxima are single digits almost
/// everywhere; spills to the heap transparently beyond 4).
using PacketQueue = InlineVec<Packet, 4>;

class Network {
 public:
  explicit Network(const Topology& topo);

  const Topology& topo() const { return *topo_; }

  void Add(ProcId at, Packet packet);
  void Clear();

  /// Mutable queue access. Invalidates the cached occupancy counters: the
  /// caller may push/pop packets directly, so the next TotalPackets() or
  /// MaxQueue() call rescans.
  PacketQueue& At(ProcId p) {
    counts_valid_ = false;
    return queues_[static_cast<std::size_t>(p)];
  }
  const PacketQueue& At(ProcId p) const {
    return queues_[static_cast<std::size_t>(p)];
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

  /// Visits every (processor, packet) with fn(ProcId, Packet&). Statically
  /// dispatched (header-only): the callable is inlined into the loop, so
  /// per-packet visits cost no indirect call. In-place packet mutation
  /// cannot change occupancy, so the counter cache stays valid.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    const ProcId n = static_cast<ProcId>(queues_.size());
    for (ProcId p = 0; p < n; ++p) {
      for (Packet& pkt : queues_[static_cast<std::size_t>(p)]) fn(p, pkt);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const ProcId n = static_cast<ProcId>(queues_.size());
    for (ProcId p = 0; p < n; ++p) {
      for (const Packet& pkt : queues_[static_cast<std::size_t>(p)]) {
        fn(p, pkt);
      }
    }
  }

  /// Removes every packet for which `pred(proc, packet)` returns true
  /// (e.g. packets parked on processors a FaultPlan declares dead). Queue
  /// order of the survivors is preserved. Returns the number removed.
  /// Statically dispatched like ForEach; invalidates the counter cache.
  template <typename Pred>
  std::int64_t EraseIf(Pred&& pred) {
    std::int64_t removed = 0;
    const ProcId n = static_cast<ProcId>(queues_.size());
    for (ProcId p = 0; p < n; ++p) {
      auto& q = queues_[static_cast<std::size_t>(p)];
      std::size_t w = 0;
      for (std::size_t r = 0; r < q.size(); ++r) {
        if (pred(p, static_cast<const Packet&>(q[r]))) {
          ++removed;
          continue;
        }
        if (w != r) q[w] = q[r];
        ++w;
      }
      while (q.size() > w) q.pop_back();
    }
    if (removed != 0) counts_valid_ = false;
    return removed;
  }

  /// Flattens to a single vector (processor order, then queue order).
  std::vector<Packet> Gather() const;

  /// Replaces the contents from (proc, packet) pairs.
  void Scatter(const std::vector<std::pair<ProcId, Packet>>& placed);

  /// Internal access for the engine (swap-based queue rebuild). Invalidates
  /// the cached occupancy counters like non-const At().
  std::vector<PacketQueue>& queues() {
    counts_valid_ = false;
    return queues_;
  }

 private:
  void RecomputeCounts() const;

  const Topology* topo_;
  std::vector<PacketQueue> queues_;
  mutable std::int64_t total_packets_ = 0;
  mutable std::int64_t max_queue_ = 0;
  mutable bool counts_valid_ = true;
};

}  // namespace mdmesh
