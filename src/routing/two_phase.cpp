#include "routing/two_phase.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/rng.h"

namespace mdmesh {
namespace {

/// Blocks whose centers are within D/2 + nu of both X's and Y's centers,
/// in increasing block id order.
std::vector<BlockId> MidpointBlocks(const BlockGrid& grid, BlockId X, BlockId Y,
                                    double reach) {
  std::vector<BlockId> s;
  for (BlockId w = 0; w < grid.num_blocks(); ++w) {
    if (grid.CenterDist(X, w) <= reach && grid.CenterDist(Y, w) <= reach) {
      s.push_back(w);
    }
  }
  return s;
}

}  // namespace

std::int64_t MinMidpointSetSize(const BlockGrid& grid, double nu) {
  const double reach =
      static_cast<double>(grid.topo().Diameter()) / 2.0 + nu;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (BlockId x = 0; x < grid.num_blocks(); ++x) {
    for (BlockId y = 0; y < grid.num_blocks(); ++y) {
      best = std::min(best, static_cast<std::int64_t>(
                                MidpointBlocks(grid, x, y, reach).size()));
    }
  }
  return best;
}

TwoPhaseResult RouteTwoPhase(const Topology& topo,
                             const std::vector<ProcId>& dest,
                             const TwoPhaseOptions& opts) {
  assert(dest.size() == static_cast<std::size_t>(topo.size()));
  BlockGrid grid(topo, opts.g);
  const std::int64_t m = grid.num_blocks();
  const std::int64_t B = grid.block_volume();
  const std::int64_t D = topo.Diameter();
  const int d = topo.dim();

  Span root = TraceContext::OpenIf(opts.trace, "two_phase");
  Span assign = TraceContext::OpenIf(opts.trace, "assign_midpoints");

  TwoPhaseResult result;
  result.nu_used =
      opts.nu >= 0.0
          ? opts.nu
          : (topo.torus() ? static_cast<double>(topo.side()) / 16.0
                          : static_cast<double>(topo.side()) / 2.0);
  const double reach = static_cast<double>(D) / 2.0 + result.nu_used;

  // Group sources by (source block, destination block). Sorting a flat list
  // keeps the grouping deterministic.
  struct Entry {
    std::int64_t key;  // X * m + Y
    ProcId src;
  };
  std::vector<Entry> entries;
  entries.reserve(dest.size());
  for (ProcId p = 0; p < topo.size(); ++p) {
    const BlockId X = grid.BlockOf(p);
    const BlockId Y = grid.BlockOf(dest[static_cast<std::size_t>(p)]);
    entries.push_back(Entry{X * m + Y, p});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.src < b.src;
  });

  Rng rng(opts.seed);
  Network net(topo);
  // Every processor sends one packet, and the fill below visits them in
  // block-pair order: take their queue blocks in processor order first,
  // so the dense sweep streams through them.
  for (ProcId p = 0; p < topo.size(); ++p) net.At(p);
  result.min_s_size = std::numeric_limits<std::int64_t>::max();

  // Deterministic within-block spreading: a rotating offset per midpoint
  // block, so packets funneled into the same block by different (X,Y)
  // groups occupy distinct positions. (The paper's deterministic variant
  // gets this balance from sort-and-unshuffle inside each block; a rotating
  // counter realizes the same even occupancy.)
  std::vector<std::int64_t> next_offset(static_cast<std::size_t>(m), 0);
  std::int64_t next_class = 0;

  std::size_t lo = 0;
  while (lo < entries.size()) {
    std::size_t hi = lo;
    while (hi < entries.size() && entries[hi].key == entries[lo].key) ++hi;
    const BlockId X = entries[lo].key / m;
    const BlockId Y = entries[lo].key % m;
    std::vector<BlockId> s = MidpointBlocks(grid, X, Y, reach);
    if (s.empty()) {
      // Degenerate geometry (tiny n with coarse blocks): fall back to the
      // blocks minimizing the max of the two distances so the run still
      // completes; min_s_size = 0 reports the infeasibility.
      double best = std::numeric_limits<double>::max();
      BlockId arg = 0;
      for (BlockId w = 0; w < m; ++w) {
        double v = std::max(grid.CenterDist(X, w), grid.CenterDist(Y, w));
        if (v < best) {
          best = v;
          arg = w;
        }
      }
      s.push_back(arg);
      result.min_s_size = 0;
    } else {
      result.min_s_size =
          std::min(result.min_s_size, static_cast<std::int64_t>(s.size()));
    }
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t r = t - lo;  // rank within the (X,Y) group
      BlockId mid;
      std::int64_t offset;
      if (opts.randomized) {
        mid = s[static_cast<std::size_t>(rng.Below(s.size()))];
        offset = static_cast<std::int64_t>(rng.Below(static_cast<std::uint64_t>(B)));
      } else {
        // Stagger each group's round-robin start so that small groups (the
        // common case for a random permutation: ~B/m packets per (X,Y))
        // don't all pile onto the first blocks of their midpoint sets.
        std::uint64_t stagger_state =
            static_cast<std::uint64_t>(entries[lo].key) * 0x9e3779b97f4a7c15ull;
        const std::size_t stagger =
            static_cast<std::size_t>(SplitMix64(stagger_state) % s.size());
        mid = s[(r + stagger) % s.size()];
        auto& rot = next_offset[static_cast<std::size_t>(mid)];
        offset = rot;
        rot = (rot + 1) % B;
      }
      Packet pkt;
      pkt.id = entries[t].src;
      pkt.key = static_cast<std::uint64_t>(entries[t].src);
      pkt.tag = static_cast<std::int64_t>(
          dest[static_cast<std::size_t>(entries[t].src)]);  // final dest
      pkt.dest = grid.ProcAt(mid, offset);
      pkt.klass = static_cast<std::uint16_t>(next_class);
      if (opts.overlap) pkt.flags |= Packet::kTwoLeg;
      next_class = (next_class + 1) % d;
      net.Add(entries[t].src, pkt);
    }
    lo = hi;
  }
  if (result.min_s_size == std::numeric_limits<std::int64_t>::max()) {
    result.min_s_size = 0;
  }

  assign.Close();

  Engine engine(topo, opts.engine);
  if (opts.overlap) {
    // Single run: packets retarget at their midpoints with no barrier.
    Span span = TraceContext::OpenIf(opts.trace, "overlapped_route");
    result.phase1 = engine.Route(net);
    result.phase1.RecordTo(span);
    result.total_steps = result.phase1.steps;
    result.max_queue = result.phase1.max_queue;
  } else {
    {
      Span span = TraceContext::OpenIf(opts.trace, "phase_a_route");
      result.phase1 = engine.Route(net);
      result.phase1.RecordTo(span);
    }
    // Phase 2: aim every packet at its final destination.
    net.ForEach([](ProcId, Packet& pkt) {
      pkt.dest = static_cast<ProcId>(pkt.tag);
    });
    {
      Span span = TraceContext::OpenIf(opts.trace, "phase_b_route");
      result.phase2 = engine.Route(net);
      result.phase2.RecordTo(span);
    }
    result.total_steps = result.phase1.steps + result.phase2.steps;
    result.max_queue =
        std::max(result.phase1.max_queue, result.phase2.max_queue);
  }

  bool ok = result.phase1.completed && result.phase2.completed;
  if (ok) {
    net.ForEach([&](ProcId p, Packet& pkt) {
      if (static_cast<ProcId>(pkt.tag) != p) ok = false;
    });
  }
  result.delivered = ok;
  return result;
}

}  // namespace mdmesh
