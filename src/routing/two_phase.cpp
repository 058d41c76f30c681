#include "routing/two_phase.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/rng.h"

namespace mdmesh {
namespace {

/// S_nu(X, Y) for every block pair, as bit rows. Bit w of row X is set when
/// block w's center lies within `reach` of X's center, so S(X, Y) is
/// row X AND row Y, in increasing block order. The centers are decoded once
/// per block, and distances use BlockGrid::CenterDist's arithmetic, in the
/// same order, so every membership test agrees with it exactly.
class MidpointRows {
 public:
  MidpointRows(const BlockGrid& grid, double reach)
      : d_(grid.topo().dim()),
        n_(grid.topo().side()),
        torus_(grid.topo().torus()),
        m_(grid.num_blocks()),
        words_((m_ + 63) / 64),
        centers_(static_cast<std::size_t>(m_ * d_)),
        rows_(static_cast<std::size_t>(m_ * words_), 0),
        set_(static_cast<std::size_t>(words_), 0) {
    for (BlockId w = 0; w < m_; ++w) {
      const auto c = grid.BlockCenter(w);
      std::copy(c.begin(), c.begin() + d_, centers_.begin() + w * d_);
    }
    for (BlockId x = 0; x < m_; ++x) {
      for (BlockId w = 0; w < m_; ++w) {
        if (Dist(x, w) <= reach) {
          rows_[static_cast<std::size_t>(x * words_ + w / 64)] |=
              std::uint64_t{1} << (w % 64);
        }
      }
    }
  }

  /// BlockGrid::CenterDist(a, b), from the center table.
  double Dist(BlockId a, BlockId b) const {
    const double* ca = &centers_[static_cast<std::size_t>(a * d_)];
    const double* cb = &centers_[static_cast<std::size_t>(b * d_)];
    double total = 0.0;
    for (int i = 0; i < d_; ++i) {
      double diff = std::abs(ca[i] - cb[i]);
      if (torus_) diff = std::min(diff, n_ - diff);
      total += diff;
    }
    return total;
  }

  /// Loads S(X, Y) for Select and returns |S(X, Y)|.
  std::int64_t Load(BlockId x, BlockId y) {
    const std::uint64_t* rx = &rows_[static_cast<std::size_t>(x * words_)];
    const std::uint64_t* ry = &rows_[static_cast<std::size_t>(y * words_)];
    std::int64_t count = 0;
    for (std::int64_t i = 0; i < words_; ++i) {
      set_[static_cast<std::size_t>(i)] = rx[i] & ry[i];
      count += std::popcount(set_[static_cast<std::size_t>(i)]);
    }
    return count;
  }

  /// Loads the set {w} for Select.
  void LoadOne(BlockId w) {
    std::fill(set_.begin(), set_.end(), 0);
    set_[static_cast<std::size_t>(w / 64)] = std::uint64_t{1} << (w % 64);
  }

  /// The k-th block of the set last loaded, counting from 0 in increasing
  /// block order; requires k < its size.
  BlockId Select(std::int64_t k) const {
    for (std::int64_t i = 0;; ++i) {
      std::uint64_t word = set_[static_cast<std::size_t>(i)];
      const int count = std::popcount(word);
      if (k < count) {
        for (; k > 0; --k) word &= word - 1;
        return i * 64 + std::countr_zero(word);
      }
      k -= count;
    }
  }

 private:
  int d_;
  int n_;
  bool torus_;
  std::int64_t m_;
  std::int64_t words_;              // 64-bit words per row
  std::vector<double> centers_;     // m x d block centers
  std::vector<std::uint64_t> rows_; // m rows of words_ words
  std::vector<std::uint64_t> set_;  // the set Load last formed
};

double Reach(const Topology& topo, double nu) {
  return static_cast<double>(topo.Diameter()) / 2.0 + nu;
}

}  // namespace

std::int64_t MinMidpointSetSize(const BlockGrid& grid, double nu) {
  MidpointRows rows(grid, Reach(grid.topo(), nu));
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (BlockId x = 0; x < grid.num_blocks(); ++x) {
    for (BlockId y = 0; y < grid.num_blocks(); ++y) {
      best = std::min(best, rows.Load(x, y));
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
  const int d = topo.dim();

  Span root = TraceContext::OpenIf(opts.trace, "two_phase");
  Span assign = TraceContext::OpenIf(opts.trace, "assign_midpoints");

  TwoPhaseResult result;
  result.nu_used =
      opts.nu >= 0.0
          ? opts.nu
          : (topo.torus() ? static_cast<double>(topo.side()) / 16.0
                          : static_cast<double>(topo.side()) / 2.0);

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
  // Built after the network fill: built before the grouping buffer, its
  // three small allocations raised route_perm's peak RSS by 3% on one
  // benchmark seed through heap placement alone.
  MidpointRows rows(grid, Reach(topo, result.nu_used));

  std::size_t lo = 0;
  while (lo < entries.size()) {
    std::size_t hi = lo;
    while (hi < entries.size() && entries[hi].key == entries[lo].key) ++hi;
    const BlockId X = entries[lo].key / m;
    const BlockId Y = entries[lo].key % m;
    std::int64_t size = rows.Load(X, Y);
    if (size == 0) {
      // Degenerate geometry (tiny n with coarse blocks): fall back to the
      // block minimizing the max of the two distances so the run still
      // completes; min_s_size = 0 reports the infeasibility.
      double best = std::numeric_limits<double>::max();
      BlockId arg = 0;
      for (BlockId w = 0; w < m; ++w) {
        double v = std::max(rows.Dist(X, w), rows.Dist(Y, w));
        if (v < best) {
          best = v;
          arg = w;
        }
      }
      rows.LoadOne(arg);
      size = 1;
      result.min_s_size = 0;
    } else {
      result.min_s_size = std::min(result.min_s_size, size);
    }
    // Stagger each group's round-robin start so that small groups (the
    // common case for a random permutation: ~B/m packets per (X,Y)) don't
    // all pile onto the first blocks of their midpoint sets.
    std::uint64_t stagger_state =
        static_cast<std::uint64_t>(entries[lo].key) * 0x9e3779b97f4a7c15ull;
    const auto stagger = static_cast<std::int64_t>(
        SplitMix64(stagger_state) % static_cast<std::uint64_t>(size));
    for (std::size_t t = lo; t < hi; ++t) {
      const auto r = static_cast<std::int64_t>(t - lo);  // rank in the group
      BlockId mid;
      std::int64_t offset;
      if (opts.randomized) {
        mid = rows.Select(static_cast<std::int64_t>(
            rng.Below(static_cast<std::uint64_t>(size))));
        offset = static_cast<std::int64_t>(rng.Below(static_cast<std::uint64_t>(B)));
      } else {
        mid = rows.Select((r + stagger) % size);
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
