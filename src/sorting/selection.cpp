#include "sorting/selection.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "meshsim/geometry.h"
#include "sorting/detail.h"
#include "sorting/spread.h"

namespace mdmesh {

SelectResult SelectAtCenter(Network& net, const BlockGrid& grid,
                            const SortOptions& opts, std::int64_t target) {
  const std::int64_t m = grid.num_blocks();
  const std::int64_t B = grid.block_volume();
  const std::int64_t k = opts.k;
  const int d = grid.topo().dim();
  const std::int64_t mc = opts.center_blocks > 0 ? opts.center_blocks : m / 2;
  if (B % m != 0) throw std::invalid_argument("SelectAtCenter: needs g | b");
  if ((k * m) % mc != 0) {
    throw std::invalid_argument("SelectAtCenter: mc must divide km");
  }
  const std::int64_t total = grid.topo().size() * k;
  if (target < 0 || target >= total) {
    throw std::invalid_argument("SelectAtCenter: target rank out of range");
  }

  SelectResult result;
  CenterRegion center(grid, mc);
  Engine engine(grid.topo(), opts.engine);
  LocalSortSpec all_k{k, nullptr};

  // (1) Local sort + (2) concentrate, as in SimpleSort.
  result.local_steps += SortBlocksLocally(net, grid, {}, all_k, opts.cost);
  for (BlockId j = 0; j < m; ++j) {
    sort_detail::ForEachRanked(
        net, grid, j, nullptr, [&](std::int64_t i, ProcId, Packet& pkt) {
          const BlockDest bd = ConcentrateDest(i, j, m, mc, B);
          pkt.dest = grid.ProcAt(center.BlockAt(bd.block), bd.offset);
          pkt.klass = static_cast<std::uint16_t>(i % d);
        });
  }
  {
    RouteResult r = engine.Route(net);
    result.routing_steps += r.steps;
    result.max_queue = std::max(result.max_queue, r.max_queue);
    result.completed = result.completed && r.completed;
  }

  // (3) Sort the center blocks.
  {
    LocalSortSpec spec{k * m / mc, nullptr};
    result.local_steps +=
        SortBlocksLocally(net, grid, center.blocks(), spec, opts.cost);
  }

  // Rank estimation: local rank i in C-block c => est = i*mc + c, error
  // strictly below (m+1)*mc (see header). Margin (m+2)*mc is safe.
  result.margin = (m + 2) * mc;
  result.degenerate_margin = 2 * result.margin >= total / 2;
  const std::int64_t lo = target - result.margin;
  const std::int64_t hi = target + result.margin;

  // Every non-candidate with est < lo is certainly below the target.
  std::int64_t below = 0;
  std::int64_t cand_counter = 0;
  const BlockId home = center.BlockAt(0);  // closest block to the center
  for (std::int64_t c = 0; c < mc; ++c) {
    sort_detail::ForEachRanked(
        net, grid, center.BlockAt(c), nullptr,
        [&](std::int64_t i, ProcId, Packet& pkt) {
          const std::int64_t est = i * mc + c;
          if (est < lo) {
            ++below;
            pkt.tag = 0;  // not a candidate
          } else if (est > hi) {
            pkt.tag = 0;
          } else {
            pkt.tag = 1;  // candidate: route to the home block
            pkt.dest = grid.ProcAt(home, cand_counter % B);
            pkt.klass = static_cast<std::uint16_t>(cand_counter % d);
            ++cand_counter;
          }
        });
  }
  result.candidates = cand_counter;

  // Drop non-candidates (they have served their purpose: `below` is exact)
  // and route the candidates to the home block.
  net.EraseIf([](ProcId, const Packet& pkt) { return pkt.tag != 1; });
  {
    RouteResult r = engine.Route(net);
    result.routing_steps += r.steps;
    result.max_queue = std::max(result.max_queue, r.max_queue);
    result.completed = result.completed && r.completed;
  }

  // Local selection at the home block: the (target - below)-th smallest
  // candidate. Charge one more local phase (the gather to the center
  // processor is an o(n) walk inside one block).
  std::vector<std::pair<std::uint64_t, std::int64_t>> cands;
  for (std::int64_t off = 0; off < B; ++off) {
    for (const Packet& pkt : std::as_const(net).At(grid.ProcAt(home, off))) {
      cands.emplace_back(pkt.key, pkt.id);
    }
  }
  std::sort(cands.begin(), cands.end());
  result.local_steps += ChargeLocal(grid, opts.cost, 0);
  const std::int64_t want = target - below;
  if (want >= 0 && want < static_cast<std::int64_t>(cands.size())) {
    result.found = true;
    result.selected_key = cands[static_cast<std::size_t>(want)].first;
  }
  result.total_steps = result.routing_steps + result.local_steps;
  return result;
}

}  // namespace mdmesh
