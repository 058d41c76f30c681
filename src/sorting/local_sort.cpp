#include "sorting/local_sort.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mdmesh {

std::int64_t SortWithinBlock(Network& net, const BlockGrid& grid, BlockId block,
                             const LocalSortSpec& spec) {
  const std::int64_t B = grid.block_volume();
  // Gather matching packets; keep the rest in place.
  std::vector<Packet> gathered;
  for (std::int64_t off = 0; off < B; ++off) {
    const ProcId p = grid.ProcAt(block, off);
    if (std::as_const(net).At(p).empty()) continue;  // no block to allocate
    auto& q = net.At(p);
    std::size_t w = 0;
    for (std::size_t r = 0; r < q.size(); ++r) {
      if (!spec.filter || spec.filter(q[r])) {
        gathered.push_back(q[r]);
      } else {
        q[w++] = q[r];
      }
    }
    q.resize(w);
  }
  std::sort(gathered.begin(), gathered.end(), [](const Packet& a, const Packet& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  });
  // Balanced layback: when the load is exactly per_proc * B this is the
  // uniform per_proc-per-processor layout; randomized-spread ablations can
  // over- or under-fill a block, in which case the surplus spreads one
  // packet per leading position (never past the block's last offset).
  const auto count = static_cast<std::int64_t>(gathered.size());
  const std::int64_t base = count / B;
  const std::int64_t extra = count % B;
  std::size_t r = 0;
  for (std::int64_t off = 0; off < B && r < gathered.size(); ++off) {
    const std::int64_t here = base + (off < extra ? 1 : 0);
    auto& q = net.At(grid.ProcAt(block, off));
    for (std::int64_t t = 0; t < here; ++t) q.push_back(gathered[r++]);
  }
  return count;
}

std::int64_t OddEvenTranspositionRounds(
    std::vector<std::pair<std::uint64_t, std::int64_t>> keys) {
  const std::size_t L = keys.size();
  if (L < 2) return 0;
  std::int64_t rounds = 0;
  bool dirty = true;
  int idle = 0;
  while (idle < 2) {
    const std::size_t start = static_cast<std::size_t>(rounds % 2);
    dirty = false;
    for (std::size_t i = start; i + 1 < L; i += 2) {
      if (keys[i + 1] < keys[i]) {
        std::swap(keys[i], keys[i + 1]);
        dirty = true;
      }
    }
    ++rounds;
    idle = dirty ? 0 : idle + 1;
  }
  // The final idle rounds did no work; a real machine still needs one round
  // to detect quiescence, so charge rounds-1 (the last no-op pair is free).
  return rounds - 2;
}

std::int64_t ChargeLocal(const BlockGrid& grid, LocalCostModel model,
                         std::int64_t measured_rounds) {
  switch (model) {
    case LocalCostModel::kOracle:
      return 0;
    case LocalCostModel::kLinear:
      return 4ll * grid.topo().dim() * grid.block_side();
    case LocalCostModel::kMeasured:
      return measured_rounds;
  }
  return 0;
}

namespace {

/// Measured transposition rounds for the current contents of a block
/// region given as a list of (block, per_proc) lanes laid out consecutively.
std::int64_t MeasureRegionRounds(Network& net, const BlockGrid& grid,
                                 const std::vector<BlockId>& blocks,
                                 const LocalSortSpec& spec) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> keys;
  for (BlockId b : blocks) {
    for (std::int64_t off = 0; off < grid.block_volume(); ++off) {
      for (const Packet& pkt : std::as_const(net).At(grid.ProcAt(b, off))) {
        if (!spec.filter || spec.filter(pkt)) keys.emplace_back(pkt.key, pkt.id);
      }
    }
  }
  return OddEvenTranspositionRounds(std::move(keys));
}

}  // namespace

std::int64_t SortBlocksLocally(Network& net, const BlockGrid& grid,
                               const std::vector<BlockId>& blocks,
                               const LocalSortSpec& spec, LocalCostModel model) {
  std::vector<BlockId> all;
  const std::vector<BlockId>* target = &blocks;
  if (blocks.empty()) {
    all.resize(static_cast<std::size_t>(grid.num_blocks()));
    for (BlockId b = 0; b < grid.num_blocks(); ++b) all[static_cast<std::size_t>(b)] = b;
    target = &all;
  }
  std::int64_t measured_max = 0;
  for (BlockId b : *target) {
    if (model == LocalCostModel::kMeasured) {
      measured_max = std::max(
          measured_max, MeasureRegionRounds(net, grid, {b}, spec));
    }
    SortWithinBlock(net, grid, b, spec);
  }
  return ChargeLocal(grid, model, measured_max);
}

std::int64_t MergeAdjacentBlocks(Network& net, const BlockGrid& grid, int parity,
                                 std::int64_t per_proc, LocalCostModel model) {
  std::int64_t measured_max = 0;
  LocalSortSpec spec;
  spec.per_proc = per_proc;
  for (auto [left, right] : grid.SnakeNeighborPairs(parity)) {
    if (model == LocalCostModel::kMeasured) {
      measured_max = std::max(measured_max,
                              MeasureRegionRounds(net, grid, {left, right}, spec));
    }
    // Sort the union of the two blocks: gather both, sort, lay back along
    // left's snake then right's snake.
    const std::int64_t B = grid.block_volume();
    std::vector<Packet> gathered;
    for (BlockId b : {left, right}) {
      for (std::int64_t off = 0; off < B; ++off) {
        auto& q = net.At(grid.ProcAt(b, off));
        gathered.insert(gathered.end(), q.begin(), q.end());
        q.clear();
      }
    }
    std::sort(gathered.begin(), gathered.end(),
              [](const Packet& a, const Packet& b) {
                return a.key != b.key ? a.key < b.key : a.id < b.id;
              });
    // Balanced layback over the pair's 2B positions (left block's snake,
    // then right's): exact loads give per_proc packets per processor;
    // uneven loads diffuse toward balance one merge round at a time.
    const auto count = static_cast<std::int64_t>(gathered.size());
    const std::int64_t base = count / (2 * B);
    const std::int64_t extra = count % (2 * B);
    std::size_t r = 0;
    for (std::int64_t pos = 0; pos < 2 * B && r < gathered.size(); ++pos) {
      const std::int64_t here = base + (pos < extra ? 1 : 0);
      const BlockId b = pos < B ? left : right;
      const std::int64_t off = pos < B ? pos : pos - B;
      auto& q = net.At(grid.ProcAt(b, off));
      for (std::int64_t t = 0; t < here; ++t) q.push_back(gathered[r++]);
    }
  }
  // Charge: merging two adjacent sorted blocks costs O(d*b) (kLinear) or the
  // measured rounds; a factor 2 on kLinear for the doubled region.
  switch (model) {
    case LocalCostModel::kOracle:
      return 0;
    case LocalCostModel::kLinear:
      return 8ll * grid.topo().dim() * grid.block_side();
    case LocalCostModel::kMeasured:
      return measured_max;
  }
  return 0;
}

}  // namespace mdmesh
