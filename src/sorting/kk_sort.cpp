#include "sorting/kk_sort.h"

#include <stdexcept>

#include "sorting/copy_sort.h"
#include "sorting/full_sort.h"
#include "sorting/simple_sort.h"
#include "sorting/snake_sort.h"
#include "sorting/torus_sort.h"
#include "util/rng.h"

namespace mdmesh {

const char* SortAlgoName(SortAlgo algo) {
  switch (algo) {
    case SortAlgo::kSimple: return "SimpleSort";
    case SortAlgo::kCopy: return "CopySort";
    case SortAlgo::kTorus: return "TorusSort";
    case SortAlgo::kFull: return "FullSort";
    case SortAlgo::kSnake: return "SnakeSort";
  }
  return "?";
}

SortAlgo ParseSortAlgo(const std::string& name) {
  if (name == "simple") return SortAlgo::kSimple;
  if (name == "copy") return SortAlgo::kCopy;
  if (name == "torus") return SortAlgo::kTorus;
  if (name == "full") return SortAlgo::kFull;
  if (name == "snake") return SortAlgo::kSnake;
  throw std::invalid_argument("unknown sort algorithm: " + name);
}

void FillInput(Network& net, const BlockGrid& grid, std::int64_t k,
               InputKind kind, std::uint64_t seed) {
  const std::int64_t N = grid.topo().size();
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(N * k));
  Rng rng(seed);
  switch (kind) {
    case InputKind::kRandom:
      for (auto& key : keys) key = rng.Next();
      break;
    case InputKind::kSortedAsc:
      for (std::size_t t = 0; t < keys.size(); ++t) keys[t] = t;
      break;
    case InputKind::kSortedDesc:
      for (std::size_t t = 0; t < keys.size(); ++t) keys[t] = keys.size() - t;
      break;
    case InputKind::kAllEqual:
      for (auto& key : keys) key = 42;
      break;
    case InputKind::kFewValues:
      for (auto& key : keys) key = rng.Below(8);
      break;
  }
  FillExplicit(net, grid, k, keys);
}

void FillExplicit(Network& net, const BlockGrid& grid, std::int64_t k,
                  const std::vector<std::uint64_t>& keys) {
  const std::int64_t N = grid.topo().size();
  if (keys.size() != static_cast<std::size_t>(N * k)) {
    throw std::invalid_argument("FillExplicit: need exactly N*k keys");
  }
  net.Clear();
  // Every processor gets k packets in block-snake order: take the queue
  // blocks in processor order first, so the dense sweep streams through
  // them.
  for (ProcId p = 0; p < N && k > 0; ++p) net.At(p);
  const std::int64_t B = grid.block_volume();
  std::int64_t t = 0;
  for (BlockId blk = 0; blk < grid.num_blocks(); ++blk) {
    for (std::int64_t off = 0; off < B; ++off) {
      const ProcId p = grid.ProcAt(blk, off);
      for (std::int64_t r = 0; r < k; ++r, ++t) {
        Packet pkt;
        pkt.key = keys[static_cast<std::size_t>(t)];
        pkt.id = t;
        pkt.dest = p;
        net.Add(p, pkt);
      }
    }
  }
}

SortResult RunSort(SortAlgo algo, Network& net, const BlockGrid& grid,
                   const SortOptions& opts) {
  const GroundTruth truth = CaptureGroundTruth(net);
  // Root span named after the algorithm; each phase nests under it.
  Span root = TraceContext::OpenIf(opts.trace, SortAlgoName(algo));
  SortResult result;
  switch (algo) {
    case SortAlgo::kSimple:
      result = SimpleSortRun(net, grid, opts);
      break;
    case SortAlgo::kCopy:
      result = CopySortRun(net, grid, opts);
      break;
    case SortAlgo::kTorus:
      result = TorusSortRun(net, grid, opts);
      break;
    case SortAlgo::kFull:
      result = FullSortRun(net, grid, opts);
      break;
    case SortAlgo::kSnake:
      result = SnakeSortRun(net, grid, opts);
      break;
  }
  std::string err;
  result.sorted = VerifySortedPlacement(net, grid, opts.k, truth, &err);
  return result;
}

}  // namespace mdmesh
