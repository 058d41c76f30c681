#include "net/reference_engine.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

namespace mdmesh {
namespace {

/// A packet's full remaining distance (both legs for kTwoLeg) — the
/// farthest-first priority of the model.
std::int64_t RemainingDistance(const Topology& topo, ProcId at,
                               const Packet& pkt) {
  std::int64_t rem = topo.Dist(at, pkt.dest);
  if ((pkt.flags & Packet::kTwoLeg) != 0) {
    rem += topo.Dist(pkt.dest, static_cast<ProcId>(pkt.tag));
  }
  return rem;
}

/// First uncorrected dimension in the rotated order klass, klass+1, ...;
/// returns (dim, dir) or dim = -1 when at the destination.
std::pair<int, int> DesiredHop(const Topology& topo, ProcId at,
                               const Packet& pkt) {
  const Point cur = topo.Coords(at);
  const Point dst = topo.Coords(pkt.dest);
  const int d = topo.dim();
  for (int t = 0; t < d; ++t) {
    const int dim = (pkt.klass + t) % d;
    const int step = topo.StepToward(cur[static_cast<std::size_t>(dim)],
                                     dst[static_cast<std::size_t>(dim)]);
    if (step != 0) return {dim, step > 0 ? 1 : 0};
  }
  return {-1, 0};
}

}  // namespace

ReferenceEngine::ReferenceEngine(const Topology& topo, std::int64_t step_cap,
                                 StepInjector* injector)
    : topo_(&topo), step_cap_(step_cap), injector_(injector) {}

RouteResult ReferenceEngine::Route(Network& net) {
  RouteResult result;
  const ProcId N = topo_->size();
  const int d = topo_->dim();

  std::int64_t in_flight = 0;
  net.ForEach([&](ProcId p, Packet& pkt) {
    pkt.flags &= static_cast<std::uint16_t>(~Packet::kMoving);
    pkt.dist0 = static_cast<std::int32_t>(RemainingDistance(*topo_, p, pkt));
    if ((pkt.flags & Packet::kTwoLeg) != 0 && pkt.dest == p) {
      pkt.dest = static_cast<ProcId>(pkt.tag);
      pkt.flags &= static_cast<std::uint16_t>(~Packet::kTwoLeg);
    }
    pkt.arrived = pkt.dest == p ? 0 : -1;
    if (pkt.dest != p) ++in_flight;
    result.max_distance = std::max<std::int64_t>(result.max_distance, pkt.dist0);
    ++result.packets;
  });
  result.max_queue = net.MaxQueue();
  result.links = topo_->torus()
                     ? 2ll * d * N
                     : 2ll * d * N * (topo_->side() - 1) / topo_->side();

  const auto delivered = [](ProcId, const Packet& pkt) {
    return pkt.arrived >= 0;
  };
  StepInjector* const injector = injector_;
  if (injector != nullptr) {
    // Preloads count as injected at step 1; those already home are handed
    // back with latency 0 and retired before the first step.
    net.ForEach([&](ProcId, Packet& pkt) {
      pkt.tag = 1;
      if (pkt.arrived < 0) return;
      result.overshoot.Add(0.0);
      injector->OnDeliver(pkt, 0);
    });
    net.EraseIf(delivered);
  }

  std::int64_t cap = step_cap_;
  if (cap <= 0) {
    const std::int64_t load = std::max<std::int64_t>(1, CeilDiv(result.packets, N));
    cap = injector != nullptr
              ? std::numeric_limits<std::int64_t>::max()
              : 4 * load * (topo_->Diameter() + topo_->side()) + 4096;
  }

  std::int64_t arrivals = 0;
  std::int64_t step = 0;
  bool injecting = injector != nullptr;
  bool stopped = false;
  std::vector<std::pair<ProcId, Packet>> batch;
  while ((injecting || arrivals < in_flight) && step < cap) {
    ++step;
    // 0. Injection, before anything bids: the engine stamps tag and dist0,
    //    and a packet injected at its destination never enters a queue.
    if (injecting) {
      batch.clear();
      const InjectAction action = injector->Inject(step, &batch);
      injecting = action == InjectAction::kContinue;
      stopped = action == InjectAction::kStop;
      for (auto& [src, pkt] : batch) {
        pkt.flags &= static_cast<std::uint16_t>(
            ~(Packet::kMoving | Packet::kDetour | Packet::kLockMask |
              Packet::kTwoLeg));
        pkt.tag = step;
        pkt.dist0 = static_cast<std::int32_t>(topo_->Dist(src, pkt.dest));
        result.max_distance = std::max<std::int64_t>(result.max_distance, pkt.dist0);
        ++result.packets;
        if (pkt.dest == src) {
          pkt.arrived = static_cast<std::int32_t>(step - 1);
          result.overshoot.Add(0.0);
          injector->OnDeliver(pkt, step);
          continue;
        }
        pkt.arrived = -1;
        net.At(src).push_back(pkt);
        ++in_flight;
      }
    }
    // 1. Every packet states its desired directed link.
    struct Want {
      ProcId from;
      std::size_t index;   // position in from's queue
      std::int64_t rem;    // remaining distance (priority)
      std::int64_t id;
    };
    std::map<std::pair<ProcId, int>, std::vector<Want>> contenders;
    for (ProcId p = 0; p < N; ++p) {
      const auto& q = std::as_const(net).At(p);
      for (std::size_t i = 0; i < q.size(); ++i) {
        const Packet& pkt = q[i];
        if (pkt.dest == p) continue;
        auto [dim, dir] = DesiredHop(*topo_, p, pkt);
        contenders[{p, dim * 2 + dir}].push_back(
            Want{p, i, RemainingDistance(*topo_, p, pkt), pkt.id});
      }
    }
    // 2. Arbitrate each link: farthest remaining distance, ties to the
    //    smaller id. 3. Apply all moves simultaneously.
    //    Each move also names the receiver's in-link it arrives on: the
    //    dimension, then 0 from the lower neighbour (travelling +), 1 from
    //    the upper one.
    struct Move {
      ProcId from;
      std::size_t index;
      ProcId to;
      int entry;
    };
    std::vector<Move> moves;
    for (auto& [link, wants] : contenders) {
      const auto winner = std::max_element(
          wants.begin(), wants.end(), [](const Want& a, const Want& b) {
            return a.rem != b.rem ? a.rem < b.rem : a.id > b.id;
          });
      const int dim = link.second / 2;
      const int dir = link.second % 2;
      const ProcId to = topo_->Neighbor(link.first, dim, dir);
      moves.push_back(Move{winner->from, winner->index, to, dim * 2 + (1 - dir)});
    }
    // Incomers join a queue in in-link order.
    std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
      return a.to != b.to ? a.to < b.to : a.entry < b.entry;
    });
    // Collect moved packets (marking slots), then erase and deliver.
    std::vector<std::pair<ProcId, Packet>> in_transit;
    for (const Move& m : moves) {
      Packet pkt = net.At(m.from)[m.index];
      net.At(m.from)[m.index].flags |= Packet::kMoving;  // mark for removal
      in_transit.emplace_back(m.to, pkt);
    }
    net.EraseIf([](ProcId, const Packet& pkt) {
      return (pkt.flags & Packet::kMoving) != 0;
    });
    result.moves += static_cast<std::int64_t>(in_transit.size());
    for (auto& [to, pkt] : in_transit) {
      if (pkt.dest == to) {
        if ((pkt.flags & Packet::kTwoLeg) != 0) {
          pkt.dest = static_cast<ProcId>(pkt.tag);
          pkt.flags &= static_cast<std::uint16_t>(~Packet::kTwoLeg);
          if (pkt.dest == to) {
            pkt.arrived = static_cast<std::int32_t>(step);
            ++arrivals;
          }
        } else {
          pkt.arrived = static_cast<std::int32_t>(step);
          ++arrivals;
        }
      }
      net.At(to).push_back(pkt);
    }
    result.max_queue = std::max(result.max_queue, net.MaxQueue());
    // 4. Open loop: hand every delivered packet back (ascending processor,
    //    queue order) and retire it.
    if (injector != nullptr) {
      std::as_const(net).ForEach([&](ProcId, const Packet& pkt) {
        if (pkt.arrived < 0) return;
        const std::int64_t over =
            (static_cast<std::int64_t>(pkt.arrived) - pkt.tag + 1) - pkt.dist0;
        result.overshoot.Add(static_cast<double>(over));
        result.max_overshoot = std::max(result.max_overshoot, over);
        injector->OnDeliver(pkt, step);
      });
      net.EraseIf(delivered);
      if (stopped) break;
    }
  }

  result.steps = step;
  result.completed = arrivals == in_flight;
  std::as_const(net).ForEach([&](ProcId, const Packet& pkt) {
    if (pkt.arrived < 0) return;
    const std::int64_t over = pkt.arrived - pkt.dist0;
    result.overshoot.Add(static_cast<double>(over));
    result.max_overshoot = std::max(result.max_overshoot, over);
  });
  return result;
}

}  // namespace mdmesh
