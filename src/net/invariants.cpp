#include "net/invariants.h"

#include <sstream>
#include <stdexcept>

namespace mdmesh {

bool InvariantsEnabled(InvariantMode mode) {
  switch (mode) {
    case InvariantMode::kOff:
      return false;
    case InvariantMode::kOn:
      return true;
    case InvariantMode::kAuto:
    default:
#ifdef NDEBUG
      return false;
#else
      return true;
#endif
  }
}

InvariantChecker::InvariantChecker(const Topology& topo) : topo_(&topo) {}

void InvariantChecker::Fail(std::int64_t step, const char* what,
                            ProcId proc) const {
  std::ostringstream os;
  os << "engine invariant violated at step " << step << ": " << what
     << " (processor " << proc << ")";
  throw std::logic_error(os.str());
}

void InvariantChecker::BeginRun(const Network& net) {
  // Counted here rather than read from the Network's cache: the engine
  // mutates the queues through the directory for the whole run, and a
  // recount cached mid-run would go stale.
  packets_ = 0;
  net.ForEach([this](ProcId, const Packet&) { ++packets_; });
}

void InvariantChecker::CheckSlots(const Network& net,
                                  const std::vector<std::int32_t>& slot,
                                  const std::uint8_t* link_dead,
                                  std::int64_t step) const {
  const auto links = static_cast<std::size_t>(2 * topo_->dim());
  for (ProcId p = 0; p < topo_->size(); ++p) {
    const auto& q = net.At(p);
    const std::size_t base = static_cast<std::size_t>(p) * links;
    int winners = 0;
    for (std::size_t l = 0; l < links; ++l) {
      const std::int32_t k = slot[base + l];
      if (k < 0) continue;
      if (static_cast<std::size_t>(k) >= q.size()) {
        Fail(step, "winner slot references a packet outside the queue", p);
      }
      if (link_dead != nullptr && link_dead[base + l] != 0) {
        Fail(step, "winner selected on a dead link", p);
      }
      if ((q[static_cast<std::size_t>(k)].flags & Packet::kMoving) == 0) {
        Fail(step, "winner packet is not flagged as moving", p);
      }
      // A packet bids on exactly one link, so no queue index may win twice
      // (a duplicate would clone the packet during delivery).
      for (std::size_t m = l + 1; m < links; ++m) {
        if (slot[base + m] == k) {
          Fail(step, "one packet selected on two directed links", p);
        }
      }
      ++winners;
    }
    int moving = 0;
    for (const Packet& pkt : q) {
      if ((pkt.flags & Packet::kMoving) != 0) ++moving;
    }
    if (moving != winners) {
      Fail(step, "moving-flag count disagrees with winner slots", p);
    }
  }
}

void InvariantChecker::CheckActiveSet(const Network& net,
                                      const std::vector<ProcId>& active,
                                      std::int64_t step) const {
  std::vector<std::uint8_t> listed(static_cast<std::size_t>(topo_->size()), 0);
  for (ProcId p : active) {
    if (p < 0 || p >= topo_->size()) {
      Fail(step, "active set lists a processor outside the topology", p);
    }
    if (listed[static_cast<std::size_t>(p)] != 0) {
      Fail(step, "active set lists a processor twice", p);
    }
    listed[static_cast<std::size_t>(p)] = 1;
  }
  for (ProcId p = 0; p < topo_->size(); ++p) {
    bool has_inflight = false;
    for (const Packet& pkt : net.At(p)) {
      if (pkt.arrived < 0) {
        has_inflight = true;
        break;
      }
    }
    if (has_inflight && listed[static_cast<std::size_t>(p)] == 0) {
      Fail(step, "processor with in-flight packets missing from active set",
           p);
    }
    if (!has_inflight && listed[static_cast<std::size_t>(p)] != 0) {
      Fail(step, "idle processor listed in active set", p);
    }
  }
}

void InvariantChecker::CheckStep(const Network& net, std::int64_t step) const {
  std::int64_t total = 0;
  for (ProcId p = 0; p < topo_->size(); ++p) {
    const auto& q = net.At(p);
    total += static_cast<std::int64_t>(q.size());
    for (const Packet& pkt : q) {
      if ((pkt.flags & Packet::kMoving) != 0) {
        Fail(step, "packet still carries the moving flag after delivery", p);
      }
      if (pkt.arrived == step && pkt.dest != p) {
        Fail(step, "packet stamped as arrived away from its destination", p);
      }
    }
  }
  if (total != packets_) {
    Fail(step, "packet count changed (conservation broken)", -1);
  }
}

}  // namespace mdmesh
