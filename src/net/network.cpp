#include "net/network.h"

#include <cassert>
#include <utility>

namespace mdmesh {

const PacketQueue Network::kEmptyQueue{};

void QueueLane::Grow() {
  chunks_.push_back(std::make_unique<PacketQueue[]>(kChunk));
  PacketQueue* const chunk = chunks_.back().get();
  for (std::size_t i = kChunk; i-- > 0;) free_.push_back(chunk + i);
}

Network::Network(const Topology& topo)
    : topo_(&topo),
      slots_(static_cast<std::size_t>(topo.size()), nullptr),
      lanes_(1) {}

Network::Network(const Network& other)
    : topo_(other.topo_),
      slots_(other.slots_.size(), nullptr),
      lanes_(1),
      total_packets_(other.total_packets_),
      max_queue_(other.max_queue_),
      counts_valid_(other.counts_valid_) {
  for (std::size_t p = 0; p < slots_.size(); ++p) {
    const PacketQueue* q = other.slots_[p];
    if (q == nullptr || q->empty()) continue;
    slots_[p] = lanes_[0].Take();
    *slots_[p] = *q;
  }
}

Network& Network::operator=(const Network& other) {
  if (this != &other) *this = Network(other);
  return *this;
}

void Network::Add(ProcId at, Packet packet) {
  assert(at >= 0 && at < topo_->size());
  PacketQueue*& q = slots_[static_cast<std::size_t>(at)];
  if (q == nullptr) q = lanes_[0].Take();
  q->push_back(packet);
  if (counts_valid_) {
    ++total_packets_;
    max_queue_ = std::max(max_queue_, static_cast<std::int64_t>(q->size()));
  }
}

void Network::Clear() {
  for (PacketQueue*& q : slots_) {
    if (q == nullptr) continue;
    q->reset();
    q = nullptr;
  }
  // Every block is free again. Hand them out in chunk order from lane 0,
  // so a refill in processor order lays the queues out in processor order.
  for (QueueLane& lane : lanes_) lane.free_.clear();
  std::vector<PacketQueue*>& free = lanes_[0].free_;
  for (auto lane = lanes_.rbegin(); lane != lanes_.rend(); ++lane) {
    for (auto chunk = lane->chunks_.rbegin(); chunk != lane->chunks_.rend();
         ++chunk) {
      for (std::size_t i = QueueLane::kChunk; i-- > 0;) {
        free.push_back(chunk->get() + i);
      }
    }
  }
  total_packets_ = 0;
  max_queue_ = 0;
  counts_valid_ = true;
}

void Network::RecomputeCounts() const {
  std::int64_t total = 0;
  std::size_t mx = 0;
  for (const PacketQueue* q : slots_) {
    if (q == nullptr) continue;
    total += static_cast<std::int64_t>(q->size());
    mx = std::max(mx, q->size());
  }
  total_packets_ = total;
  max_queue_ = static_cast<std::int64_t>(mx);
  counts_valid_ = true;
}

std::vector<Packet> Network::Gather() const {
  std::vector<Packet> all;
  all.reserve(static_cast<std::size_t>(TotalPackets()));
  for (const PacketQueue* q : slots_) {
    if (q != nullptr) all.insert(all.end(), q->begin(), q->end());
  }
  return all;
}

void Network::Scatter(const std::vector<std::pair<ProcId, Packet>>& placed) {
  Clear();
  for (const auto& [proc, pkt] : placed) Add(proc, pkt);
}

void Network::LayOutInOrder() {
  const PacketQueue* prev = nullptr;
  bool ascending = true;
  std::size_t occupied = 0;
  for (const PacketQueue* q : slots_) {
    if (q == nullptr) continue;
    ascending = ascending && q > prev;
    prev = q;
    ++occupied;
  }
  if (ascending) return;
  // by_addr[k] = (k-th lowest block, rank of the processor holding it):
  // that content belongs in block by_addr[rank].first. Apply the
  // permutation cycle by cycle, then point the r-th occupied processor at
  // the r-th block.
  std::vector<std::pair<PacketQueue*, std::size_t>> by_addr;
  by_addr.reserve(occupied);
  for (PacketQueue* q : slots_) {
    if (q != nullptr) by_addr.emplace_back(q, by_addr.size());
  }
  std::sort(by_addr.begin(), by_addr.end());
  constexpr std::size_t kDone = ~std::size_t{0};
  for (std::size_t k = 0; k < by_addr.size(); ++k) {
    if (by_addr[k].second == kDone) continue;
    PacketQueue carry = std::move(*by_addr[k].first);
    std::size_t j = by_addr[k].second;
    by_addr[k].second = kDone;
    while (j != k) {
      std::swap(carry, *by_addr[j].first);
      const std::size_t next = by_addr[j].second;
      by_addr[j].second = kDone;
      j = next;
    }
    *by_addr[k].first = std::move(carry);
  }
  std::size_t rank = 0;
  for (PacketQueue*& q : slots_) {
    if (q != nullptr) q = by_addr[rank++].first;
  }
}

std::int64_t Network::blocks_allocated() const {
  std::size_t chunks = 0;
  for (const QueueLane& lane : lanes_) chunks += lane.chunks_.size();
  return static_cast<std::int64_t>(chunks * QueueLane::kChunk);
}

std::int64_t Network::blocks_live() const {
  std::size_t free = 0;
  for (const QueueLane& lane : lanes_) free += lane.free_.size();
  return blocks_allocated() - static_cast<std::int64_t>(free);
}

QueueLane* Network::BalanceLanes(std::size_t n) {
  n = std::max<std::size_t>(n, 1);
  if (lanes_.size() < n) lanes_.resize(n);
  if (lanes_.size() > 1) {
    std::size_t total = 0;
    for (const QueueLane& lane : lanes_) total += lane.free_.size();
    // Lanes [0, n) get an equal share (lane 0 also the remainder); lanes
    // past n, left by a wider engine, get none. The targets sum to the
    // total, so a lane in surplus always finds one in deficit.
    const auto target = [&](std::size_t i) -> std::size_t {
      if (i >= n) return 0;
      return total / n + (i == 0 ? total % n : 0);
    };
    std::size_t dst = 0;
    for (std::size_t src = 0; src < lanes_.size(); ++src) {
      std::vector<PacketQueue*>& from = lanes_[src].free_;
      while (from.size() > target(src)) {
        while (lanes_[dst].free_.size() >= target(dst)) ++dst;
        std::vector<PacketQueue*>& to = lanes_[dst].free_;
        const std::size_t k =
            std::min(from.size() - target(src), target(dst) - to.size());
        to.insert(to.end(), from.end() - static_cast<std::ptrdiff_t>(k),
                  from.end());
        from.resize(from.size() - k);
      }
    }
  }
  return lanes_.data();
}

}  // namespace mdmesh
