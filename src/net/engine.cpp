#include "net/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "net/greedy_hop.h"
#include "obs/critical_path.h"
#include "util/math.h"

namespace mdmesh {
namespace {

/// Queue-occupancy histogram resolution for StepProbe snapshots. Measured
/// maxima stay single-digit (the multi-packet model's O(1)); longer queues
/// clamp into the last bucket and show up as overflow.
constexpr std::size_t kQueueHistBuckets = 64;

/// Watchdog default: a fault-free engine moves at least one packet every
/// step, so this many consecutive zero-move steps means a real deadlock.
constexpr std::int64_t kDefaultStallWindow = 64;

}  // namespace

std::uint64_t HashEngineOptions(const EngineOptions& opts) {
  // FNV-1a over a canonical encoding of the options that influence routing
  // behavior. Observability hooks (observer, probe, metrics, journeys), the
  // thread pool, and the checkpoint sink are excluded: they never change
  // results (for the sink and the journey tracer that exclusion is
  // load-bearing — a resumed run must hash identically whether or not it
  // keeps checkpointing or tracing).
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(opts.step_cap));
  mix(static_cast<std::uint64_t>(opts.stall_window));
  mix(static_cast<std::uint64_t>(opts.invariants));
  mix(static_cast<std::uint64_t>(opts.sparse));
  std::uint64_t threshold_bits = 0;
  static_assert(sizeof(threshold_bits) == sizeof(opts.sparse_threshold));
  std::memcpy(&threshold_bits, &opts.sparse_threshold, sizeof(threshold_bits));
  mix(threshold_bits);
  mix(opts.faults != nullptr && !opts.faults->empty() ? 1 : 0);
  mix(opts.injector != nullptr ? 1 : 0);
  return h;
}

const char* SparseModeName(SparseMode mode) {
  switch (mode) {
    case SparseMode::kAlways:
      return "always";
    case SparseMode::kNever:
      return "never";
    default:
      return "auto";
  }
}

RunManifest MakeRunManifest(const Topology& topo, const EngineOptions& opts) {
  RunManifest m;
  m.d = topo.dim();
  m.n = topo.side();
  m.torus = topo.torus();
  m.threads = opts.pool != nullptr ? opts.pool->workers()
                                   : ThreadPool::Global().workers();
  m.build_type = BuildTypeName();
  m.sparse_mode = SparseModeName(opts.sparse);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(HashEngineOptions(opts)));
  m.engine_options_hash = hex;
  return m;
}

Engine::Engine(const Topology& topo, EngineOptions opts)
    : topo_(&topo), opts_(opts), d_(topo.dim()), n_(topo.side()) {
  if (opts_.pool == nullptr) opts_.pool = &ThreadPool::Global();
  const auto links = static_cast<std::size_t>(2 * d_);
  const auto procs = static_cast<std::size_t>(topo.size());
  const std::size_t shards = std::max<std::size_t>(1, opts_.pool->workers());
  shard_bits_ = static_cast<int>(std::bit_width(shards - 1));
  // A handle packs (arena index << shard_bits_) | shard into 32 bits, and
  // one step's bids number at most one per directed link.
  if ((std::uint64_t{procs} * links << shard_bits_) >
      (std::uint64_t{1} << 32)) {
    throw std::invalid_argument(
        "Engine: topology too large for 32-bit mailbox handles");
  }
  mask_stride_ = (links + 7) / 8 * 8;
  coords_ = topo.BuildCoordTable();
  // A mesh has no wrap: its edge coordinate -1 never matches.
  const bool torus = topo.torus();
  std::size_t stride = 1;
  for (std::size_t dim = 0; dim < static_cast<std::size_t>(d_); ++dim) {
    const std::size_t wrap = static_cast<std::size_t>(n_ - 1) * stride;
    link_step_[2 * dim] = {0 - stride, wrap, torus ? 0 : -1};
    link_step_[2 * dim + 1] = {stride, 0 - wrap, torus ? n_ - 1 : -1};
    stride *= static_cast<std::size_t>(n_);
  }
  if (opts_.injector == nullptr && InvariantsEnabled(opts_.invariants)) {
    slot_.resize(procs * links);  // only the checker reads winner slots
  }
  // Double-buffered mailbox (see engine.h): handles plus padded presence
  // rows, both sized 2 x N x row.
  in_hdl_.resize(2 * procs * links);
  in_mask_.assign(2 * procs * mask_stride_, 0);
  manifest_ = std::make_shared<const RunManifest>(MakeRunManifest(topo, opts_));
  if (opts_.faults != nullptr && !opts_.faults->empty()) {
    const Topology& ft = opts_.faults->topo();
    if (ft.dim() != topo.dim() || ft.side() != topo.side() ||
        ft.wrap() != topo.wrap()) {
      throw std::invalid_argument(
          "Engine: FaultPlan was built for a different topology");
    }
    have_faults_ = true;
    link_dead_perm_ = opts_.faults->dead_mask();
    link_dead_ = link_dead_perm_;
    flap_count_.assign(link_dead_.size(), 0);
    events_ = opts_.faults->Events();
  }
}

inline void Engine::Post(WorkerScratch* s, int parity, std::size_t r,
                         std::size_t e, const Packet& pkt) {
  const auto par = static_cast<std::size_t>(parity);
  const auto links = static_cast<std::size_t>(2 * d_);
  std::vector<Packet>& arena = s->arena[parity];
  in_hdl_[par * (in_hdl_.size() / 2) + r * links + e] =
      static_cast<std::uint32_t>(arena.size() << shard_bits_) | s->shard;
  arena.push_back(pkt);
  in_mask_[par * (in_mask_.size() / 2) + r * mask_stride_ + e] = 1;
}

template <bool kFaults>
inline std::int64_t Engine::Hop(const std::int32_t* cp,
                                [[maybe_unused]] std::size_t base, Packet& pkt,
                                [[maybe_unused]] std::int64_t step, int& dim,
                                int& dir) const {
  const std::int32_t* dc =
      &coords_[static_cast<std::size_t>(pkt.dest) * static_cast<std::size_t>(d_)];
  const bool torus = topo_->torus();
  // Farthest-first priority counts the full remaining path of a two-leg
  // packet, not just the current leg.
  std::int64_t extra = 0;
  if ((pkt.flags & Packet::kTwoLeg) != 0) {
    extra = topo_->Dist(pkt.dest, static_cast<ProcId>(pkt.tag));
  }
  if constexpr (kFaults) {
    bool is_detour = false;
    // Mesh boundary links do not exist: the coordinate row filters them
    // (the dead mask only covers existing links).
    const std::uint8_t* dead = &link_dead_[base];
    const int last = n_ - 1;
    const auto alive = [cp, dead, torus, last](int di, int dr) {
      return dead[di * 2 + dr] == 0 &&
             (torus || cp[di] != (dr != 0 ? last : 0));
    };
    const std::int64_t rem =
        NextHopFaulted(cp, dc, d_, n_, torus, pkt.klass, pkt.id, pkt.flags,
                       alive, step, pkt.dist0, extra, dim, dir, is_detour);
    pkt.flags = is_detour
                    ? static_cast<std::uint16_t>(pkt.flags | Packet::kDetour)
                    : static_cast<std::uint16_t>(pkt.flags & ~Packet::kDetour);
    return rem + extra;
  } else {
    const std::int64_t rem = NextHop(cp, dc, d_, n_, torus, pkt.klass, dim, dir);
    assert(dim >= 0);
    return rem + extra;
  }
}

template <bool kFaults, bool kSparse, bool kRecordSlots>
void Engine::BidProc(PacketQueue* const* slots, ProcId p, std::int64_t step,
                     int parity, WorkerScratch* s) {
  const auto links = static_cast<std::size_t>(2 * d_);
  const std::size_t base = static_cast<std::size_t>(p) * links;
  PacketQueue* const qp = slots[static_cast<std::size_t>(p)];
  if (qp == nullptr || qp->empty()) {
    if constexpr (kRecordSlots && !kSparse) {
      // Dense CheckSlots scans every row, so even an idle processor's row
      // must be clean. (The sparse path only ever bids active processors.)
      for (std::size_t l = 0; l < links; ++l) slot_[base + l] = -1;
    }
    return;
  }
  PacketQueue& q = *qp;
  // Winner selection is stack-local: the slot table is only published for
  // the checker's CheckSlots pass — nothing else ever reads a foreign row,
  // so the hot path keeps selection out of shared memory entirely. A bid
  // bitmask (`used`) replaces array initialization and the full-links
  // winner scan — with the typical drain-tail queue of one packet, the
  // fixed per-link overhead would otherwise rival the useful work.
  std::int32_t win[2 * kMaxDim];
  std::int64_t prio[2 * kMaxDim];
  std::uint32_t used = 0;
  const bool torus = topo_->torus();
  const std::int32_t* cp =
      &coords_[static_cast<std::size_t>(p) * static_cast<std::size_t>(d_)];
  if constexpr (!kFaults) {
    // Singleton fast path: a one-packet queue cannot have link contention,
    // so the farthest-first priority (the remaining-distance sum) is never
    // consulted — only the hop direction matters. Drain tails are dominated
    // by such queues. Faulted runs keep the general path (the detour policy
    // needs the remaining distance for its slack rotation).
    if (q.size() == 1) {
      Packet& pkt = q[0];
      if (pkt.dest == p) {
        if constexpr (kRecordSlots && !kSparse) {
          for (std::size_t l = 0; l < links; ++l) slot_[base + l] = -1;
        }
        return;
      }
      const std::int32_t* dc = &coords_[static_cast<std::size_t>(pkt.dest) *
                                        static_cast<std::size_t>(d_)];
      int dim, dir;
      NextHopDir(cp, dc, d_, n_, torus, pkt.klass, dim, dir);
      assert(dim >= 0);
      const std::size_t l = static_cast<std::size_t>(dim * 2 + dir);
      if constexpr (kRecordSlots) {
        for (std::size_t ll = 0; ll < links; ++ll) slot_[base + ll] = -1;
        slot_[base + l] = 0;
      }
      pkt.flags |= Packet::kMoving;
      const std::size_t r = Receiver(static_cast<std::size_t>(p), cp, l);
      Post(s, parity, r, l ^ 1, pkt);
      if constexpr (kSparse) {
        s->receivers.push_back(static_cast<ProcId>(r));
      }
      return;
    }
  }
  for (std::size_t k = 0; k < q.size(); ++k) {
    Packet& pkt = q[k];
    if (pkt.dest == p) continue;
    int dim, dir;
    const std::int64_t rem = Hop<kFaults>(cp, base, pkt, step, dim, dir);
    if (kFaults && dim < 0) {
      // Every outgoing link is dead: the packet holds in place. This is
      // the one wait that never reaches the winner comparison, so it is
      // recorded here.
      if (opts_.journeys != nullptr) {
        opts_.journeys->RecordWait(s->events, pkt.id, p, step,
                                   JourneyEvent::kWaitLinksDead, -1, 0);
      }
      continue;
    }
    const std::size_t l = static_cast<std::size_t>(dim * 2 + dir);
    // Farthest remaining distance wins; ties to the smaller packet id.
    // Every bidder that does not end up winning is displaced (or rejected)
    // exactly once, which is where the journey tracer learns about waits:
    // a packet bids one link per step, so one lost-bid event per loser per
    // step — the contention half of the latency decomposition.
    if ((used & (std::uint32_t{1} << l)) == 0) {
      used |= std::uint32_t{1} << l;
      win[l] = static_cast<std::int32_t>(k);
      prio[l] = rem;
    } else if (rem > prio[l] ||
               (rem == prio[l] &&
                pkt.id < q[static_cast<std::size_t>(win[l])].id)) {
      if (opts_.journeys != nullptr) {
        opts_.journeys->RecordWait(s->events,
                                   q[static_cast<std::size_t>(win[l])].id, p,
                                   step, JourneyEvent::kWaitLostBid, dim, dir);
      }
      win[l] = static_cast<std::int32_t>(k);
      prio[l] = rem;
    } else {
      if (opts_.journeys != nullptr) {
        opts_.journeys->RecordWait(s->events, pkt.id, p, step,
                                   JourneyEvent::kWaitLostBid, dim, dir);
      }
    }
  }
  if constexpr (kRecordSlots) {
    for (std::size_t l = 0; l < links; ++l) {
      slot_[base + l] = (used & (std::uint32_t{1} << l)) != 0 ? win[l] : -1;
    }
  }
  while (used != 0) {
    const auto l = static_cast<std::size_t>(std::countr_zero(used));
    used &= used - 1;
    Packet& pkt = q[static_cast<std::size_t>(win[l])];
    pkt.flags |= Packet::kMoving;
    // Hand the packet to the receiver's mailbox row. Link l = dim*2+dir
    // lands in the receiver's dim*2+(1-dir) entry (l ^ 1): the entry
    // indexed by the direction the receiver sees us in. Each directed
    // link has exactly one possible writer, so the scatter is race-free.
    // (Boundary links never win: NextHop never points off the mesh and
    // the faulted policy's alive check filters them.)
    const std::size_t r = Receiver(static_cast<std::size_t>(p), cp, l);
    Post(s, parity, r, l ^ 1, pkt);
    if constexpr (kSparse) {
      // The receiver joins the commit set for `step`.
      s->receivers.push_back(static_cast<ProcId>(r));
    }
  }
}

template <bool kFaults>
ProcId Engine::BidLate(PacketQueue* const* slots, ProcId p, std::int64_t step) {
  const auto links = static_cast<std::size_t>(2 * d_);
  const std::size_t base = static_cast<std::size_t>(p) * links;
  PacketQueue& q = *slots[static_cast<std::size_t>(p)];
  Packet& pkt = q[q.size() - 1];
  const std::int32_t* cp =
      &coords_[static_cast<std::size_t>(p) * static_cast<std::size_t>(d_)];
  WorkerScratch& s = scratch_[0];
  int dim, dir;
  const std::int64_t rem = Hop<kFaults>(cp, base, pkt, step, dim, dir);
  if (kFaults && dim < 0) {
    if (opts_.journeys != nullptr) {
      opts_.journeys->RecordWait(s.events, pkt.id, p, step,
                                 JourneyEvent::kWaitLinksDead, -1, 0);
    }
    return -1;
  }
  const auto l = static_cast<std::size_t>(dim * 2 + dir);
  const std::size_t r = Receiver(static_cast<std::size_t>(p), cp, l);
  const int parity = static_cast<int>(step & 1);
  const auto par = static_cast<std::size_t>(parity);
  if (in_mask_[par * (in_mask_.size() / 2) + r * mask_stride_ + (l ^ 1)] == 0) {
    // A free link: one new arena entry, as a bid would have posted.
    pkt.flags |= Packet::kMoving;
    Post(&s, parity, r, l ^ 1, pkt);
    return static_cast<ProcId>(r);
  }
  // The link has a winner; only p posts to this entry, so the winner is in
  // q. Re-deriving its priority is safe: the hop choice is idempotent on
  // the flags it writes.
  const std::uint32_t h = in_hdl_[par * (in_hdl_.size() / 2) + r * links + (l ^ 1)];
  Packet& posted = scratch_[h & ((std::uint32_t{1} << shard_bits_) - 1)]
                       .arena[parity][h >> shard_bits_];
  std::size_t w = 0;
  while (q[w].id != posted.id) ++w;
  Packet& win = q[w];
  int wdim, wdir;
  const std::int64_t wrem = Hop<kFaults>(cp, base, win, step, wdim, wdir);
  assert(wdim == dim && wdir == dir);
  const bool takes = rem > wrem || (rem == wrem && pkt.id < win.id);
  if (opts_.journeys != nullptr) {
    opts_.journeys->RecordWait(s.events, takes ? win.id : pkt.id, p, step,
                               JourneyEvent::kWaitLostBid, dim, dir);
  }
  if (takes) {
    win.flags &= static_cast<std::uint16_t>(~Packet::kMoving);
    pkt.flags |= Packet::kMoving;
    posted = pkt;
  }
  return -1;
}

bool Engine::CommitProc(PacketQueue** slots, ProcId p, std::int32_t now,
                        bool count_dirs, bool retire, bool hold, int parity,
                        WorkerScratch& s) {
  const auto links = static_cast<std::size_t>(2 * d_);
  PacketQueue*& slot = slots[static_cast<std::size_t>(p)];
  PacketQueue* q = slot;
  bool inflight = false;
  std::size_t retired = 0;
  if (q != nullptr) {
    // Stayers: compact everything not selected to move out, preserving
    // order (equivalent to the stayers-first rebuild of a fresh queue).
    std::size_t w = 0;
    const std::size_t sz = q->size();
    for (std::size_t i = 0; i < sz; ++i) {
      Packet& pkt = (*q)[i];
      if ((pkt.flags & Packet::kMoving) == 0) {
        if (pkt.arrived < 0) {
          inflight = true;
          // The fused bid that follows needs this stayer's destination
          // coordinates — a random access; start the load now.
          __builtin_prefetch(
              &coords_[static_cast<std::size_t>(pkt.dest) *
                       static_cast<std::size_t>(d_)]);
        }
        if (w != i) (*q)[w] = pkt;
        ++w;
      }
    }
    q->resize(w);
  }
  // Incomers: one per directed in-link, consumed through p's own mailbox
  // row in canonical (dim, dir) order. Everything written here is p-local;
  // the bidders' arenas are only read. The padded presence row collapses
  // the common "no incomers" case to one or two aligned 8-byte loads.
  const std::size_t rows = static_cast<std::size_t>(topo_->size());
  std::uint8_t* const mrow =
      in_mask_.data() +
      (static_cast<std::size_t>(parity) * rows + static_cast<std::size_t>(p)) *
          mask_stride_;
  const std::uint32_t* const row =
      in_hdl_.data() +
      (static_cast<std::size_t>(parity) * rows + static_cast<std::size_t>(p)) *
          links;
  const std::uint32_t shard_mask = (std::uint32_t{1} << shard_bits_) - 1;
  for (std::size_t wi = 0; wi < mask_stride_; wi += 8) {
    // Each presence byte is 0 or 1, so the row word has at most one set
    // bit per byte: countr_zero(word) >> 3 walks the occupied entries in
    // ascending (canonical) link order with no per-link branch, and one
    // zero store consumes the whole word.
    std::uint64_t word;
    std::memcpy(&word, mrow + wi, sizeof(word));
    if (word == 0) continue;
    const std::uint64_t zero = 0;
    std::memcpy(mrow + wi, &zero, sizeof(zero));
    while (word != 0) {
      const std::size_t l =
          wi + (static_cast<std::size_t>(std::countr_zero(word)) >> 3);
      word &= word - 1;
      const std::uint32_t h = row[l];
      Packet pkt = scratch_[h & shard_mask].arena[parity][h >> shard_bits_];
      const bool detoured = (pkt.flags & Packet::kDetour) != 0;
      if (have_faults_ && detoured) {
        ++s.detours;
      }
      pkt.flags &= static_cast<std::uint16_t>(
          ~(Packet::kMoving | Packet::kDetour));
      ++s.moves;
      if (count_dirs) {
        // Entry l arrived from p's (dim, dir) neighbor, i.e. it crossed the
        // sender's (dim, 1-dir) directed link — index l ^ 1.
        ++s.dir_moves[l ^ 1];
      }
      bool retargeted = false;
      if (pkt.dest == p) {
        if ((pkt.flags & Packet::kTwoLeg) != 0) {
          // Midpoint reached: retarget to the final destination and
          // keep going next step — no barrier between the phases.
          pkt.dest = static_cast<ProcId>(pkt.tag);
          pkt.flags &= static_cast<std::uint16_t>(~Packet::kTwoLeg);
          retargeted = true;
          if (pkt.dest == p) {
            pkt.arrived = now;
            ++s.arrivals;
          }
        } else {
          pkt.arrived = now;
          ++s.arrivals;
        }
      }
      if (opts_.journeys != nullptr) {
        std::uint8_t jflags = 0;
        if (detoured) jflags |= JourneyEvent::kDetour;
        if (retargeted) jflags |= JourneyEvent::kRetarget;
        if (pkt.arrived >= 0) jflags |= JourneyEvent::kDelivered;
        opts_.journeys->RecordMove(s.events, pkt.id, p, now,
                                   static_cast<int>(l >> 1),
                                   static_cast<int>((l & 1) ^ 1), jflags);
      }
      if (pkt.arrived < 0) {
        inflight = true;
        __builtin_prefetch(
            &coords_[static_cast<std::size_t>(pkt.dest) *
                     static_cast<std::size_t>(d_)]);
      } else if (retire) {
        s.delivered.push_back(pkt);
        ++retired;
        continue;
      }
      if (q == nullptr) {
        q = s.lane->Take();
        slot = q;
      }
      q->push_back(pkt);
    }
  }
  std::size_t size = 0;
  if (q != nullptr) {
    size = q->size();
    // An empty queue's block goes back to this worker's lane, so storage
    // follows the occupied processors — unless the pass holds blocks (see
    // the pass loop).
    if (size == 0 && !hold) {
      s.lane->Give(q);
      slot = nullptr;
    }
  }
  s.qmax = std::max<std::int64_t>(s.qmax,
                                  static_cast<std::int64_t>(size + retired));
  return inflight;
}

void Engine::RebuildActiveSet(PacketQueue** slots, QueueLane& lane) {
  const ProcId N = topo_->size();
  active_.clear();
  for (ProcId p = 0; p < N; ++p) {
    PacketQueue* const q = slots[static_cast<std::size_t>(p)];
    if (q == nullptr) continue;
    if (q->empty()) {
      lane.Give(q);
      slots[static_cast<std::size_t>(p)] = nullptr;
      continue;
    }
    for (const Packet& pkt : *q) {
      if (pkt.arrived < 0) {
        active_.push_back(p);
        break;
      }
    }
  }
}

void Engine::RebuildTouched(PacketQueue** slots, QueueLane& lane,
                            int parity) {
  const ProcId N = topo_->size();
  touched_.clear();
  for (ProcId p = 0; p < N; ++p) {
    bool t = false;
    // In-flight packets include next step's movers (still queued, kMoving):
    // their sender must commit to drop them.
    if (PacketQueue* const q = slots[static_cast<std::size_t>(p)]) {
      if (q->empty()) {
        lane.Give(q);
        slots[static_cast<std::size_t>(p)] = nullptr;
      } else {
        for (const Packet& pkt : *q) {
          if (pkt.arrived < 0) {
            t = true;
            break;
          }
        }
      }
    }
    if (t || !MailboxRowEmpty(parity, static_cast<std::size_t>(p))) {
      touched_.push_back(p);
    }
  }
}

std::shared_ptr<StallReport> Engine::BuildStallReport(
    const Network& net, StallReason reason, std::int64_t step,
    std::int64_t no_progress) const {
  auto report = std::make_shared<StallReport>();
  report->reason = reason;
  report->step = step;
  report->no_progress_steps = no_progress;
  if (opts_.recorder != nullptr) {
    // Embed the per-step history leading into the abort, so a watchdog
    // report is diagnosable without rerunning under a probe.
    report->recent = opts_.recorder->Tail(StallReport::kRecentCap);
  }
  const bool torus = topo_->torus();
  for (ProcId p = 0; p < topo_->size(); ++p) {
    for (const Packet& pkt : net.At(p)) {
      if (pkt.arrived >= 0) continue;
      ++report->stuck_packets;
      if (report->sample.size() >= StallReport::kSampleCap) continue;
      StallReport::StuckPacket stuck;
      stuck.id = pkt.id;
      stuck.at = p;
      stuck.dest = pkt.dest;
      // Report the *fault-free preferred* hop: the link the packet wants,
      // which is the interesting one when it is dead.
      int dim, dir;
      stuck.remaining = NextHop(
          &coords_[static_cast<std::size_t>(p * d_)],
          &coords_[static_cast<std::size_t>(pkt.dest * d_)], d_, n_, torus,
          pkt.klass, dim, dir);
      if ((pkt.flags & Packet::kTwoLeg) != 0) {
        stuck.remaining += topo_->Dist(pkt.dest, static_cast<ProcId>(pkt.tag));
      }
      stuck.want_dim = dim;
      stuck.want_dir = dir;
      if (have_faults_ && dim >= 0) {
        const std::int64_t link = p * 2 * d_ + dim * 2 + dir;
        stuck.link_dead = link_dead_[static_cast<std::size_t>(link)] != 0;
        if (stuck.link_dead &&
            std::find(report->blocked_links.begin(),
                      report->blocked_links.end(),
                      link) == report->blocked_links.end()) {
          report->blocked_links.push_back(link);
        }
      }
      report->sample.push_back(stuck);
    }
  }
  return report;
}

RouteResult Engine::Route(Network& net) { return RouteInternal(net, nullptr); }

RouteResult Engine::Resume(Network& net, const EngineCheckpointState& state) {
  // Refuse anything that would silently continue a different run: the
  // resumed trace must be byte-identical to the uninterrupted one, and
  // that promise is meaningless across a topology, option, or injector
  // mismatch.
  if (state.d != d_ || state.n != n_ || state.torus != topo_->torus()) {
    throw std::invalid_argument(
        "Engine::Resume: checkpoint topology shape does not match");
  }
  if (state.options_hash != HashEngineOptions(opts_)) {
    throw std::invalid_argument(
        "Engine::Resume: checkpoint engine-options hash does not match");
  }
  if (state.injector_attached != (opts_.injector != nullptr)) {
    throw std::invalid_argument(
        "Engine::Resume: injector presence does not match the checkpoint");
  }
  if (state.queues.size() != static_cast<std::size_t>(topo_->size())) {
    throw std::invalid_argument(
        "Engine::Resume: checkpoint queue table does not match the topology");
  }
  if (state.fault_cursor > events_.size()) {
    throw std::invalid_argument(
        "Engine::Resume: fault cursor beyond the plan's event schedule");
  }
  if (opts_.injector != nullptr &&
      !opts_.injector->RestoreState(state.injector_state.data(),
                                    state.injector_state.size())) {
    throw std::invalid_argument(
        "Engine::Resume: injector rejected its checkpoint state");
  }
  net.Clear();
  for (std::size_t p = 0; p < state.queues.size(); ++p) {
    for (const Packet& pkt : state.queues[p]) {
      net.Add(static_cast<ProcId>(p), pkt);
    }
  }
  return RouteInternal(net, &state);
}

RouteResult Engine::RouteInternal(Network& net,
                                  const EngineCheckpointState* resume) {
  RouteResult result;
  const ProcId N = topo_->size();
  const auto links = static_cast<std::size_t>(2 * d_);
  // The directory, and one pool lane per worker: a commit takes and gives
  // blocks through its own worker's lane, the coordinator through lane 0.
  PacketQueue** const slots = net.slots();
  const std::size_t nshards = std::max<std::size_t>(1, opts_.pool->workers());
  QueueLane* const lanes = net.BalanceLanes(nshards);
  // Journey tracing: one BeginRun per Route; events drain per step in
  // reduce_scratch and finalize in the epilogue.
  JourneyTracer* const jt = opts_.journeys;
  if (jt != nullptr) jt->BeginRun();

  // Initialize per-packet measurement state. Two-leg packets (overlapped
  // routing) count their full path as the distance; a zero-length first leg
  // retargets immediately. A resumed run restores the accumulators instead:
  // the queues already carry fully initialized mid-run packets (dist0,
  // arrived stamps, detour locks) verbatim from the checkpoint.
  StepInjector* const injector = opts_.injector;
  std::int64_t in_flight = 0;  // packets not yet at their final destination
  if (resume == nullptr) {
    for (ProcId p = 0; p < N; ++p) {
      PacketQueue* const qp = slots[static_cast<std::size_t>(p)];
      if (qp == nullptr) continue;
      PacketQueue& q = *qp;
      result.max_queue =
          std::max(result.max_queue, static_cast<std::int64_t>(q.size()));
      std::size_t w = 0;
      for (std::size_t i = 0; i < q.size(); ++i) {
        Packet pkt = q[i];
        pkt.flags &= static_cast<std::uint16_t>(
            ~(Packet::kMoving | Packet::kDetour | Packet::kLockMask));
        if ((pkt.flags & Packet::kTwoLeg) != 0) {
          pkt.dist0 = static_cast<std::int32_t>(
              topo_->Dist(p, pkt.dest) +
              topo_->Dist(pkt.dest, static_cast<ProcId>(pkt.tag)));
          if (pkt.dest == p) {
            pkt.dest = static_cast<ProcId>(pkt.tag);
            pkt.flags &= static_cast<std::uint16_t>(~Packet::kTwoLeg);
          }
        } else {
          pkt.dist0 = static_cast<std::int32_t>(topo_->Dist(p, pkt.dest));
        }
        pkt.arrived = pkt.dest == p ? 0 : -1;
        if (jt != nullptr) {
          // Preloads start at t0 = 0, so latency = arrived.
          jt->RecordInjected(pkt.id, p, 0, pkt.dist0, pkt.arrived == 0);
        }
        if (pkt.dest != p) ++in_flight;
        result.max_distance = std::max<std::int64_t>(result.max_distance, pkt.dist0);
        ++result.packets;
        if (injector != nullptr) {
          // Open-loop runs stamp preloads as injected at step 1 (latency
          // arrived - tag + 1 = arrived) and retire the ones already home
          // right here with latency 0.
          pkt.tag = 1;
          if (pkt.arrived == 0) {
            result.overshoot.Add(0.0);
            injector->OnDeliver(pkt, 0);
            continue;
          }
        }
        q[w++] = pkt;
      }
      q.resize(w);
      if (w == 0) {
        // Empty (an injector retired every preload, or a caller's At()
        // left it so): from here on, only occupied processors hold blocks.
        lanes[0].Give(qp);
        slots[static_cast<std::size_t>(p)] = nullptr;
      }
    }
  } else {
    in_flight = resume->in_flight;
    result.packets = resume->packets;
    result.max_distance = resume->max_distance;
    result.sparse_steps = resume->sparse_steps;
    result.peak_active_procs = resume->peak_active_procs;
    result.max_overshoot = resume->max_overshoot;
    result.overshoot.RestoreMoments(resume->overshoot_count,
                                    resume->overshoot_mean, resume->overshoot_m2,
                                    resume->overshoot_min, resume->overshoot_max);
    result.max_queue = resume->queue_max;
  }
  // Blocks in processor order, so a nearly full mesh's dense sweep streams
  // through them.
  net.LayOutInOrder();
  // Directed links: 2d per processor on the torus; meshes lose the boundary
  // links (each dimension has 2*(n-1)*n^(d-1) directed links).
  result.links = topo_->torus()
                     ? 2ll * d_ * N
                     : 2ll * d_ * N * (n_ - 1) / n_;

  std::int64_t cap = opts_.step_cap;
  if (cap <= 0) {
    if (injector != nullptr) {
      // The injector owns termination (kDrain/kStop); the preload-scaled
      // auto cap below would cut a continuous run short.
      cap = std::numeric_limits<std::int64_t>::max();
    } else {
      const std::int64_t load =
          std::max<std::int64_t>(1, CeilDiv(result.packets, N));
      cap = 4 * load * (topo_->Diameter() + n_) + 4096;
    }
  }

  // A previous aborted Route left speculative next-step bids in the
  // mailbox; clear the presence rows once, lazily.
  if (mailbox_dirty_) {
    std::fill(in_mask_.begin(), in_mask_.end(), 0);
    mailbox_dirty_ = false;
  }

  // Fault bookkeeping. Flap windows are relative to each Route call, so the
  // transient state resets here.
  std::size_t event_cursor = 0;
  if (have_faults_) {
    link_dead_ = link_dead_perm_;
    std::fill(flap_count_.begin(), flap_count_.end(), 0);
    if (resume != nullptr) {
      // Replay the flap events the original run already applied to rebuild
      // the per-link masks; fault_events_total was accumulated by that run
      // and restores directly, so the replay must not re-count.
      while (event_cursor < resume->fault_cursor &&
             event_cursor < events_.size()) {
        const FaultPlan::FlapEvent& ev = events_[event_cursor++];
        const auto l = static_cast<std::size_t>(ev.link);
        flap_count_[l] += ev.delta;
        link_dead_[l] = (link_dead_perm_[l] != 0 || flap_count_[l] > 0) ? 1 : 0;
      }
    }
  }

  // Stall watchdog: abort after `stall_window` consecutive steps in which
  // nothing moved and no fault event fired (instead of burning to the cap).
  std::int64_t stall_window = opts_.stall_window;
  if (stall_window == 0) {
    stall_window = kDefaultStallWindow;
    if (opts_.faults != nullptr) {
      stall_window += 2 * opts_.faults->max_flap_duration();
    }
  }
  const bool watchdog_on = stall_window > 0;
  std::int64_t no_progress = resume != nullptr ? resume->no_progress : 0;
  bool watchdog_fired = false;

  // Injector-driven runs bypass the checker: its conservation invariant
  // assumes a closed packet population, which per-step injection and
  // delivery retirement both violate by design.
  std::unique_ptr<InvariantChecker> checker;
  if (opts_.injector == nullptr && InvariantsEnabled(opts_.invariants)) {
    checker = std::make_unique<InvariantChecker>(*topo_);
    checker->BeginRun(net);
  }

  // Per-worker scratch arenas replace the old per-step atomics and vector
  // allocations. Probe support (per-dimension move counters, histograms) is
  // entirely behind this one null check — an unobserved run never touches
  // dir_moves again.
  StepProbe* const probe = opts_.probe;
  // The flight recorder shares the probe's per-dimension move counters and
  // stamps this engine's manifest so a mid-run dump is self-describing.
  static_assert(FlightRecord::kMaxDims >= kMaxDim,
                "FlightRecord must cover every topology dimension");
  FlightRecorder* const recorder = opts_.recorder;
  if (recorder != nullptr) recorder->set_manifest(*manifest_);
  const bool count_dirs = probe != nullptr || recorder != nullptr;
  const bool want_hist = probe != nullptr && probe->WantsQueueHistogram();
  if (scratch_.size() != nshards) scratch_.resize(nshards);
  for (std::size_t i = 0; i < nshards; ++i) {
    WorkerScratch& s = scratch_[i];
    s.lane = &lanes[i];
    s.dir_moves.assign(count_dirs ? links : 0, 0);
    s.receivers.clear();
    s.delivered.clear();
    s.shard = static_cast<std::uint32_t>(i);
    // An aborted Route may have left speculative bids in the arenas.
    s.arena[0].clear();
    s.arena[1].clear();
  }
  std::vector<std::int64_t> dir_moves_snapshot(count_dirs ? links : 0);
  // One queue histogram per Route, refilled each step, and only when the
  // probe asks for it: the step loop itself never allocates.
  Histogram queue_hist(want_hist ? kQueueHistBuckets : 0);

  const double threshold = std::clamp(opts_.sparse_threshold, 0.0, 1.0);
  const bool have_faults = have_faults_;
  std::int64_t arrivals_total = resume != nullptr ? resume->arrivals_total : 0;
  std::int64_t moves_total = resume != nullptr ? resume->moves_total : 0;
  std::int64_t detours_total = resume != nullptr ? resume->detours_total : 0;
  std::int64_t fault_events_total =
      resume != nullptr ? resume->fault_events_total : 0;
  std::int64_t queue_max = result.max_queue;
  std::int64_t step = resume != nullptr ? resume->step : 0;

  // Applies the flap edges scheduled for step `at`; returns whether any
  // fired (the watchdog treats a fault event as progress).
  const auto apply_events = [&](std::int64_t at) {
    bool fired = false;
    if (have_faults) {
      while (event_cursor < events_.size() &&
             events_[event_cursor].step == at) {
        const FaultPlan::FlapEvent& ev = events_[event_cursor++];
        const auto l = static_cast<std::size_t>(ev.link);
        flap_count_[l] += ev.delta;
        assert(flap_count_[l] >= 0);
        link_dead_[l] = (link_dead_perm_[l] != 0 || flap_count_[l] > 0) ? 1 : 0;
        fired = true;
        ++fault_events_total;
      }
    }
    return fired;
  };

  const auto mode_for = [&](std::int64_t remaining) {
    switch (opts_.sparse) {
      case SparseMode::kAlways:
        return true;
      case SparseMode::kNever:
        return false;
      case SparseMode::kAuto:
      default:
        // In-flight packets upper-bound the occupied processors, and the
        // count is already on hand — no occupancy scan needed.
        return static_cast<double>(remaining) <=
               threshold * static_cast<double>(N);
    }
  };

  // Called before every pass; `bid_parity` is the mailbox buffer the pass
  // bids into, whose arenas still hold bids an earlier pass consumed.
  const auto reset_scratch = [&](int bid_parity) {
    for (WorkerScratch& s : scratch_) {
      s.arrivals = 0;
      s.moves = 0;
      s.detours = 0;
      s.qmax = 0;
      s.receivers.clear();
      s.arena[bid_parity].clear();
    }
    if (count_dirs) {
      for (WorkerScratch& s : scratch_) {
        std::fill(s.dir_moves.begin(), s.dir_moves.end(), 0);
      }
    }
  };

  // Deterministic reduction: worker order is fixed, sums and maxima are
  // order-insensitive anyway. Returns (step arrivals, step moves).
  const auto reduce_scratch = [&]() -> std::pair<std::int64_t, std::int64_t> {
    std::int64_t step_arrivals = 0;
    std::int64_t step_moves = 0;
    for (const WorkerScratch& s : scratch_) {
      step_arrivals += s.arrivals;
      step_moves += s.moves;
      detours_total += s.detours;
      queue_max = std::max(queue_max, s.qmax);
    }
    if (jt != nullptr) {
      for (WorkerScratch& s : scratch_) jt->Drain(&s.events);
    }
    arrivals_total += step_arrivals;
    moves_total += step_moves;
    return {step_arrivals, step_moves};
  };

  // Observer, probe, flight recorder, interrupt poll, and watchdog for one
  // completed step; returns true when the run must abort (watchdog stall or
  // a pending SIGINT/SIGTERM — `interrupted` tells them apart).
  bool interrupted = false;
  const auto emit_step = [&](std::int64_t st, std::int64_t step_arrivals,
                             std::int64_t step_moves, bool fault_event,
                             std::int64_t active_procs,
                             std::int64_t step_injected) {
    result.peak_active_procs =
        std::max(result.peak_active_procs, active_procs);
    if (opts_.observer) {
      opts_.observer(st, in_flight - arrivals_total, step_arrivals);
    }
    if (count_dirs) {
      for (std::size_t i = 0; i < links; ++i) {
        std::int64_t v = 0;
        for (const WorkerScratch& s : scratch_) v += s.dir_moves[i];
        dir_moves_snapshot[i] = v;
      }
    }
    if (recorder != nullptr) {
      FlightRecord rec;
      rec.step = st;
      rec.in_flight = in_flight - arrivals_total;
      rec.arrivals = step_arrivals;
      rec.moves = step_moves;
      rec.injected = step_injected;
      rec.active_procs = active_procs;
      std::int64_t step_qmax = 0;
      for (const WorkerScratch& s : scratch_) {
        step_qmax = std::max(step_qmax, s.qmax);
      }
      rec.queue_max = step_qmax;
      rec.dims = d_;
      for (std::size_t i = 0; i < links; ++i) {
        rec.dir_moves[i] = dir_moves_snapshot[i];
      }
      recorder->Append(rec);
    }
    // Interrupt polling rides on the observability/checkpoint opt-ins: a
    // bare hot-path run never pays the atomic load per step.
    if ((recorder != nullptr || opts_.checkpoint != nullptr) &&
        FlightRecorder::InterruptRequested()) {
      interrupted = true;
      return true;
    }
    if (probe != nullptr) {
      StepSnapshot snap;
      snap.step = st;
      snap.in_flight = in_flight - arrivals_total;
      snap.arrivals = step_arrivals;
      snap.moves = step_moves;
      snap.dims = d_;
      snap.dim_dir_moves = dir_moves_snapshot.data();
      snap.active_procs = active_procs;
      snap.injected = step_injected;
      if (want_hist) {
        queue_hist.Clear();
        for (ProcId p = 0; p < N; ++p) {
          const PacketQueue* q = slots[static_cast<std::size_t>(p)];
          queue_hist.Add(q != nullptr ? static_cast<std::int64_t>(q->size())
                                      : 0);
        }
        snap.queue_hist = &queue_hist;
      }
      probe->OnStep(snap);
    }
    if (watchdog_on) {
      if (step_moves == 0 && !fault_event) {
        ++no_progress;
      } else {
        no_progress = 0;
      }
      if (no_progress >= stall_window && in_flight > arrivals_total) {
        return true;
      }
    }
    return false;
  };

  bool injector_stopped = false;

  // Checkpointing. `injecting` lives at function scope (instead of inside
  // the injection helper) because the snapshot must capture it;
  // non-injector runs never read it. Snapshots are taken at clean step
  // boundaries only — after a pass that committed without bidding ahead,
  // every queue is free of the kMoving scratch bit and the step's mailbox
  // buffer is fully consumed, so queues + accumulators + the injector blob
  // are the whole state.
  bool injecting = resume != nullptr ? resume->injecting : true;
  CheckpointSink* const sink = opts_.checkpoint;
  const auto save_checkpoint = [&](const char* cause) {
    EngineCheckpointState st;
    st.d = d_;
    st.n = n_;
    st.torus = topo_->torus();
    st.options_hash = HashEngineOptions(opts_);
    st.injector_attached = injector != nullptr;
    st.step = step;
    st.in_flight = in_flight;
    st.arrivals_total = arrivals_total;
    st.moves_total = moves_total;
    st.detours_total = detours_total;
    st.fault_events_total = fault_events_total;
    st.queue_max = queue_max;
    st.no_progress = no_progress;
    st.injecting = injecting;
    st.packets = result.packets;
    st.max_distance = result.max_distance;
    st.sparse_steps = result.sparse_steps;
    st.peak_active_procs = result.peak_active_procs;
    st.max_overshoot = result.max_overshoot;
    st.overshoot_count = result.overshoot.count();
    st.overshoot_mean = result.overshoot.mean();
    st.overshoot_m2 = result.overshoot.m2();
    st.overshoot_min = result.overshoot.min();
    st.overshoot_max = result.overshoot.max();
    st.fault_cursor = static_cast<std::uint64_t>(event_cursor);
    st.queues.resize(static_cast<std::size_t>(N));
    for (ProcId p = 0; p < N; ++p) {
      if (const PacketQueue* q = slots[static_cast<std::size_t>(p)]) {
        st.queues[static_cast<std::size_t>(p)].assign(q->begin(), q->end());
      }
    }
    if (injector != nullptr) injector->SaveState(&st.injector_state);
    sink->Save(st, cause);
  };

  // Sparse commit sets. Marks dedupe through a word bitmap whose scan
  // emits touched_ ascending, so a pass walks queue memory sequentially;
  // the scan clears the words on the way. `marked`: the bitmap holds every
  // processor with an in-flight packet plus every receiver of the posted
  // bids. `active_valid`: active_ lists exactly the processors holding
  // in-flight packets (true right after a sparse pass).
  const std::size_t words = (static_cast<std::size_t>(N) + 63) / 64;
  if (touched_bits_.size() != words) touched_bits_.assign(words, 0);
  const auto mark = [&](ProcId p) {
    touched_bits_[static_cast<std::size_t>(p) >> 6] |=
        std::uint64_t{1} << (static_cast<std::size_t>(p) & 63);
  };
  const auto mark_bids = [&] {
    for (ProcId p : active_) mark(p);
    for (const WorkerScratch& s : scratch_) {
      for (ProcId r : s.receivers) mark(r);
    }
  };
  const auto scan_marks = [&] {
    touched_.clear();
    for (std::size_t wd = 0; wd < touched_bits_.size(); ++wd) {
      std::uint64_t bits = touched_bits_[wd];
      if (bits == 0) continue;
      touched_bits_[wd] = 0;
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        touched_.push_back(
            static_cast<ProcId>((wd << 6) | static_cast<std::size_t>(bit)));
      }
    }
  };
  bool marked = false;
  bool active_valid = false;

  // Bids step `at` for every processor holding an in-flight packet in one
  // dispatch: the pipeline's bootstrap at Route/Resume start and after
  // every clean step (every later bid rides a commit). Under the checker
  // it publishes the winner slots and runs the slot and active-set checks
  // the bids are specified on.
  const bool record_slots = checker != nullptr;
  const auto bid_all = [&](std::int64_t at, bool sparse) {
    const int parity = static_cast<int>(at & 1);
    reset_scratch(parity);
    using BidFn = void (Engine::*)(PacketQueue* const*, ProcId, std::int64_t,
                                   int, WorkerScratch*);
    static constexpr BidFn kBid[2][2][2] = {  // [faults][sparse][slots]
        {{&Engine::BidProc<false, false, false>,
          &Engine::BidProc<false, false, true>},
         {&Engine::BidProc<false, true, false>,
          &Engine::BidProc<false, true, true>}},
        {{&Engine::BidProc<true, false, false>,
          &Engine::BidProc<true, false, true>},
         {&Engine::BidProc<true, true, false>,
          &Engine::BidProc<true, true, true>}}};
    const BidFn bid = kBid[have_faults][sparse][record_slots];
    if (sparse) {
      if (!active_valid) RebuildActiveSet(slots, lanes[0]);
      if (record_slots && !slots_clean_) {
        // CheckSlots scans every slot row, so entering sparse mode after
        // a dense bid must erase that bid's winners once; sparse steps
        // then keep the rows clean incrementally.
        std::fill(slot_.begin(), slot_.end(), -1);
        slots_clean_ = true;
      }
      const auto na = static_cast<std::int64_t>(active_.size());
      const std::int64_t chunk =
          CeilDiv(na, static_cast<std::int64_t>(opts_.pool->ShardsFor(na)));
      opts_.pool->ParallelFor(na, [&](std::int64_t b, std::int64_t e) {
        WorkerScratch* const s = &scratch_[static_cast<std::size_t>(b / chunk)];
        for (std::int64_t i = b; i < e; ++i) {
          (this->*bid)(slots, active_[static_cast<std::size_t>(i)], at,
                       parity, s);
        }
      });
      mark_bids();
      marked = true;
      if (checker != nullptr) checker->CheckActiveSet(net, active_, at);
    } else {
      const std::int64_t chunk =
          CeilDiv(N, static_cast<std::int64_t>(opts_.pool->ShardsFor(N)));
      opts_.pool->ParallelFor(N, [&](std::int64_t b, std::int64_t e) {
        WorkerScratch* const s = &scratch_[static_cast<std::size_t>(b / chunk)];
        for (ProcId p = b; p < e; ++p) (this->*bid)(slots, p, at, parity, s);
      });
      slots_clean_ = false;  // a dense checker bid wrote every row
    }
    if (checker != nullptr) {
      checker->CheckSlots(net, slot_, have_faults ? link_dead_.data() : nullptr,
                          at);
    }
  };

  // Injection for step `at`, whose bids are already posted: the engine
  // stamps each packet, hands zero-hop ones straight back, and bids the
  // rest late against their link's current winner (BidLate). Returns the
  // number of packets injected.
  std::vector<std::pair<ProcId, Packet>> batch;
  const auto inject = [&](std::int64_t at) -> std::int64_t {
    batch.clear();
    const InjectAction action = injector->Inject(at, &batch);
    if (action != InjectAction::kContinue) injecting = false;
    if (action == InjectAction::kStop) injector_stopped = true;
    for (auto& [src, pkt] : batch) {
      pkt.flags &= static_cast<std::uint16_t>(
          ~(Packet::kMoving | Packet::kDetour | Packet::kLockMask |
            Packet::kTwoLeg));
      pkt.tag = at;
      pkt.dist0 = static_cast<std::int32_t>(topo_->Dist(src, pkt.dest));
      result.max_distance =
          std::max<std::int64_t>(result.max_distance, pkt.dist0);
      ++result.packets;
      if (jt != nullptr) {
        // Injected before the moves of `at`: the packet can move that very
        // step, so t0 = at - 1 makes latency = moves + waits.
        jt->RecordInjected(pkt.id, src, at - 1, pkt.dist0, pkt.dest == src);
      }
      if (pkt.dest == src) {
        // Zero-hop traffic never enters the network: arrived is set one
        // step back so latency (arrived - tag + 1) reads 0.
        pkt.arrived = static_cast<std::int32_t>(at - 1);
        result.overshoot.Add(0.0);
        injector->OnDeliver(pkt, at);
        continue;
      }
      pkt.arrived = -1;
      PacketQueue*& q = slots[static_cast<std::size_t>(src)];
      if (q == nullptr) q = lanes[0].Take();
      q->push_back(pkt);
      ++in_flight;
      const ProcId r = have_faults ? BidLate<true>(slots, src, at)
                                   : BidLate<false>(slots, src, at);
      if (marked) {
        mark(src);
        if (r >= 0) mark(r);
      }
    }
    return static_cast<std::int64_t>(batch.size());
  };

  // Picks the traversal of the pass that commits step `at` (after its
  // injection, so the in-flight count is final) and builds its commit set:
  // one bitmap scan when the bids were marked, else one O(N) scan on a
  // dense-to-sparse switch.
  bool cur_sparse = false;
  bool holding = false;  // the last pass kept emptied blocks
  const auto plan_pass = [&](std::int64_t at) {
    const bool was_sparse = cur_sparse;
    cur_sparse = mode_for(in_flight - arrivals_total);
    // Sparse passes recycle blocks in any order; a dense sweep wants them
    // back in processor order.
    if (was_sparse && !cur_sparse) net.LayOutInOrder();
    if (marked) {
      scan_marks();
      marked = false;
    } else if (cur_sparse) {
      RebuildTouched(slots, lanes[0], static_cast<int>(at & 1));
    }
  };

  // The step loop. Each pass commits step S and, in the same traversal,
  // bids S+1 from the still-hot queue — each processor is visited once per
  // step with no mid-step barrier (the parity mailbox keeps the early S+1
  // scatter off step-S entries), so S+1's flap edges apply before pass S.
  // A clean pass only commits: under the checker, at checkpoint cadence,
  // and when the run is known to end at S (step cap, kStop, a pending
  // interrupt). The next step then bootstraps with a bid of its own.
  const bool poll_interrupt = recorder != nullptr || sink != nullptr;
  const auto continuing = [&] {
    return (injector != nullptr && injecting) || in_flight > arrivals_total;
  };
  std::int64_t step_injected = 0;  // injected at step + 1
  bool fault_event = false;        // a flap edge fires at step + 1
  bool posted = false;             // the mailbox holds step + 1's bids
  while (continuing() && step < cap) {
    if (!posted) {
      fault_event = apply_events(step + 1);
      bid_all(step + 1, mode_for(in_flight - arrivals_total));
    } else if (cur_sparse) {
      mark_bids();
      marked = true;
    }
    step_injected = injector != nullptr && injecting ? inject(step + 1) : 0;
    plan_pass(step + 1);
    ++step;
    const auto now = static_cast<std::int32_t>(step);
    const bool due = sink != nullptr && sink->Due(step);
    const bool clean =
        checker != nullptr || due || step == cap || injector_stopped ||
        (poll_interrupt && FlightRecorder::InterruptRequested());
    const bool next_fault_event = !clean && apply_events(step + 1);
    const int cparity = static_cast<int>(step & 1);  // commit buffer
    const int bparity = cparity ^ 1;                 // bid buffer (S+1)
    const bool retire = injector != nullptr;
    reset_scratch(bparity);
    net.BalanceLanes(nshards);
    // A dense pass over a nearly full mesh keeps the blocks of queues it
    // empties: most refill within a step or two, and recycling each one
    // would scramble the processor order of the blocks the sweep streams
    // through. It holds them only while the live blocks number at most
    // twice the packets in the network, so storage stays bounded by twice
    // the packets plus one step's emptied processors; the next dense pass
    // past that bound gives every empty block back. Sparse passes never revisit an
    // emptied processor, so they recycle at once, and the scan that
    // switches to sparse (RebuildTouched, RebuildActiveSet) gives back
    // what dense passes held.
    const std::int64_t resident =
        injector != nullptr ? in_flight - arrivals_total : result.packets;
    const bool hold = !cur_sparse && net.blocks_live() <= 2 * resident;
    holding = hold;
    std::int64_t nt = 0;
    if (cur_sparse) {
      ++result.sparse_steps;
      nt = static_cast<std::int64_t>(touched_.size());
      touched_inflight_.assign(static_cast<std::size_t>(nt), 0);
      if (nt > 0) {
        const std::int64_t chunk = CeilDiv(
            nt, static_cast<std::int64_t>(opts_.pool->ShardsFor(nt)));
        const std::size_t rows = static_cast<std::size_t>(N);
        opts_.pool->ParallelFor(nt, [&](std::int64_t b, std::int64_t e) {
          WorkerScratch& s = scratch_[static_cast<std::size_t>(b / chunk)];
          // The pass is memory-latency-bound (directory slots, queue
          // blocks, presence rows, destination coordinates are all strided
          // or random). Process in small batches — prefetch every batch
          // member's slot and rows, then its block, commit them all (the
          // commit also prefetches each survivor's destination
          // coordinates), then bid them all — so the misses of ~16
          // independent processors are in flight at once instead of one
          // serial chain. Reordering is safe: a commit touches only its
          // own slot, block and step-S rows, a bid writes only step-S+1
          // rows.
          constexpr std::int64_t kBatch = 16;
          for (std::int64_t i0 = b; i0 < e; i0 += kBatch) {
            const std::int64_t i1 = std::min(i0 + kBatch, e);
            for (std::int64_t i = i0; i < i1; ++i) {
              const auto pf = static_cast<std::size_t>(
                  touched_[static_cast<std::size_t>(i)]);
              __builtin_prefetch(&slots[pf]);
              __builtin_prefetch(
                  in_mask_.data() +
                  (static_cast<std::size_t>(cparity) * rows + pf) *
                      mask_stride_);
              __builtin_prefetch(
                  in_hdl_.data() +
                  (static_cast<std::size_t>(cparity) * rows + pf) * links);
            }
            for (std::int64_t i = i0; i < i1; ++i) {
              const PacketQueue* const q =
                  slots[static_cast<std::size_t>(touched_[static_cast<std::size_t>(i)])];
              if (q != nullptr) q->Prefetch();
            }
            for (std::int64_t i = i0; i < i1; ++i) {
              touched_inflight_[static_cast<std::size_t>(i)] =
                  CommitProc(slots, touched_[static_cast<std::size_t>(i)],
                             now, count_dirs, retire, false, cparity, s)
                      ? 1
                      : 0;
            }
            if (clean) continue;
            for (std::int64_t i = i0; i < i1; ++i) {
              if (touched_inflight_[static_cast<std::size_t>(i)] != 0) {
                const ProcId p = touched_[static_cast<std::size_t>(i)];
                if (have_faults) {
                  BidProc<true, true, false>(slots, p, step + 1, bparity,
                                             &s);
                } else {
                  BidProc<false, true, false>(slots, p, step + 1, bparity,
                                              &s);
                }
              }
            }
          }
        });
      }
    } else {
      const std::int64_t chunk =
          CeilDiv(N, static_cast<std::int64_t>(opts_.pool->ShardsFor(N)));
      opts_.pool->ParallelFor(N, [&](std::int64_t b, std::int64_t e) {
        WorkerScratch& s = scratch_[static_cast<std::size_t>(b / chunk)];
        // Commit-then-bid in small batches, as in the sparse pass: the
        // sequential arrays stream well, but the batch gap gives the
        // commit's destination-coordinate prefetches time to land
        // before the bids consume them. Blocks recycled since the last
        // re-lay break processor order, so each batch also starts loading
        // the next batch's blocks.
        constexpr std::int64_t kBatch = 16;
        const auto prefetch_blocks = [slots](std::int64_t from,
                                             std::int64_t to) {
          for (std::int64_t p = from; p < to; ++p) {
            const PacketQueue* const q = slots[static_cast<std::size_t>(p)];
            if (q != nullptr) q->Prefetch();
          }
        };
        prefetch_blocks(b, std::min(b + kBatch, e));
        for (std::int64_t p0 = b; p0 < e; p0 += kBatch) {
          const std::int64_t p1 = std::min(p0 + kBatch, e);
          prefetch_blocks(p1, std::min(p1 + kBatch, e));
          bool infl[kBatch];
          for (ProcId p = p0; p < p1; ++p) {
            // At partial occupancy most processors hold and receive
            // nothing: two loads decide that without a commit call.
            infl[p - p0] =
                (slots[static_cast<std::size_t>(p)] != nullptr ||
                 !MailboxRowEmpty(cparity, static_cast<std::size_t>(p))) &&
                CommitProc(slots, p, now, count_dirs, retire, hold, cparity,
                           s);
          }
          if (clean) continue;
          for (ProcId p = p0; p < p1; ++p) {
            if (infl[p - p0]) {
              if (have_faults) {
                BidProc<true, false, false>(slots, p, step + 1, bparity, &s);
              } else {
                BidProc<false, false, false>(slots, p, step + 1, bparity, &s);
              }
            }
          }
        }
      });
    }
    posted = !clean;
    const auto [step_arrivals, step_moves] = reduce_scratch();
    if (injector != nullptr) {
      // Retire this step's deliveries. Workers own ascending processor
      // ranges (the sparse commit set is ascending too), so shard order is
      // ascending processor order, then queue order.
      for (WorkerScratch& s : scratch_) {
        for (const Packet& pkt : s.delivered) {
          const std::int64_t over =
              (static_cast<std::int64_t>(pkt.arrived) - pkt.tag + 1) -
              pkt.dist0;
          result.overshoot.Add(static_cast<double>(over));
          result.max_overshoot = std::max(result.max_overshoot, over);
          injector->OnDeliver(pkt, step);
        }
        s.delivered.clear();
      }
    }
    std::int64_t active_procs = -1;
    if (cur_sparse) {
      if (record_slots) {
        // Re-clear the bidders' slot rows so the next CheckSlots pass
        // (which scans every row) sees no stale winners from processors
        // that leave the active set.
        for (ProcId p : active_) {
          const std::size_t base = static_cast<std::size_t>(p) * links;
          std::fill_n(slot_.begin() + static_cast<std::ptrdiff_t>(base),
                      links, -1);
        }
      }
      // The still-in-flight processors, O(|touched|): the next active set.
      active_.clear();
      for (std::int64_t i = 0; i < nt; ++i) {
        if (touched_inflight_[static_cast<std::size_t>(i)] != 0) {
          active_.push_back(touched_[static_cast<std::size_t>(i)]);
        }
      }
      active_procs = static_cast<std::int64_t>(active_.size());
    }
    active_valid = cur_sparse;
    if (checker != nullptr) {
      try {
        checker->CheckStep(net, step);
      } catch (...) {
        // Invariant violations throw; the black box must hit disk before
        // the exception unwinds past the engine.
        if (recorder != nullptr) recorder->Dump("invariant_failure");
        throw;
      }
    }
    if (emit_step(step, step_arrivals, step_moves,
                  fault_event || step_injected > 0, active_procs,
                  step_injected)) {
      watchdog_fired = true;
      break;
    }
    if (injector_stopped) break;
    if (posted) {
      fault_event = next_fault_event;
    } else if (due && continuing()) {
      save_checkpoint("cadence");
    }
  }
  if (posted) {
    // The run ended after a pass that already bid the next step: strip the
    // speculative bids (the mailbox clears lazily on the next Route) and
    // undo that step's flap edges, so the queues, the stall report and an
    // abort snapshot all show the end of the last completed step.
    if (in_flight > arrivals_total) {
      mailbox_dirty_ = true;
      for (ProcId p = 0; p < N; ++p) {
        PacketQueue* const q = slots[static_cast<std::size_t>(p)];
        if (q == nullptr) continue;
        for (Packet& pkt : *q) {
          pkt.flags &= static_cast<std::uint16_t>(~Packet::kMoving);
        }
      }
    }
    while (event_cursor > 0 && events_[event_cursor - 1].step > step) {
      const FaultPlan::FlapEvent& ev = events_[--event_cursor];
      const auto l = static_cast<std::size_t>(ev.link);
      flap_count_[l] -= ev.delta;
      link_dead_[l] = (link_dead_perm_[l] != 0 || flap_count_[l] > 0) ? 1 : 0;
      --fault_events_total;
    }
  }

  if (holding) {
    // Give back the blocks the last dense passes kept empty: a Route leaves
    // exactly one block per occupied processor.
    for (ProcId p = 0; p < N; ++p) {
      PacketQueue*& q = slots[static_cast<std::size_t>(p)];
      if (q != nullptr && q->empty()) {
        lanes[0].Give(q);
        q = nullptr;
      }
    }
  }

  result.steps = step;
  result.moves = moves_total;
  result.detours = detours_total;
  result.max_queue = queue_max;
  result.completed = in_flight == arrivals_total;
  if (!result.completed && !injector_stopped) {
    // A kStop verdict is a requested early exit, not a stall — the leftover
    // backlog is expected (completed stays false, no report).
    const StallReason reason = interrupted     ? StallReason::kInterrupt
                               : watchdog_fired ? StallReason::kWatchdog
                                                : StallReason::kStepCap;
    result.stall_report = BuildStallReport(net, reason, step, no_progress);
    // The black box dumps on every abort path; with no dump path set this
    // is a no-op (the report already embeds the ring's tail).
    if (recorder != nullptr) {
      recorder->Dump(result.stall_report->ReasonName());
    }
    // Every abort also leaves a resumable snapshot (cause = abort reason):
    // the loop exit stripped any bids and flap edges of the step after, so
    // the state is the end of the last completed step and a later Resume
    // picks up exactly here.
    if (sink != nullptr) {
      save_checkpoint(result.stall_report->ReasonName());
    }
  }
  // Consume the interrupt so a later Route (tests, multi-phase campaigns)
  // does not abort instantly on the stale flag.
  if (interrupted) FlightRecorder::ClearInterrupt();

  // Overshoot statistics. Injector runs accumulate per-packet overshoot at
  // retirement instead (their final queues hold only undelivered packets).
  if (injector == nullptr) {
    for (ProcId p = 0; p < N; ++p) {
      const PacketQueue* const q = slots[static_cast<std::size_t>(p)];
      if (q == nullptr) continue;
      for (const Packet& pkt : *q) {
        if (pkt.arrived < 0) continue;
        const std::int64_t over = pkt.arrived - pkt.dist0;
        result.overshoot.Add(static_cast<double>(over));
        result.max_overshoot = std::max(result.max_overshoot, over);
      }
    }
  }

  result.manifest = manifest_;

  // Journey epilogue: collect leftovers from abort paths (the per-step
  // drain only runs through reduce_scratch), trim the fused pipeline's
  // speculative step+1 bid waits, and derive the critical-path report.
  if (jt != nullptr) {
    for (WorkerScratch& s : scratch_) jt->Drain(&s.events);
    result.journeys = jt->Finalize(result.steps);
    result.critical_path = BuildCriticalPathReportShared(
        *result.journeys, *topo_, result.steps, result.packets,
        result.max_distance);
  }

  // Metrics recording: once per Route, after the step loop — nothing here
  // touches the hot path, and a null registry skips the block entirely.
  if (opts_.metrics != nullptr) {
    MetricsRegistry& m = *opts_.metrics;
    m.counter("engine.routes").Increment();
    m.counter("engine.steps").Add(result.steps);
    m.counter("engine.moves").Add(result.moves);
    m.counter("engine.packets").Add(result.packets);
    m.counter("engine.detours").Add(result.detours);
    m.counter("engine.sparse_steps").Add(result.sparse_steps);
    m.counter("engine.fault_events").Add(fault_events_total);
    m.gauge("engine.max_queue").Max(result.max_queue);
    m.gauge("engine.peak_active_procs").Max(result.peak_active_procs);
    m.histogram("engine.route_steps").Add(result.steps);
    if (result.stall_report != nullptr) {
      m.counter(std::string("engine.stall.") +
                result.stall_report->ReasonName())
          .Increment();
    }
    if (result.journeys != nullptr) {
      m.counter("engine.journeys.traced").Add(result.journeys->traced_packets);
      m.counter("engine.journeys.events")
          .Add(static_cast<std::int64_t>(result.journeys->events.size()));
      m.gauge("engine.journeys.bound_gap").Max(result.critical_path->bound_gap);
    }
  }
  return result;
}

}  // namespace mdmesh
