// Cycle-accurate synchronous routing engine (paper, Sections 1 and 2.2).
//
// Model: in one step every processor may transmit one packet across each of
// its <= 2d directed outgoing links. Packets follow the *extended greedy*
// scheme: a packet of class c corrects dimensions in the rotated order
// c, c+1 mod d, ..., c-1 mod d, moving one hop per step toward its
// destination coordinate (shorter way on tori, ties resolved to +1). When
// several resident packets want the same outgoing link, the one with the
// farthest remaining distance wins (ties broken by smaller packet id), which
// is the paper's contention rule.
//
// Execution strategy — two byte-identical traversal modes: a dense sweep
// visits every processor each step; below EngineOptions::sparse_threshold
// occupancy a sparse pass visits only the processors holding in-flight
// packets (maintained incrementally) plus the one-hop halo that receives
// traffic, skipping the ~90% of the mesh that sits idle during drains.
//
// Delivery goes through a receiver-indexed mailbox: the bid pass appends
// each winning packet to its worker's packet arena, writes a 4-byte handle
// to it into its receiver's 2d-entry row, and sets the matching presence
// byte (each directed link has a unique writer, so the scatter is
// race-free). A winner's receiver is p -/+ stride[dim], wrapped on the
// torus, computed from the coordinate row the bid already holds; there is
// no neighbor table. The commit pass is then fully local — it compacts the
// processor's own queue block in place and appends the incomers through
// the handles of its own contiguous row, touching no neighbor state. A
// commit that lands incomers on an empty processor takes a block from its
// worker's lane of the Network's pool, and one that leaves a queue empty
// gives the block back (net/network.h), so queue storage follows the
// occupied processors. The one exception: a dense pass keeps emptied
// blocks while the live blocks number at most twice the packets, so a nearly
// full mesh keeps its blocks in processor order instead of recycling them
// every step. The arenas hold only the packets bid in a step
// (O(1) per processor in the multi-packet model), so the mailbox costs 4
// bytes per directed link rather than a whole Packet.
//
// Because a commit is p-local, the engine pipelines steps: one pass over
// the commit set performs commit(S) and immediately bids step S+1 from the
// still-hot queue, so each processor is traversed once per step instead of
// once per phase — with no mid-step barrier at all. The mailbox is
// double-buffered by step parity (bids for step S write buffer S mod 2),
// which makes the pipelined scatter safe: a neighbor's early bid for S+1
// can never clobber an unconsumed step-S entry. This is the only step
// loop. A *clean* pass commits without bidding ahead, and the next step
// then bids on its own: every step under an active InvariantChecker (whose
// slot checks need the whole winner table between bid and commit), every
// checkpoint step, and a step the run is known to end on.
//
// Both traversals produce identical winner slots and identical queue
// contents (including order) at every step, for any thread count — the
// contention rule, extended-greedy order, and detour policy are shared
// code; only the traversal differs, and each directed link has a unique
// writer, so the parallel update is race-free by construction. Per-step
// counters accumulate into per-worker scratch arenas (no atomics, no
// per-step allocations) and are reduced by the coordinator in a fixed
// order.
//
// Fault injection (fault/fault_plan.h): when a FaultPlan is attached, a dead
// directed link transmits nothing that step, and packets route around
// permanent damage with an adaptive detour policy — preferred hop first,
// then the other uncorrected dimensions, then (torus-aware) the long way
// around, then a sidestep through an already-corrected dimension; a
// slack-driven rotation of the fallback order breaks detour cycles. A stall
// watchdog aborts with a structured StallReport instead of burning to the
// step cap when nothing moves for a whole window, and an opt-in
// InvariantChecker (net/invariants.h) validates conservation, link capacity,
// and active-set exactness per step. The fault-free hot path is untouched:
// with no plan (or an empty one) the engine behaves byte-identically to a
// fault-unaware one.
//
// Open-loop injection (workload/): when EngineOptions::injector is set,
// Route runs continuous traffic instead of the one-shot drain — the
// injector appends packets every step, delivered packets are handed back
// through StepInjector::OnDeliver and retired so memory stays bounded, and
// the run ends when the injector says so (see the StepInjector contract
// below). Injection rides the same pipeline: a pass sets its deliveries
// aside per worker, and after OnDeliver the injected packets each bid late
// against the current winner of their own outgoing link — the bids a full
// re-bid of the queue would give. With no injector configured, Route is
// byte-identical to an engine without injection support.
//
// Checkpoint/resume (net/engine_state.h, ckpt/): when
// EngineOptions::checkpoint is set, the engine snapshots its full state
// after clean passes (on the sink's cadence and on every abort) and
// Engine::Resume continues a run from such a snapshot, byte-identical to
// the uninterrupted run. With no sink the pipeline never pauses and Route
// pays nothing. See the CheckpointSink contract in net/engine_state.h.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "net/engine_state.h"
#include "net/invariants.h"
#include "net/metrics.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/journey.h"
#include "obs/probe.h"
#include "obs/registry.h"
#include "util/thread_pool.h"

namespace mdmesh {

/// Traversal policy for the step loop. Both paths are byte-identical in
/// routing behavior; kAlways/kNever exist for differential testing and for
/// benchmarking the crossover.
enum class SparseMode : std::uint8_t {
  kAuto,    ///< sparse once occupancy drops below sparse_threshold
  kAlways,  ///< force the active-set path from the first step
  kNever,   ///< force the dense full-mesh sweep
};

/// Verdict returned by StepInjector::Inject for one step.
enum class InjectAction : std::uint8_t {
  kContinue,  ///< keep going: Inject is called again next step
  kDrain,     ///< stop injecting; route until every packet is delivered
  kStop,      ///< end the run after this step (undelivered packets remain)
};

/// Open-loop per-step packet injection (workload/driver.h ships the standard
/// Bernoulli driver). Attached via EngineOptions::injector.
///
/// Contract:
///  * Inject(step, out) runs once per step on the coordinator thread, after
///    the previous step's OnDeliver calls; appended (source, packet) pairs
///    enter the source queue immediately and bid in that very step. The injector fills
///    id/dest/klass (ids unique — they break contention ties); the engine
///    overwrites dist0/arrived/flags and stamps the injection step into
///    Packet::tag, so latency = arrived - tag + 1. Packets preloaded in the
///    Network before Route are stamped tag = 1. A packet injected at its own
///    destination is handed straight to OnDeliver (latency 0) without
///    entering a queue. Because tag is repurposed for the injection step,
///    two-leg (kTwoLeg) packets are not supported in injector runs — the
///    flag is stripped on injection.
///  * OnDeliver(pkt, step) runs on the coordinator for every delivered
///    packet — ascending processor order, queue order within a processor —
///    after which the packet is retired from the network, keeping memory
///    bounded on continuous runs. Final queue contents therefore hold only
///    undelivered packets, unlike a plain Route call.
///  * After Inject returns kDrain it is never called again and the engine
///    routes until the network drains (or the step cap); kStop ends the run
///    once the current step commits.
///  * Injector-driven runs use the fused step loop (dense or sparse per
///    SparseMode, decided after each step's injection — newly injected
///    processors join the sparse commit set) and bypass the
///    InvariantChecker; results are identical for any thread count and
///    sparse mode. When opts.step_cap is 0 the cap is effectively
///    unbounded: the injector owns termination.
class StepInjector {
 public:
  virtual ~StepInjector() = default;

  /// Append this step's arrivals to `out` (cleared by the caller; entries
  /// are (source processor, packet)). Return what the engine should do next.
  virtual InjectAction Inject(std::int64_t step,
                              std::vector<std::pair<ProcId, Packet>>* out) = 0;

  /// Called once per delivered packet just before it is retired.
  virtual void OnDeliver(const Packet& pkt, std::int64_t step) {
    (void)pkt;
    (void)step;
  }

  /// Checkpoint support: serialize the injector's full state into `out`
  /// (cleared first) / restore it from a snapshot taken by SaveState.
  /// The engine calls SaveState at every checkpoint and RestoreState once
  /// in Resume, both at clean step boundaries, so an injector only has to
  /// round-trip its between-steps state (RNG streams, window cursors,
  /// histograms). RestoreState returns false on a malformed blob; Resume
  /// turns that into a structured failure instead of resuming silently.
  /// The defaults suit stateless injectors.
  virtual void SaveState(std::vector<std::uint8_t>* out) const {
    out->clear();
  }
  virtual bool RestoreState(const std::uint8_t* data, std::size_t size) {
    (void)data;
    return size == 0;
  }
};

struct EngineOptions {
  /// Hard stop; 0 means "auto" (scaled from diameter and load, generous
  /// enough for every algorithm in the paper; hitting it means a bug and is
  /// reported via RouteResult::completed = false plus a StallReport).
  std::int64_t step_cap = 0;

  /// Thread pool; nullptr uses ThreadPool::Global().
  ThreadPool* pool = nullptr;

  /// Per-step probes (obs/probe.h; each must outlive the engine). After
  /// every step the engine builds one StepSnapshot, appends it to the
  /// recorder (if any), then hands it to each probe in list order — all
  /// before the interrupt check, so probes and recorder see the same steps,
  /// the one an interrupt ends on included. While a probe or a recorder is
  /// attached the engine counts moves per directed dimension link, and it
  /// fills a queue-occupancy histogram when a probe asks for one. An empty
  /// list costs nothing: every snapshot-conditional piece of the step loop
  /// is behind one flag hoisted out of the loop.
  std::vector<StepProbe*> probes;

  /// Optional fault plan (must be built on the same topology; outlives the
  /// engine). Null or empty leaves the fault-free hot path byte-identical.
  const FaultPlan* faults = nullptr;

  /// Stall watchdog window: abort with a StallReport after this many
  /// consecutive steps in which no packet moved and no scheduled fault
  /// event fired. 0 picks an automatic window (generous against the plan's
  /// longest flap); < 0 disables the watchdog. A fault-free run always
  /// moves at least one packet per step, so the watchdog never fires there.
  std::int64_t stall_window = 0;

  /// Per-step invariant checking (net/invariants.h). kAuto enables it in
  /// debug builds (NDEBUG undefined) and disables it otherwise.
  InvariantMode invariants = InvariantMode::kAuto;

  /// Step-loop traversal policy (see SparseMode).
  SparseMode sparse = SparseMode::kAuto;

  /// With SparseMode::kAuto, run the sparse path once the number of
  /// in-flight packets drops to <= sparse_threshold * N (in-flight packets
  /// upper-bound the occupied processors). Near-full phases keep the dense
  /// sweep; drain tails switch over. Clamped to [0, 1]; 0 never goes
  /// sparse, 1 goes sparse as soon as occupancy allows.
  double sparse_threshold = 0.5;

  /// Optional open-loop injection hook (see the StepInjector contract
  /// above; must outlive the engine). Null keeps Route byte-identical to an
  /// engine without injection support.
  StepInjector* injector = nullptr;

  /// Optional metrics registry (obs/registry.h). When set, every Route call
  /// folds its run totals into named engine.* counters/gauges (routes,
  /// steps, moves, packets, detours, sparse steps, fault events, stall
  /// reasons, peak queue/active-set gauges). Recording happens once per
  /// Route, never per step, so the hot loop is untouched; null costs one
  /// pointer check per call.
  MetricsRegistry* metrics = nullptr;

  /// Optional black-box flight recorder (obs/flight_recorder.h). When set,
  /// the coordinator appends each step's StepSnapshot, packed to a
  /// fixed-size record, into the recorder's preallocated ring (no
  /// allocations, no locks) ahead of the probes, stamps the engine
  /// manifest, and — when the recorder has a dump path — dumps the ring as
  /// a JSON artifact on watchdog abort, step-cap abort, invariant failure,
  /// or a pending SIGINT/SIGTERM (polled once per step only while a
  /// recorder or a checkpoint sink is attached; aborts with
  /// StallReason::kInterrupt). The StallReport embeds the ring's tail
  /// either way. Null costs nothing.
  FlightRecorder* recorder = nullptr;

  /// Optional checkpoint sink (contract in net/engine_state.h). When set,
  /// the engine polls Due() before every step, runs a due step as a clean
  /// pass and snapshots it, and emits a final snapshot on
  /// watchdog/step-cap/SIGINT-SIGTERM aborts. The SIGINT/SIGTERM flag is
  /// polled per step whenever a sink or a recorder is attached. Null costs
  /// nothing. Excluded from HashEngineOptions like every observability
  /// hook — checkpointing never changes results, so a checkpointed run can
  /// resume without a sink and vice versa.
  CheckpointSink* checkpoint = nullptr;

  /// Optional packet-journey tracer (obs/journey.h). When set, every Route
  /// records one compact event per step of every sampled packet's life —
  /// injection, each link crossed, each lost bid, each dead-link hold —
  /// and the epilogue attaches
  /// the finalized JourneyLog plus a CriticalPathReport to the
  /// RouteResult. Traces are byte-identical for any thread count and
  /// traversal mode (sampling is a pure function of packet id; events
  /// sort on their unique (id, step) key). Null keeps the hot paths
  /// byte-identical and untouched. Excluded from HashEngineOptions like
  /// every observability hook — tracing never changes results, so a
  /// checkpointed run can resume with or without it.
  JourneyTracer* journeys = nullptr;
};

/// FNV-1a over the routing-relevant options: step cap, sparse policy and
/// threshold, stall window, invariant mode, fault-plan presence, injector
/// presence. Identical hashes mean two runs routed under the same engine
/// configuration (thread count excluded — it never changes results).
std::uint64_t HashEngineOptions(const EngineOptions& opts);

const char* SparseModeName(SparseMode mode);

/// Fills a RunManifest (obs/manifest.h) from a live engine configuration:
/// topology shape, worker threads, build type, sparse mode, options hash.
/// Seed and binary are left for the caller — the engine does not know them.
RunManifest MakeRunManifest(const Topology& topo, const EngineOptions& opts);

class Engine {
 public:
  /// Throws std::invalid_argument if opts.faults targets a different
  /// topology shape, or if N x 2d directed links shifted by the pool's
  /// worker bits exceed the 32-bit mailbox handles.
  explicit Engine(const Topology& topo, EngineOptions opts = {});

  const Topology& topo() const { return *topo_; }

  /// Routes every packet in `net` to its `dest` processor. On return the
  /// packets sit in their destinations' queues with `arrived` filled in.
  /// Packets already at their destination stay put (arrived = 0).
  RouteResult Route(Network& net);

  /// Continues a run from a checkpoint snapshot. `net`'s contents are
  /// replaced by the snapshot's queues; the step loop then resumes at
  /// state.step + 1 and the returned RouteResult covers the whole run
  /// (pre-crash steps included). The resumed trace is byte-identical to
  /// the uninterrupted run for any thread count and sparse mode.
  ///
  /// Requirements (std::invalid_argument otherwise): the snapshot's
  /// topology shape and options hash match this engine, injector presence
  /// matches (and the injector accepts its state blob), and the fault
  /// cursor is within this plan's event schedule. The engine's own
  /// checkpoint sink keeps working on a resumed run, so a crash-restart
  /// cycle can repeat indefinitely.
  RouteResult Resume(Network& net, const EngineCheckpointState& state);

 private:
  /// Shared step-loop body: `resume` == nullptr is a fresh Route;
  /// otherwise loop cursors and accumulators are restored from the
  /// snapshot and per-packet initialization is skipped.
  RouteResult RouteInternal(Network& net,
                            const EngineCheckpointState* resume);

  /// Per-worker scratch: step counters and reusable buffers, reset by the
  /// coordinator each step and reduced after the dispatch returns.
  /// Cache-line aligned so two workers never share a line.
  struct alignas(64) WorkerScratch {
    std::int64_t arrivals = 0;
    std::int64_t moves = 0;
    std::int64_t detours = 0;
    std::int64_t qmax = 0;
    std::vector<std::int64_t> dir_moves;  // 2d entries; empty without
                                          // probes or a recorder
    std::vector<ProcId> receivers;        // sparse bid output (reused)
    /// This worker's lane of the routed Network's block pool: the blocks
    /// its commits take and give.
    QueueLane* lane = nullptr;
    /// Injector runs: the packets this worker's commits delivered, in
    /// processor then queue order; the coordinator hands them to OnDeliver
    /// in shard order and clears the buffer.
    std::vector<Packet> delivered;
    /// This worker's bid winners by mailbox parity; mailbox handles index
    /// into them. Cleared by the coordinator before the pass that refills
    /// that parity, so they hold only one step's bids.
    std::vector<Packet> arena[2];
    std::uint32_t shard = 0;  // index in scratch_: a handle's low bits
    /// Journey-event buffer (empty without a tracer): workers append here
    /// during bid/commit (late bids use worker 0's); the coordinator drains
    /// it after each step's reduction. NOT cleared by the scratch reset.
    std::vector<JourneyEvent> events;
  };

  /// Winner selection for one processor (step `step`, mailbox buffer
  /// `parity` = step & 1): picks the farthest-first winner per outgoing
  /// link into stack-local arrays, marks winners kMoving, and posts each
  /// winning packet to the receiver's mailbox row (see Post). kSparse
  /// additionally records the receivers into `s->receivers`
  /// for active-set maintenance; kRecordSlots additionally publishes the
  /// winner indices to the processor's slot_ row for CheckSlots (checker
  /// path only — the routing never reads a foreign slot row). `slots` is
  /// the network's queue directory (Network::slots), hoisted out of the
  /// per-processor loop; a null slot bids nothing.
  template <bool kFaults, bool kSparse, bool kRecordSlots>
  void BidProc(PacketQueue* const* slots, ProcId p, std::int64_t step,
               int parity, WorkerScratch* s);

  /// The hop `pkt` bids for at the processor with coordinates `cp` and
  /// link base `base` on `step`: (dim, dir), dim = -1 when every outgoing
  /// link is dead, and the farthest-first priority. Faulted runs also set
  /// the packet's kDetour and lock bits; for a given step that is
  /// idempotent, so a priority can be re-derived after the bid.
  template <bool kFaults>
  std::int64_t Hop(const std::int32_t* cp, std::size_t base, Packet& pkt,
                   std::int64_t step, int& dim, int& dir) const;

  /// Whether processor p's presence row in mailbox buffer `parity` is all
  /// zero: nothing arrives at p this step.
  bool MailboxRowEmpty(int parity, std::size_t p) const {
    const std::uint8_t* const row =
        in_mask_.data() +
        (static_cast<std::size_t>(parity) * (in_mask_.size() / 2) +
         p * mask_stride_);
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < mask_stride_; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, row + i, sizeof(word));
      any |= word;
    }
    return any == 0;
  }

  /// Appends `pkt` to worker `s`'s arena for `parity` and writes its handle
  /// and presence byte into entry `e` of receiver `r`'s mailbox row.
  void Post(WorkerScratch* s, int parity, std::size_t r, std::size_t e,
            const Packet& pkt);

  /// The far end of processor p's outgoing link l = dim * 2 + dir, from
  /// p's coordinate row `cp`: p -/+ stride[dim], wrapped on the torus.
  /// Asked only for links that exist (a mesh boundary link never wins).
  std::size_t Receiver(std::size_t p, const std::int32_t* cp,
                       std::size_t l) const {
    const LinkStep& ls = link_step_[l];
    return p + (cp[l >> 1] == ls.edge ? ls.wrap : ls.step);
  }

  /// Coordinator-side bid for the packet just appended to p's queue after
  /// p's bids for `step` were posted. It meets only its own link's current
  /// winner (and may overwrite that winner's arena slot), claims a free
  /// link with a new entry in worker 0's arena, or records one lost-bid
  /// wait: a full re-bid's outcome. Returns a new entry's receiver, else -1.
  template <bool kFaults>
  ProcId BidLate(PacketQueue* const* slots, ProcId p, std::int64_t step);

  /// Delivery for one processor, fully local: compacts the stayers of p's
  /// queue block in place and appends the incomers named by p's own
  /// mailbox row in buffer `parity` (consuming the presence bytes),
  /// accumulating counters into `s`. The block comes from s.lane when
  /// incomers land on an empty processor and goes back to it when the
  /// queue ends empty, unless the pass is set to `hold` empty blocks;
  /// slots[p] follows. With `retire`, delivered incomers go to
  /// s.delivered instead of the queue (s.qmax still counts them). Returns
  /// true if the queue still holds an in-flight packet (active-set
  /// maintenance).
  bool CommitProc(PacketQueue** slots, ProcId p, std::int32_t now,
                  bool count_dirs, bool retire, bool hold, int parity,
                  WorkerScratch& s);

  /// Scans the directory for processors holding in-flight packets. Like
  /// RebuildTouched, it also gives the blocks dense commits kept empty
  /// back to `lane`: sparse passes would never revisit them.
  void RebuildActiveSet(PacketQueue** slots, QueueLane& lane);

  /// Dense-to-sparse transition for the fused pipeline: rebuilds touched_
  /// as every processor holding an in-flight packet (movers included) or a
  /// pending mailbox entry in buffer `parity`. O(N), runs once per switch.
  void RebuildTouched(PacketQueue** slots, QueueLane& lane, int parity);

  std::shared_ptr<StallReport> BuildStallReport(const Network& net,
                                                StallReason reason,
                                                std::int64_t step,
                                                std::int64_t no_progress) const;

  const Topology* topo_;
  EngineOptions opts_;
  int d_;
  int n_;
  std::vector<std::int32_t> coords_;        // N x d coordinate table
  // Per outgoing link l = dim * 2 + dir: the processor-id step to the
  // receiver (+/- stride[dim], modulo 2^64), and the step across the torus
  // wrap taken instead when the sender's coordinate sits on the edge the
  // link leaves from (-1 on a mesh, which never wraps).
  struct LinkStep {
    std::size_t step = 0;
    std::size_t wrap = 0;
    std::int32_t edge = 0;
  };
  LinkStep link_step_[2 * kMaxDim];
  std::vector<std::int32_t> slot_;          // N x 2d winner queue-index;
                                            // allocated only for a checker

  // Receiver mailbox, double-buffered by step parity: bids for step S write
  // buffer S & 1, so the fused pipeline's early bids for S+1 never clobber
  // an unconsumed step-S entry. in_hdl_ holds 2 x N x 2d handles, each
  // (arena index << shard_bits_) | shard naming a packet in the bidding
  // worker's arena; presence lives in in_mask_ (2 x N x mask_stride_ bytes,
  // rows padded to a multiple of 8 so emptiness is a couple of aligned
  // 8-byte loads).
  std::vector<std::uint32_t> in_hdl_;
  std::vector<std::uint8_t> in_mask_;
  std::size_t mask_stride_ = 0;
  int shard_bits_ = 0;
  // Set when a Route call ends with the pipeline's speculative next-step
  // bids already scattered (watchdog, or an interrupt caught mid-pass); the
  // next Route clears the mask instead of every call paying for it.
  bool mailbox_dirty_ = false;

  std::vector<WorkerScratch> scratch_;      // one per pool worker

  // Sparse-path state: active_ lists exactly the processors with in-flight
  // packets (ascending). slots_clean_ tracks whether every slot_ entry
  // outside the current bid set is -1 — only the InvariantChecker needs
  // that global invariant (CheckSlots scans all rows); the routing itself
  // never reads another processor's slot row.
  std::vector<ProcId> active_;
  std::vector<ProcId> touched_;             // active + receivers, ascending
  std::vector<std::uint8_t> touched_inflight_;
  std::vector<std::uint64_t> touched_bits_;  // dedup bitmap, N/64 words
  bool slots_clean_ = false;

  // Shared by every RouteResult this engine produces (S6: artifacts are
  // self-describing). Built once in the constructor; assigning it per Route
  // is a refcount bump, not a serialization.
  std::shared_ptr<const RunManifest> manifest_;

  // Fault state (empty vectors when no plan is attached).
  bool have_faults_ = false;
  std::vector<std::uint8_t> link_dead_perm_;     // permanent dead mask
  std::vector<std::uint8_t> link_dead_;          // current per-step mask
  std::vector<std::int32_t> flap_count_;         // active flaps per link
  std::vector<FaultPlan::FlapEvent> events_;     // sorted flap schedule
};

}  // namespace mdmesh
