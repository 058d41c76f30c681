// Engine checkpoint state and the sink interface the engine emits it
// through (EngineOptions::checkpoint).
//
// A checkpoint is a complete snapshot of a Route call at a clean step
// boundary: every per-processor queue (packets verbatim, including the
// detour lock bits that faulted torus routing carries between steps), the
// step cursor and every loop accumulator, the fault-replay cursor, and an
// opaque injector blob (StepInjector::SaveState — for OpenLoopInjector that
// is the RNG stream, the warmup/measure cursors, and the latency
// histogram). Engine::Resume rebuilds the run from such a snapshot and
// continues it; the contract — pinned by tests/test_ckpt.cpp — is that the
// resumed run's delivery trace and final queue contents are byte-identical
// to the uninterrupted run, for any thread count, sparse or dense traversal,
// with or without faults.
//
// Layering: this header stays in the net layer (plain data + an abstract
// sink) so the engine never depends on a file format. The file format —
// versioned framing, CRC-32 integrity, atomic writes, keep-K rotation and
// corrupt-generation fallback — lives above it in ckpt/checkpoint.h and
// ckpt/manager.h.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace mdmesh {

/// Full engine state at a completed step S: resuming from it and running
/// steps S+1.. reproduces the uninterrupted run exactly.
struct EngineCheckpointState {
  /// Topology shape the snapshot was taken on; Resume refuses a mismatch.
  int d = 0;
  int n = 0;
  bool torus = false;
  /// HashEngineOptions of the producing engine (the RunManifest
  /// engine_options_hash). Resume refuses a checkpoint routed under
  /// different options — silently continuing one would produce a trace
  /// that matches neither configuration.
  std::uint64_t options_hash = 0;
  /// Whether the producing run had a StepInjector attached; must match the
  /// resuming engine (the two loop shapes are not interchangeable).
  bool injector_attached = false;

  std::int64_t step = 0;  ///< last completed step

  // Step-loop accumulators (Engine::Route locals).
  std::int64_t in_flight = 0;
  std::int64_t arrivals_total = 0;
  std::int64_t moves_total = 0;
  std::int64_t detours_total = 0;
  std::int64_t fault_events_total = 0;
  std::int64_t queue_max = 0;
  std::int64_t no_progress = 0;  ///< watchdog zero-progress streak
  bool injecting = false;        ///< injector still in kContinue (else drain)

  // RouteResult accumulators carried across the boundary.
  std::int64_t packets = 0;
  std::int64_t max_distance = 0;
  std::int64_t sparse_steps = 0;
  std::int64_t peak_active_procs = -1;
  std::int64_t max_overshoot = 0;
  // Welford moments of the overshoot Accumulator (injector runs accumulate
  // overshoot at retirement, so it is genuine mid-run state).
  std::int64_t overshoot_count = 0;
  double overshoot_mean = 0.0;
  double overshoot_m2 = 0.0;
  double overshoot_min = 0.0;
  double overshoot_max = 0.0;

  /// Flap events already applied: link_dead_/flap_count_ are reconstructed
  /// by replaying FaultPlan events [0, fault_cursor) — cheaper and safer
  /// than serializing the per-link masks.
  std::uint64_t fault_cursor = 0;

  /// Per-processor queues, verbatim and in order. At a clean step boundary
  /// no packet carries the engine's kMoving scratch bit; detour locks and
  /// kDetour persist as genuine routing state.
  std::vector<std::vector<Packet>> queues;

  /// Opaque injector state (StepInjector::SaveState). Empty when no
  /// injector was attached.
  std::vector<std::uint8_t> injector_state;
};

/// Checkpoint consumer attached via EngineOptions::checkpoint. The engine
/// calls both methods from the coordinator thread only.
///
/// Contract:
///  * Due(step) is polled once before every step's pass; returning true
///    makes that pass commit without bidding ahead, and once the step
///    completes the engine snapshots its state and calls Save(state,
///    "cadence") — unless the run ends at that step. Due decides the
///    cadence (step count, wall clock, or both) — the engine imposes none.
///  * Save(state, cause) also fires on every abort path — watchdog stall,
///    step cap, SIGINT/SIGTERM — with `cause` naming the abort reason, so
///    an interrupted campaign always leaves a resumable snapshot alongside
///    the flight-recorder dump. A run that completes or stops on an
///    injector kStop verdict does not checkpoint (there is nothing left to
///    resume).
///  * Attaching a sink must not change results. A due step differs only in
///    that the next step's bids run after the snapshot instead of inside
///    the commit pass, and the bids are the same either way; steps that
///    are not due keep the pipelined pass.
///  * Save must not mutate the engine or the network; it sees a const
///    snapshot and typically serializes it (ckpt::CheckpointManager writes
///    a versioned, CRC-checksummed file via an atomic rename and rotates
///    old generations).
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;

  /// Cadence poll, once before every step. Cheap: called on the hot loop's
  /// coordinator (but only when a sink is attached at all).
  virtual bool Due(std::int64_t step) = 0;

  /// Consume one snapshot. `cause` is "cadence" or the abort reason
  /// ("watchdog", "step_cap", "interrupt").
  virtual void Save(const EngineCheckpointState& state, const char* cause) = 0;
};

}  // namespace mdmesh
