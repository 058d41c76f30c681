// Reference implementation of the synchronous routing semantics, for
// DIFFERENTIAL TESTING of the optimized Engine.
//
// The paper's model is simple to state (Section 1: one packet per directed
// link per step, farthest-first contention) but the optimized kernel earns
// its speed with per-link winner slots, double buffering, and a parallel
// update — all easy places to hide a semantics bug that unit tests on tiny
// cases would miss. This class re-implements the model as literally as
// possible (gather every packet's desire, arbitrate each contended link by
// explicit sort, apply moves one by one, single-threaded) and must produce
// BIT-IDENTICAL results: same step count, same move count, same queue
// maximum, same final placement, same arrival times. tests/test_differential
// drives both engines over randomized workloads and asserts exactly that.
//
// With a StepInjector attached it also follows the open-loop contract in
// net/engine.h step by step: Inject(S) before step S's desires, the
// engine's tag/dist0 stamping, zero-hop packets handed straight back, and
// OnDeliver in ascending processor then queue order after the moves,
// followed by retirement. Queue order is the Engine's: stayers in order,
// then incomers by the receiver's in-link (dimension ascending; within a
// dimension the packet from the lower neighbour first).
#pragma once

#include <cstdint>

#include "net/engine.h"
#include "net/metrics.h"
#include "net/network.h"

namespace mdmesh {

class ReferenceEngine {
 public:
  /// `injector` (optional, must outlive the engine) switches Route to the
  /// open-loop contract; step_cap 0 then leaves termination to it.
  explicit ReferenceEngine(const Topology& topo, std::int64_t step_cap = 0,
                           StepInjector* injector = nullptr);

  /// Same contract as Engine::Route, including kTwoLeg retargeting.
  RouteResult Route(Network& net);

 private:
  const Topology* topo_;
  std::int64_t step_cap_;
  StepInjector* injector_;
};

}  // namespace mdmesh
