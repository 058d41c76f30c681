// Near-diameter permutation routing (paper, Section 5).
//
// For a packet with source x and destination y, every processor in
// S_nu(x,y) = { z : dist(x,z) <= D/2+nu and dist(z,y) <= D/2+nu } is a valid
// midpoint: routing x -> z -> y takes at most D + 2*nu (+ lower-order terms)
// if both phases are distance-optimal. The deterministic variant works at
// block granularity: packets sharing (source block X, destination block Y)
// are spread round-robin over S_nu(X,Y) (block-center distances), which
// reduces each phase to a bounded number of unshuffle-like permutations
// (Theorem 5.1: D + n + o(n) on meshes with nu = n/2; Theorem 5.2:
// D + n/8 + o(n) on tori with nu = n/16; Theorem 5.3: nu -> epsilon*n as d
// grows).
#pragma once

#include <cstdint>
#include <vector>

#include "meshsim/blocks.h"
#include "net/engine.h"
#include "routing/policy.h"

namespace mdmesh {

struct TwoPhaseOptions {
  int g = 2;                ///< blocks per side for the spreading grid
  double nu = -1.0;         ///< midpoint slack; < 0 picks the paper default
                            ///  (n/2 mesh, n/16 torus)
  bool randomized = false;  ///< random midpoints instead of round-robin
  /// Overlap the two phases (the paper's Section 6 open question): packets
  /// retarget to their final destination the moment they reach their
  /// midpoint, with no barrier between the phases. Farthest-first priority
  /// counts the full remaining path. Measured in bench_routing_mesh; it
  /// consistently removes the phase-boundary idle time.
  bool overlap = false;
  std::uint64_t seed = 1;
  /// Optional phase-span trace: the router opens "two_phase" with children
  /// "assign_midpoints", then "phase_a_route"/"phase_b_route" (sequential)
  /// or "overlapped_route" (overlap = true).
  TraceContext* trace = nullptr;
  EngineOptions engine;
};

struct TwoPhaseResult {
  RouteResult phase1;
  RouteResult phase2;
  std::int64_t total_steps = 0;
  std::int64_t max_queue = 0;
  bool delivered = false;      ///< every packet verified at its destination
  std::int64_t min_s_size = 0; ///< min |S_nu(X,Y)| over occurring pairs
  double nu_used = 0.0;

  double steps_over_diameter(std::int64_t D) const {
    return static_cast<double>(total_steps) / static_cast<double>(D);
  }
};

/// Routes the permutation `dest` with the Section 5 two-phase algorithm.
///
/// Set-up before the engine runs, with N processors and m = g^d blocks:
/// O(N log N) to group the packets by (source block, destination block);
/// O(m^2 d) time and m^2/8 bytes for one m-bit row per block marking the
/// blocks within D/2 + nu of its center; then per group one AND of two rows
/// (m/64 words) for S_nu(X,Y) and its size, and per packet one select over
/// those words. An empty S_nu(X,Y) adds an O(m d) fallback scan.
TwoPhaseResult RouteTwoPhase(const Topology& topo,
                             const std::vector<ProcId>& dest,
                             const TwoPhaseOptions& opts);

/// |S_nu(X,Y)| minimized over all block pairs (X,Y) — the feasibility
/// quantity of Theorem 5.3: each phase reduces to k unshuffle permutations
/// once k * min|S_nu| * block_volume >= N. Costs O(m^2 d) for the rows
/// RouteTwoPhase builds plus m^2 row intersections of m/64 words each.
std::int64_t MinMidpointSetSize(const BlockGrid& grid, double nu);

}  // namespace mdmesh
