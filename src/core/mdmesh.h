// mdmesh — routing and sorting on multi-dimensional meshes and tori.
//
// Reproduction of Torsten Suel, "Improved Bounds for Routing and Sorting on
// Multi-Dimensional Meshes" (SPAA 1994). Umbrella header: include this to
// get the whole public API. See README.md for a tour and DESIGN.md for the
// paper-to-module map.
#pragma once

// Substrate: topology, indexing, blocks, geometry.
#include "meshsim/blocks.h"
#include "meshsim/geometry.h"
#include "meshsim/indexing.h"
#include "meshsim/topology.h"

// Observability: phase-span traces, per-step probes, JSON/CSV/Chrome-trace
// sinks, metrics registry, run manifests.
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/journey.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/output.h"
#include "obs/perf_counters.h"
#include "obs/probe.h"
#include "obs/publisher.h"
#include "obs/registry.h"
#include "obs/trace.h"

// Fault injection (dead links/nodes, transient flaps).
#include "fault/fault_plan.h"

// Simulation kernel.
#include "net/engine.h"
#include "net/engine_state.h"
#include "net/invariants.h"
#include "net/metrics.h"
#include "net/network.h"
#include "net/packet.h"
#include "net/reference_engine.h"

// Checkpoint/restore: versioned CRC-checksummed files, keep-K rotation,
// corrupt-generation fallback.
#include "ckpt/checkpoint.h"
#include "ckpt/manager.h"

// Routing (Sections 2.2 and 5).
#include "routing/greedy.h"
#include "routing/offline.h"
#include "routing/permutations.h"
#include "routing/policy.h"
#include "routing/two_phase.h"

// Dynamic workloads: traffic patterns, open-loop injection, saturation.
#include "workload/driver.h"
#include "workload/patterns.h"

// Experiment service: JSON run requests, queued scheduler, HTTP control
// plane with checkpointed graceful drain.
#include "serve/json_value.h"
#include "serve/run_spec.h"
#include "serve/scheduler.h"
#include "serve/service.h"

// Sorting and selection (Section 3, Section 4.3 upper bound).
#include "sorting/common.h"
#include "sorting/kk_sort.h"
#include "sorting/local_sort.h"
#include "sorting/remap.h"
#include "sorting/selection.h"
#include "sorting/spread.h"
#include "sorting/verify.h"

// Lower bounds (Sections 1.1 and 4).
#include "bounds/bisection.h"
#include "bounds/broadcast.h"
#include "bounds/compatibility.h"
#include "bounds/diamond.h"
#include "bounds/lemma41.h"
#include "bounds/selection_lb.h"
#include "bounds/sorting_lb.h"

// Experiment harness.
#include "core/config.h"
#include "core/report.h"
#include "core/runner.h"
