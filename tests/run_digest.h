// FNV-1a digests of a run's per-step observability output, so a test can
// pin a run's exact step-by-step behaviour — not just its totals — as
// constants.
#pragma once

#include <cstdint>

#include "obs/journey.h"
#include "obs/probe.h"

namespace mdmesh {

inline void FnvMix(std::uint64_t& h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}

/// Every field of every retained CongestionTrace sample, in order.
inline std::uint64_t TraceDigest(const CongestionTrace& trace) {
  std::uint64_t h = 14695981039346656037ull;
  for (const CongestionTrace::Sample& s : trace.samples()) {
    for (std::int64_t v :
         {s.step, s.run_step, s.in_flight, s.arrivals, s.moves, s.queue_p50,
          s.queue_p99, s.queue_max, s.active_procs, s.injected}) {
      FnvMix(h, v);
    }
    for (std::int64_t v : s.dim_dir_moves) FnvMix(h, v);
  }
  return h;
}

/// Every event of a finalized journey log, in its canonical (id, step)
/// order, plus the traced-packet count.
inline std::uint64_t JourneyDigest(const JourneyLog& log) {
  std::uint64_t h = 14695981039346656037ull;
  FnvMix(h, log.traced_packets);
  for (const JourneyEvent& ev : log.events) {
    for (std::int64_t v : {ev.id, ev.proc, ev.step,
                           static_cast<std::int64_t>(ev.aux),
                           static_cast<std::int64_t>(ev.kind),
                           static_cast<std::int64_t>(ev.dim),
                           static_cast<std::int64_t>(ev.dir),
                           static_cast<std::int64_t>(ev.flags)}) {
      FnvMix(h, v);
    }
  }
  return h;
}

}  // namespace mdmesh
