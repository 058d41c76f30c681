// Packet-journey tracing: an opt-in, deterministically sampled per-packet
// hop log recorded by the routing engine's step loop (commits record moves,
// bids record waits, injection records entries).
//
// Suel's step bounds are statements about the worst-case *packet*, but the
// aggregate observability layers (spans, congestion counters, flight
// recorder) cannot say which packet finished last or where it waited. The
// tracer closes that gap: for every traced packet it keeps one compact
// event per step of its life —
//
//   kInjected       the packet entered the network (aux = initial distance)
//   kMove           it crossed a link (dim/dir; kDetour when fault-detoured,
//                   kRetarget on a two-leg midpoint retarget, kDelivered on
//                   the final hop)
//   kWaitLostBid    it bid for a link and lost the farthest-first contention
//                   (dim/dir = the contested link)
//   kWaitLinksDead  every useful outgoing link was dead this step
//
// Because a packet in flight either moves or waits exactly once per step,
// the decomposition is exact:
//
//   delivery_step - injection_step = sum(moves) + sum(waits)
//
// which splits the measured latency into distance terms (per dimension)
// and contention/fault terms (per wait reason) — the identity the
// critical-path analyzer (obs/critical_path.h) and the CI validator
// (scripts/check_perf_regression.py validate-journeys) both pin.
//
// Determinism: sampling is a pure function of (packet id, seed), events
// carry unique (id, step) keys, and Finalize sorts by that key — so the
// trace is byte-identical for any thread count, both step loops, and
// both traversal modes. Recording is allocation-free in steady state: hot
// paths push into the engine's per-worker event buffers, which
// the coordinator drains between steps, so buffers stay small and warm.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace mdmesh {

class ChromeTraceWriter;

/// One step of one traced packet's life. 32 bytes; (id, step) is unique.
struct JourneyEvent {
  enum Kind : std::uint8_t {
    kInjected = 0,       ///< entered the network (aux = initial distance)
    kMove = 1,           ///< crossed link (dim, dir)
    kWaitLostBid = 2,    ///< lost the farthest-first bid on link (dim, dir)
    kWaitLinksDead = 3,  ///< all useful outgoing links dead this step
  };
  enum Flag : std::uint8_t {
    kDetour = 1,     ///< this move was a fault detour (off the greedy path)
    kRetarget = 2,   ///< two-leg midpoint reached; dest retargeted
    kDelivered = 4,  ///< the packet reached its destination on this event
  };

  std::int64_t id = 0;    ///< packet id
  std::int64_t proc = 0;  ///< processor (kMove: arrival proc; waits: holder)
  std::int64_t step = 0;  ///< engine step (kInjected: normalized t0)
  std::int32_t aux = 0;   ///< kInjected: initial distance to destination
  std::uint8_t kind = kInjected;
  std::int8_t dim = -1;  ///< mesh dimension (-1: injected / no live link)
  std::int8_t dir = 0;   ///< 1 = +, 0 = -
  std::uint8_t flags = 0;
};

const char* JourneyEventKindName(std::uint8_t kind);

/// A finished run's trace: events sorted by (id, step), plus run framing.
struct JourneyLog {
  std::vector<JourneyEvent> events;
  std::int64_t final_step = 0;      ///< the run's last completed step
  std::int64_t traced_packets = 0;  ///< distinct packet ids in `events`
  /// The max_events cap fired: the tail of the run is missing, and the
  /// cross-thread-count byte-identity guarantee is forfeited for this log.
  bool truncated = false;
  double sample_rate = 0.0;
  std::uint64_t sample_seed = 0;
};

/// The recording side. One tracer serves one Engine::Route call at a time
/// (BeginRun ... Drain* ... Finalize); Sampled/Record* are safe to call
/// concurrently from worker threads as long as each thread records into
/// its own buffer.
class JourneyTracer {
 public:
  struct Options {
    /// Fraction of packet ids traced (deterministic hash of id ^ seed).
    /// >= 1 traces everything; <= 0 traces only the watch list.
    double sample_rate = 0.01;
    std::uint64_t seed = 0;
    /// Packet ids always traced regardless of the sample rate — the
    /// two-run forensics workflow: run once sampled, find the critical
    /// packet id, re-run with it watched for its full journey.
    std::vector<std::int64_t> watch;
    /// Hard cap on recorded events (memory safety valve). When it fires
    /// the log is marked truncated.
    std::int64_t max_events = std::int64_t{1} << 22;
  };

  explicit JourneyTracer(Options opts);

  /// Pure function of (id, seed, watch): identical across threads, runs,
  /// and step loops.
  bool Sampled(std::int64_t id) const {
    if (all_) return true;
    if (Mix(static_cast<std::uint64_t>(id) ^ seed_) < threshold_) return true;
    return !watch_.empty() &&
           std::binary_search(watch_.begin(), watch_.end(), id);
  }

  /// Worker-side: the packet held still this step. `buf` is the calling
  /// worker's private event buffer.
  void RecordWait(std::vector<JourneyEvent>& buf, std::int64_t id,
                  std::int64_t proc, std::int64_t step, std::uint8_t kind,
                  int dim, int dir) const {
    if (!Sampled(id)) return;
    JourneyEvent ev;
    ev.id = id;
    ev.proc = proc;
    ev.step = step;
    ev.kind = kind;
    ev.dim = static_cast<std::int8_t>(dim);
    ev.dir = static_cast<std::int8_t>(dir);
    buf.push_back(ev);
  }

  /// Worker-side: the packet crossed a link this step, arriving at `proc`.
  void RecordMove(std::vector<JourneyEvent>& buf, std::int64_t id,
                  std::int64_t proc, std::int64_t step, int dim, int dir,
                  std::uint8_t flags) const {
    if (!Sampled(id)) return;
    JourneyEvent ev;
    ev.id = id;
    ev.proc = proc;
    ev.step = step;
    ev.kind = JourneyEvent::kMove;
    ev.dim = static_cast<std::int8_t>(dim);
    ev.dir = static_cast<std::int8_t>(dir);
    ev.flags = flags;
    buf.push_back(ev);
  }

  /// Coordinator-side: the packet entered the network. `step` is the
  /// normalized injection time t0 (0 for preloads, injection step - 1 for
  /// injector-driven packets), so delivery - t0 = moves + waits uniformly.
  void RecordInjected(std::int64_t id, std::int64_t proc, std::int64_t step,
                      std::int32_t dist0, bool delivered);

  /// Clears run state; called by the engine at the top of every route.
  void BeginRun();

  /// Coordinator-side, between steps: appends a worker buffer's events to
  /// the run log (subject to max_events) and clears the buffer.
  void Drain(std::vector<JourneyEvent>* buf);

  /// Sorts by (id, step), drops events recorded past `final_step` (the
  /// fused pipeline bids one step ahead, so an aborted run has speculative
  /// wait events beyond its last completed step), and returns the log.
  std::shared_ptr<const JourneyLog> Finalize(std::int64_t final_step);

  const Options& options() const { return opts_; }

 private:
  // splitmix64 finalizer: full-avalanche 64-bit mix.
  static std::uint64_t Mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  Options opts_;
  std::uint64_t seed_ = 0;
  std::uint64_t threshold_ = 0;  ///< sample iff Mix(id ^ seed) < threshold
  bool all_ = false;
  std::vector<std::int64_t> watch_;  ///< sorted for binary_search
  std::vector<JourneyEvent> log_;
  bool truncated_ = false;
};

/// One traced packet's journey, decomposed from its event slice.
struct PacketJourney {
  std::int64_t id = 0;
  /// Normalized injection time t0; -1 when the log has no kInjected event
  /// for this packet (a resumed run traces only post-resume steps).
  std::int64_t injected_step = -1;
  std::int64_t delivery_step = -1;  ///< -1 = not delivered in this run
  std::int64_t proc_injected = -1;
  std::int64_t proc_final = -1;  ///< last proc seen (dest when delivered)
  std::int32_t dist0 = -1;       ///< initial distance (-1 without injection)
  std::int64_t moves = 0;
  std::int64_t detour_moves = 0;
  std::int64_t retargets = 0;
  std::int64_t waits_lost_bid = 0;
  std::int64_t waits_links_dead = 0;
  std::vector<std::int64_t> dim_moves;  ///< per-dimension move counts
  std::vector<std::int64_t> dim_waits;  ///< per-dimension lost-bid waits
  std::size_t first_event = 0;  ///< slice into JourneyLog::events
  std::size_t event_count = 0;

  bool delivered() const { return delivery_step >= 0; }
  bool complete() const { return injected_step >= 0; }
  std::int64_t waits() const { return waits_lost_bid + waits_links_dead; }
  std::int64_t latency() const { return delivery_step - injected_step; }
  /// The exact decomposition the subsystem exists to provide. Vacuously
  /// true for partial (resumed) or undelivered journeys.
  bool IdentityHolds() const {
    return !complete() || !delivered() || latency() == moves + waits();
  }
};

/// Groups a finalized log into per-packet journeys (one pass; the log is
/// already sorted by id). `dims` sizes the per-dimension vectors.
std::vector<PacketJourney> DecomposeJourneys(const JourneyLog& log, int dims);

/// JSONL export: one JSON object per traced packet (decomposition plus the
/// compact event list) — the format validate-journeys checks.
void WriteJourneysJsonl(const JourneyLog& log, int dims, std::ostream& os);

/// Joins the Perfetto timeline: one async span per traced packet (pid 5,
/// "packet journeys") from injection to delivery on the step clock, with
/// the decomposition attached as args.
void ExportJourneysToChromeTrace(const JourneyLog& log, int dims,
                                 ChromeTraceWriter* writer);

}  // namespace mdmesh
