#include "obs/journey.h"

#include <sstream>

#include "obs/chrome_trace.h"
#include "obs/json.h"

namespace mdmesh {

const char* JourneyEventKindName(std::uint8_t kind) {
  switch (kind) {
    case JourneyEvent::kInjected:
      return "injected";
    case JourneyEvent::kMove:
      return "move";
    case JourneyEvent::kWaitLostBid:
      return "wait_lost_bid";
    case JourneyEvent::kWaitLinksDead:
      return "wait_links_dead";
    default:
      return "unknown";
  }
}

JourneyTracer::JourneyTracer(Options opts) : opts_(std::move(opts)) {
  seed_ = opts_.seed;
  if (opts_.sample_rate >= 1.0) {
    all_ = true;
  } else if (opts_.sample_rate > 0.0) {
    threshold_ = static_cast<std::uint64_t>(
        opts_.sample_rate * 18446744073709551616.0 /* 2^64 */);
  }
  watch_ = opts_.watch;
  std::sort(watch_.begin(), watch_.end());
  watch_.erase(std::unique(watch_.begin(), watch_.end()), watch_.end());
  opts_.max_events = std::max<std::int64_t>(opts_.max_events, 1);
}

void JourneyTracer::RecordInjected(std::int64_t id, std::int64_t proc,
                                   std::int64_t step, std::int32_t dist0,
                                   bool delivered) {
  if (!Sampled(id)) return;
  if (static_cast<std::int64_t>(log_.size()) >= opts_.max_events) {
    truncated_ = true;
    return;
  }
  JourneyEvent ev;
  ev.id = id;
  ev.proc = proc;
  ev.step = step;
  ev.aux = dist0;
  ev.kind = JourneyEvent::kInjected;
  if (delivered) ev.flags = JourneyEvent::kDelivered;
  log_.push_back(ev);
}

void JourneyTracer::BeginRun() {
  log_.clear();
  truncated_ = false;
}

void JourneyTracer::Drain(std::vector<JourneyEvent>* buf) {
  if (!buf->empty()) {
    const std::int64_t room =
        opts_.max_events - static_cast<std::int64_t>(log_.size());
    const std::int64_t take =
        std::min<std::int64_t>(room, static_cast<std::int64_t>(buf->size()));
    if (take < static_cast<std::int64_t>(buf->size())) truncated_ = true;
    if (take > 0) {
      log_.insert(log_.end(), buf->begin(), buf->begin() + take);
    }
    buf->clear();
  }
}

std::shared_ptr<const JourneyLog> JourneyTracer::Finalize(
    std::int64_t final_step) {
  auto out = std::make_shared<JourneyLog>();
  out->final_step = final_step;
  out->truncated = truncated_;
  out->sample_rate = all_ ? 1.0 : opts_.sample_rate;
  out->sample_seed = opts_.seed;
  out->events = std::move(log_);
  log_.clear();
  truncated_ = false;
  // The fused pipeline bids one step past the last commit, so an aborted
  // run carries speculative wait events beyond its final step; dropping
  // them keeps the per-step accounting exact.
  out->events.erase(
      std::remove_if(out->events.begin(), out->events.end(),
                     [final_step](const JourneyEvent& ev) {
                       return ev.step > final_step;
                     }),
      out->events.end());
  // (id, step) is unique — a packet is injected once and thereafter moves
  // xor waits exactly once per step — so this sort is a total order and
  // the result is byte-identical regardless of worker count, drain order,
  // or step loop.
  std::sort(out->events.begin(), out->events.end(),
            [](const JourneyEvent& a, const JourneyEvent& b) {
              return a.id != b.id ? a.id < b.id : a.step < b.step;
            });
  std::int64_t traced = 0;
  std::int64_t prev = -1;
  for (const JourneyEvent& ev : out->events) {
    if (traced == 0 || ev.id != prev) {
      ++traced;
      prev = ev.id;
    }
  }
  out->traced_packets = traced;
  return out;
}

std::vector<PacketJourney> DecomposeJourneys(const JourneyLog& log, int dims) {
  std::vector<PacketJourney> out;
  const std::size_t n = log.events.size();
  std::size_t i = 0;
  while (i < n) {
    PacketJourney j;
    j.id = log.events[i].id;
    j.first_event = i;
    j.dim_moves.assign(static_cast<std::size_t>(std::max(dims, 0)), 0);
    j.dim_waits.assign(static_cast<std::size_t>(std::max(dims, 0)), 0);
    for (; i < n && log.events[i].id == j.id; ++i) {
      const JourneyEvent& ev = log.events[i];
      j.proc_final = ev.proc;
      switch (ev.kind) {
        case JourneyEvent::kInjected:
          j.injected_step = ev.step;
          j.proc_injected = ev.proc;
          j.dist0 = ev.aux;
          break;
        case JourneyEvent::kMove:
          ++j.moves;
          if ((ev.flags & JourneyEvent::kDetour) != 0) ++j.detour_moves;
          if ((ev.flags & JourneyEvent::kRetarget) != 0) ++j.retargets;
          if (ev.dim >= 0 && ev.dim < dims) {
            ++j.dim_moves[static_cast<std::size_t>(ev.dim)];
          }
          break;
        case JourneyEvent::kWaitLostBid:
          ++j.waits_lost_bid;
          if (ev.dim >= 0 && ev.dim < dims) {
            ++j.dim_waits[static_cast<std::size_t>(ev.dim)];
          }
          break;
        case JourneyEvent::kWaitLinksDead:
        default:
          ++j.waits_links_dead;
          break;
      }
      if ((ev.flags & JourneyEvent::kDelivered) != 0) j.delivery_step = ev.step;
    }
    j.event_count = i - j.first_event;
    out.push_back(std::move(j));
  }
  return out;
}

void WriteJourneysJsonl(const JourneyLog& log, int dims, std::ostream& os) {
  for (const PacketJourney& j : DecomposeJourneys(log, dims)) {
    JsonWriter w(os);
    w.BeginObject();
    w.Key("id").Int(j.id);
    w.Key("injected_step").Int(j.injected_step);
    w.Key("delivery_step").Int(j.delivery_step);
    w.Key("delivered").Bool(j.delivered());
    w.Key("proc_injected").Int(j.proc_injected);
    w.Key("proc_final").Int(j.proc_final);
    w.Key("dist0").Int(j.dist0);
    w.Key("moves").Int(j.moves);
    w.Key("detour_moves").Int(j.detour_moves);
    w.Key("retargets").Int(j.retargets);
    w.Key("dim_moves").BeginArray();
    for (std::int64_t m : j.dim_moves) w.Int(m);
    w.EndArray();
    w.Key("dim_waits").BeginArray();
    for (std::int64_t m : j.dim_waits) w.Int(m);
    w.EndArray();
    w.Key("waits").BeginObject();
    w.Key("lost_bid").Int(j.waits_lost_bid);
    w.Key("links_dead").Int(j.waits_links_dead);
    w.EndObject();
    // Compact per-step record: [step, kind, proc, dim, dir, flags].
    w.Key("events").BeginArray();
    for (std::size_t e = j.first_event; e < j.first_event + j.event_count;
         ++e) {
      const JourneyEvent& ev = log.events[e];
      w.BeginArray();
      w.Int(ev.step);
      w.String(JourneyEventKindName(ev.kind));
      w.Int(ev.proc);
      w.Int(ev.dim);
      w.Int(ev.dir);
      w.Int(ev.flags);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
    os << '\n';
  }
}

void ExportJourneysToChromeTrace(const JourneyLog& log, int dims,
                                 ChromeTraceWriter* writer) {
  for (const PacketJourney& j : DecomposeJourneys(log, dims)) {
    // Step clock (1 step = 1 us), matching the "phases (step clock)" and
    // "engine counters" groups. Undelivered journeys span to the run end.
    const double begin_us =
        static_cast<double>(j.complete() ? j.injected_step : 0);
    const double end_us = static_cast<double>(
        j.delivered() ? j.delivery_step : log.final_step);
    std::ostringstream args_os;
    JsonWriter args(args_os);
    args.BeginObject();
    args.Key("dist0").Int(j.dist0);
    args.Key("moves").Int(j.moves);
    args.Key("detour_moves").Int(j.detour_moves);
    args.Key("waits_lost_bid").Int(j.waits_lost_bid);
    args.Key("waits_links_dead").Int(j.waits_links_dead);
    args.Key("delivered").Bool(j.delivered());
    args.EndObject();
    writer->AddAsyncSpan("packet " + std::to_string(j.id), "journey", j.id,
                         begin_us, end_us, ChromeTraceWriter::kPidJourneys, 0,
                         args_os.str());
  }
}

}  // namespace mdmesh
