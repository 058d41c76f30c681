#include "obs/probe.h"

#include <chrono>
#include <cstdio>

#include <unistd.h>

namespace mdmesh {
namespace {

std::int64_t SteadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CongestionTrace::CongestionTrace(std::size_t capacity)
    : capacity_(capacity < 2 ? 2 : capacity) {
  samples_.reserve(capacity_);
}

void CongestionTrace::OnStep(const StepSnapshot& snapshot) {
  ++tick_;
  dims_ = snapshot.dims;
  if (tick_ < next_sample_) return;

  Sample s;
  s.step = tick_;
  s.run_step = snapshot.step;
  s.in_flight = snapshot.in_flight;
  s.arrivals = snapshot.arrivals;
  s.moves = snapshot.moves;
  if (snapshot.queue_hist != nullptr) {
    s.queue_p50 = snapshot.queue_hist->Quantile(0.5);
    s.queue_p99 = snapshot.queue_hist->Quantile(0.99);
    s.queue_max = snapshot.queue_hist->Quantile(1.0);
  }
  s.active_procs = snapshot.active_procs;
  s.injected = snapshot.injected;
  if (snapshot.dim_dir_moves != nullptr && snapshot.dims > 0) {
    s.dim_dir_moves.assign(snapshot.dim_dir_moves,
                           snapshot.dim_dir_moves + 2 * snapshot.dims);
  }
  samples_.push_back(std::move(s));
  next_sample_ = tick_ + stride_;

  if (samples_.size() >= capacity_) {
    // Downsample: keep every other sample, double the stride. The retained
    // set still spans the full time axis at half the resolution.
    std::size_t w = 0;
    for (std::size_t r = 0; r < samples_.size(); r += 2) {
      if (w != r) samples_[w] = std::move(samples_[r]);  // r==w would self-move
      ++w;
    }
    samples_.resize(w);
    stride_ *= 2;
    next_sample_ = samples_.back().step + stride_;
  }
}

void CongestionTrace::WriteCsv(std::ostream& os) const {
  os << "step,run_step,in_flight,arrivals,moves,queue_p50,queue_p99,queue_max";
  for (int dim = 0; dim < dims_; ++dim) {
    os << ",dim" << dim << "_dec,dim" << dim << "_inc";
  }
  os << ",active_procs,injected\n";
  for (const Sample& s : samples_) {
    os << s.step << ',' << s.run_step << ',' << s.in_flight << ','
       << s.arrivals << ',' << s.moves << ',' << s.queue_p50 << ','
       << s.queue_p99 << ',' << s.queue_max;
    for (int i = 0; i < 2 * dims_; ++i) {
      const std::int64_t v =
          i < static_cast<int>(s.dim_dir_moves.size())
              ? s.dim_dir_moves[static_cast<std::size_t>(i)]
              : 0;
      os << ',' << v;
    }
    os << ',' << s.active_procs << ',' << s.injected << '\n';
  }
}

void CongestionTrace::Clear() {
  samples_.clear();
  stride_ = 1;
  next_sample_ = 1;
  tick_ = 0;
  dims_ = 0;
}

bool ProgressMeter::StderrIsTty() { return ::isatty(2) != 0; }

ProgressMeter::ProgressMeter(std::int64_t step_cap, std::int64_t interval_ms,
                             bool force)
    : step_cap_(step_cap),
      interval_ms_(interval_ms > 0 ? interval_ms : 500),
      enabled_(force || StderrIsTty()),
      start_ms_(SteadyMs()) {
  last_emit_ms_ = start_ms_;
}

void ProgressMeter::Emit(std::int64_t step, std::int64_t in_flight,
                         double steps_per_sec) {
  char line[256];
  if (step_cap_ > 0 && steps_per_sec > 0.0) {
    const double eta_s = static_cast<double>(step_cap_ - step) /
                         steps_per_sec;
    std::snprintf(line, sizeof(line),
                  "[progress] step %lld/%lld  in-flight %lld  %.0f steps/s  "
                  "eta %.1fs",
                  static_cast<long long>(step),
                  static_cast<long long>(step_cap_),
                  static_cast<long long>(in_flight), steps_per_sec,
                  eta_s > 0 ? eta_s : 0.0);
  } else {
    std::snprintf(line, sizeof(line),
                  "[progress] step %lld  in-flight %lld  %.0f steps/s",
                  static_cast<long long>(step),
                  static_cast<long long>(in_flight), steps_per_sec);
  }
  last_line_ = line;
  ++lines_;
  if (enabled_) std::fprintf(stderr, "%s\n", line);
}

void ProgressMeter::OnStep(const StepSnapshot& snapshot) {
  delivered_total_ += snapshot.arrivals;
  if (finished_) return;
  const std::int64_t now = SteadyMs();
  if (now - last_emit_ms_ < interval_ms_) return;
  const double dt_s =
      static_cast<double>(now - last_emit_ms_) / 1000.0;
  const double rate =
      dt_s > 0 ? static_cast<double>(snapshot.step - last_emit_step_) / dt_s
               : 0.0;
  Emit(snapshot.step, snapshot.in_flight, rate);
  last_emit_ms_ = now;
  last_emit_step_ = snapshot.step;
}

void ProgressMeter::Finish() {
  if (finished_) return;
  finished_ = true;
  const double total_s =
      static_cast<double>(SteadyMs() - start_ms_) / 1000.0;
  char line[256];
  std::snprintf(line, sizeof(line),
                "[progress] done: %lld delivered in %.2fs",
                static_cast<long long>(delivered_total_), total_s);
  last_line_ = line;
  ++lines_;
  if (enabled_) std::fprintf(stderr, "%s\n", line);
}

}  // namespace mdmesh
