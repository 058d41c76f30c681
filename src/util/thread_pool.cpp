#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace mdmesh {

void ThreadPoolActivity::Clear() {
  for (auto& lane : lanes_) lane.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

void ThreadPoolActivity::EnsureLanes(std::size_t count) {
  if (lanes_.size() < count) lanes_.resize(count);
}

void ThreadPoolActivity::Record(std::size_t lane, const Interval& iv) {
  std::vector<Interval>& slot = lanes_[lane];
  if (slot.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (slot.capacity() == 0) slot.reserve(capacity_);
  slot.push_back(iv);
}

template <typename Body>
void ThreadPool::RunLogged(std::size_t lane, std::int64_t begin,
                           std::int64_t end, const Body& body) {
  if (activity_ == nullptr) {
    body();
    return;
  }
  ThreadPoolActivity::Interval iv;
  iv.begin = begin;
  iv.end = end;
  iv.t0 = std::chrono::steady_clock::now();
  body();
  iv.t1 = std::chrono::steady_clock::now();
  activity_->Record(lane, iv);
}

void ThreadPool::set_activity(ThreadPoolActivity* activity) {
  activity_ = activity;
  // Lane 0 is the coordinator; pool workers append at index + 1.
  if (activity_ != nullptr) activity_->EnsureLanes(threads_.size() + 1);
}

ThreadPool::ThreadPool(unsigned workers) {
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

unsigned ThreadPool::ShardsFor(std::int64_t count) const {
  const auto nw = static_cast<std::int64_t>(threads_.size());
  if (nw <= 1 || count < 2 * nw) return 1;
  return static_cast<unsigned>(nw);
}

void ThreadPool::ParallelFor(
    std::int64_t count,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (count <= 0) return;
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  items_.fetch_add(count, std::memory_order_relaxed);
  if (ShardsFor(count) == 1) {
    RunLogged(0, 0, count, [&] { fn(0, count); });
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_.fn = &fn;
    job_.count = count;
    ++epoch_;
    job_.epoch = epoch_;
    remaining_ = static_cast<unsigned>(threads_.size());
  }
  cv_start_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return remaining_ == 0; });
}

void ThreadPool::WorkerLoop(unsigned index) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::int64_t, std::int64_t)>* fn;
    std::int64_t count;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || job_.epoch > seen; });
      if (stop_) return;
      seen = job_.epoch;
      fn = job_.fn;
      count = job_.count;
    }
    const auto nw = static_cast<std::int64_t>(threads_.size());
    const std::int64_t chunk = (count + nw - 1) / nw;
    const std::int64_t begin = std::min<std::int64_t>(count, chunk * index);
    const std::int64_t end = std::min<std::int64_t>(count, begin + chunk);
    if (begin < end) {
      RunLogged(index + 1, begin, end, [&] { (*fn)(begin, end); });
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("MDMESH_THREADS")) {
      long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<unsigned>(std::min<long>(v, 256));
    }
    return 0u;  // serial by default; deterministic either way
  }());
  return pool;
}

}  // namespace mdmesh
