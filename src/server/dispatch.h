// Admission control between the reactor and the worker pool: a bounded
// in-flight (queued + running) statement count. When the bound is hit the
// server answers BUSY instead of queueing unboundedly — overload sheds load
// at the door rather than collapsing under it.

#ifndef HAZY_SERVER_DISPATCH_H_
#define HAZY_SERVER_DISPATCH_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/thread_pool.h"

namespace hazy::server {

struct DispatchOptions {
  /// Worker threads executing statements.
  size_t worker_threads = 4;
  /// Max statements admitted (queued + running). Beyond this, TryDispatch
  /// refuses and the caller sends BUSY.
  size_t max_in_flight = 256;
};

/// \brief Bounded-depth dispatcher over the shared ThreadPool.
///
/// Thread-safe. The in-flight count is decremented when `work` finishes, so
/// the bound covers queue depth plus running work.
class Dispatcher {
 public:
  explicit Dispatcher(DispatchOptions options)
      : options_(options),
        pool_(options.worker_threads == 0 ? 1 : options.worker_threads) {}

  /// Admits `work` if the in-flight bound allows; false means shed (BUSY).
  ///
  /// `after_release` (optional) runs on the worker after the slot is given
  /// back — response delivery belongs there, so that by the time a client
  /// can observe the response, the slot it occupied is free again. A serial
  /// client then never has its next statement shed by its own previous one.
  bool TryDispatch(std::function<void()> work,
                   std::function<void()> after_release = {}) {
    const size_t depth = in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (depth > options_.max_in_flight) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // High-water mark taken at the source: a polled in_flight() sample
    // misses bursts that fill and drain between polls.
    size_t peak = in_flight_peak_.load(std::memory_order_relaxed);
    while (depth > peak && !in_flight_peak_.compare_exchange_weak(
                               peak, depth, std::memory_order_relaxed)) {
    }
    pool_.Submit([this, work = std::move(work),
                  after_release = std::move(after_release)]() {
      work();
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      if (after_release) after_release();
    });
    return true;
  }

  /// Blocks until every admitted task has finished.
  void Drain() { pool_.Wait(); }

  size_t in_flight() const { return in_flight_.load(std::memory_order_relaxed); }
  /// Highest in-flight count any admission has reached.
  size_t in_flight_peak() const {
    return in_flight_peak_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  const DispatchOptions& options() const { return options_; }

 private:
  DispatchOptions options_;
  std::atomic<size_t> in_flight_{0};
  std::atomic<size_t> in_flight_peak_{0};
  std::atomic<uint64_t> rejected_{0};
  ThreadPool pool_;
};

}  // namespace hazy::server

#endif  // HAZY_SERVER_DISPATCH_H_
