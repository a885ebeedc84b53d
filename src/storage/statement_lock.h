// The statement lock: the one lock that serializes writers through the
// engine, and the point where a busy writer commits a checkpoint the
// background checkpointer handed to it.
//
// Every mutating entry point (row writes, DDL, update-batch brackets,
// engine-API view reads that fold trigger queues, the checkpoint commit)
// holds it for its duration through a Scope. It wraps the recursive mutex
// that SQL sessions hold for a whole statement (Database::statement_mutex()),
// so an entry point inside such a statement re-enters it, and so do nested
// trigger entry points and a checkpoint's own system-table writes. Snapshot
// reads (core/epoch.h) take no lock at all.
//
// The checkpointer never blocks on the lock: it try-locks, and when a writer
// holds it, posts a request instead. The exit hook runs as the outermost
// Scope leaves, still under the lock, so the writer commits the request at
// its own statement boundary. Scopes the hook itself opens are nested and
// never re-run it.
//
// Stays a std::recursive_mutex outside the annotated hazy::Mutex surface:
// clang thread-safety analysis cannot model reentrant acquisition without
// reentrant_capability (too new to require).

#ifndef HAZY_STORAGE_STATEMENT_LOCK_H_
#define HAZY_STORAGE_STATEMENT_LOCK_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hazy::storage {

class StatementLock {
 public:
  /// `exit_hook` runs as an outermost Scope exits, before the mutex is
  /// released.
  explicit StatementLock(std::function<void()> exit_hook)
      : exit_hook_(std::move(exit_hook)) {}
  StatementLock(const StatementLock&) = delete;
  StatementLock& operator=(const StatementLock&) = delete;

  /// The mutex itself, for callers that hold it across several entry points
  /// (a whole SQL statement). A raw hold is not a Scope: the first Scope
  /// taken inside it is the outermost one.
  std::recursive_mutex* mutex() { return &mu_; }

  /// Holds the lock for one entry point. Tolerates a null lock (tables used
  /// without an engine).
  class Scope {
   public:
    explicit Scope(StatementLock* lock) : lock_(lock) {
      if (lock_ == nullptr) return;
      if (!lock_->mu_.try_lock()) {
        const int64_t t0 = NowNanos();
        lock_->mu_.lock();
        RecordWait(t0);
      }
      ++lock_->depth_;
    }
    ~Scope() {
      if (lock_ == nullptr) return;
      if (lock_->depth_ == 1 && lock_->exit_hook_) lock_->exit_hook_();
      --lock_->depth_;
      lock_->mu_.unlock();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StatementLock* lock_;
  };

 private:
  // Always-on wait accounting for contended acquisitions: the registry
  // histogram fills even with no trace installed, and the current
  // statement's trace, when there is one, gets the event too.
  static void RecordWait(int64_t start_ns) {
    static obs::Histogram* hist = obs::Registry::Global().GetHistogram(
        "hazy_gate_wait_us", "mode=\"shared\"");
    const uint64_t dur_ns = static_cast<uint64_t>(NowNanos() - start_ns);
    hist->Observe(static_cast<double>(dur_ns) / 1000.0);
    obs::TraceContext* trace = obs::CurrentTrace();
    if (trace != nullptr) trace->AddEvent(obs::SpanKind::kGateWait, dur_ns);
  }

  std::recursive_mutex mu_;
  /// Scopes the owning thread holds; touched only under mu_.
  int depth_ = 0;
  const std::function<void()> exit_hook_;
};

}  // namespace hazy::storage

#endif  // HAZY_STORAGE_STATEMENT_LOCK_H_
