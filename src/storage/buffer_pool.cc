#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "storage/bg_writer.h"
#include "storage/page.h"

namespace hazy::storage {

PageHandle::PageHandle(BufferPool* pool, size_t frame) : pool_(pool), frame_(frame) {}

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& o) noexcept : pool_(o.pool_), frame_(o.frame_) {
  o.pool_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    o.pool_ = nullptr;
  }
  return *this;
}

// The accessors go through FrameAt (the pool's annotated pin-protocol escape
// hatch): this handle IS a pin, so the frame cannot move or lose its buffer.

char* PageHandle::data() {
  HAZY_DCHECK(valid());
  return pool_->FrameAt(frame_).data.get();
}

const char* PageHandle::data() const {
  HAZY_DCHECK(valid());
  return pool_->FrameAt(frame_).data.get();
}

uint32_t PageHandle::page_id() const {
  HAZY_DCHECK(valid());
  return pool_->FrameAt(frame_).page_id;
}

void PageHandle::MarkDirty() {
  HAZY_DCHECK(valid());
  pool_->MarkDirtyFrame(frame_);
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(Pager* pager, size_t capacity) : pager_(pager) {
  if (capacity == 0) capacity = 1;
  MutexLock lock(mu_);  // satisfies the analysis; no concurrency exists yet
  frames_.resize(capacity);
  free_frames_.reserve(capacity);
  // Frame buffers are allocated lazily in GetVictim: a large pool must not
  // cost capacity * kPageSize of zeroed RSS up front (it dominated
  // time-to-first-query for recovery before it was deferred).
  for (size_t i = 0; i < capacity; ++i) {
    free_frames_.push_back(capacity - 1 - i);
  }
}

BufferPool::~BufferPool() { StopBackgroundWriter(); }

void BufferPool::ResetStats() {
  // Per-field relaxed stores: a concurrent fetch may bump a counter between
  // two of these zeroings, so post-reset values are independently consistent
  // per field (the BufferPoolStats contract), never torn within a field.
  stats_.hits.store(0, std::memory_order_relaxed);
  stats_.misses.store(0, std::memory_order_relaxed);
  stats_.evictions.store(0, std::memory_order_relaxed);
  stats_.dirty_writebacks.store(0, std::memory_order_relaxed);
}

void BufferPool::MarkDirtyFrame(size_t f) {
  MutexLock lock(mu_);
  frames_[f].dirty = true;
  ++frames_[f].dirty_gen;
}

Status BufferPool::LogBeforeImage(Frame& frame) {
  if (wal_ == nullptr || wal_->PageLogged(frame.page_id)) return Status::OK();
  // First write-back of this page since the checkpoint: the frame holds the
  // mutated image, but the file still holds the checkpoint-time content —
  // nothing may overwrite it before this record exists. Log what is on disk.
  static thread_local std::unique_ptr<char[]> scratch;
  if (!scratch) scratch = std::unique_ptr<char[]>(new char[kPageSize]);
  HAZY_RETURN_NOT_OK(pager_->Read(frame.page_id, scratch.get()));
  HAZY_ASSIGN_OR_RETURN(uint64_t lsn,
                        wal_->AppendBeforeImage(frame.page_id, scratch.get()));
  frame.lsn = lsn;
  return Status::OK();
}

Status BufferPool::WriteBack(Frame& frame) {
  HAZY_RETURN_NOT_OK(LogBeforeImage(frame));
  if (wal_ != nullptr) {
    // The write-ahead rule: the record protecting this page must be durable
    // before the page image may replace the checkpoint-time content.
    // Synchronous mode IS "one fsync per evicted page, inline, under the
    // mutex" by definition; the async writer exists to avoid this path.
    // lint:allow fsync-under-pool-mutex
    HAZY_RETURN_NOT_OK(wal_->EnsureDurable(frame.lsn));
    SetPageLsn(frame.data.get(), frame.lsn);
  }
  HAZY_RETURN_NOT_OK(pager_->Write(frame.page_id, frame.data.get()));
  stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
  frame.dirty = false;
  return Status::OK();
}

std::unique_ptr<char[]> BufferPool::TakeBufferLocked() {
  if (!spare_buffers_.empty()) {
    auto buf = std::move(spare_buffers_.back());
    spare_buffers_.pop_back();
    return buf;
  }
  return std::unique_ptr<char[]>(new char[kPageSize]);
}

void BufferPool::RecycleBufferLocked(std::unique_ptr<char[]> buf) {
  if (!buf) return;
  // Keep the spare stock bounded: the queue cap is the most that can ever
  // be detached at once.
  if (spare_buffers_.size() < writer_options_.max_queue) {
    spare_buffers_.push_back(std::move(buf));
  }
}

void BufferPool::DetachToWriteQueueLocked(Frame& frame) {
  auto pw = std::make_unique<PendingWrite>();
  pw->page_id = frame.page_id;
  pw->lsn = frame.lsn;
  pw->data = std::move(frame.data);
  pending_pages_[frame.page_id] = pw.get();
  write_queue_.push_back(std::move(pw));
  page_table_.erase(frame.page_id);
  frame.page_id = kInvalidPageId;
  frame.dirty = false;
  frame.lsn = 0;
  writer_cv_.NotifyAll();
}

StatusOr<PageHandle> BufferPool::Fetch(uint32_t page_id) {
  MutexLock lock(mu_);
  for (;;) {
    auto it = page_table_.find(page_id);
    if (it != page_table_.end()) {
      Frame& frame = frames_[it->second];
      if (frame.io_pending) {
        // Another thread is faulting this page in; wait for its read to
        // settle and re-check (a failed read evaporates the entry).
        io_cv_.Wait(mu_);
        continue;
      }
      if (frame.flushing) {
        // The checkpoint pre-flush is writing this frame out; a new pin
        // could mutate the bytes mid-write. Wait for the (short) flush.
        writeback_cv_.Wait(mu_);
        continue;
      }
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      if (frame.in_lru) {
        lru_.erase(frame.lru_it);
        frame.in_lru = false;
      }
      ++frame.pin_count;
      return PageHandle(this, it->second);
    }
    auto pit = pending_pages_.find(page_id);
    if (pit != pending_pages_.end()) {
      if (pit->second->writing) {
        // The writer holds this buffer mid-I/O; once the write lands the
        // file is current and the normal miss path below reads it back.
        writeback_cv_.Wait(mu_);
        continue;
      }
      // Still queued: reclaim the detached buffer directly — no disk I/O,
      // and crucially no read of the stale on-disk copy.
      auto victim = GetVictim();
      if (!victim.ok()) return victim.status();
      // GetVictim may have dropped the lock (backpressure); re-check that
      // the entry is still reclaimable.
      pit = pending_pages_.find(page_id);
      if (pit == pending_pages_.end() || pit->second->writing) {
        Frame& frame = frames_[*victim];
        RecycleBufferLocked(std::move(frame.data));
        free_frames_.push_back(*victim);
        continue;
      }
      PendingWrite* pw = pit->second;
      Frame& frame = frames_[*victim];
      RecycleBufferLocked(std::move(frame.data));
      frame.data = std::move(pw->data);
      frame.page_id = page_id;
      frame.dirty = true;  // never reached the file; still the only copy
      ++frame.dirty_gen;
      frame.lsn = pw->lsn;
      frame.pin_count = 1;
      frame.io_pending = false;
      pw->canceled = true;
      pending_pages_.erase(pit);
      page_table_[page_id] = *victim;
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      return PageHandle(this, *victim);
    }
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    HAZY_ASSIGN_OR_RETURN(size_t f, GetVictim());
    // GetVictim may have waited (writer backpressure) with the mutex
    // released; another thread may have faulted or reclaimed this page
    // meanwhile. Re-check before installing a duplicate frame.
    if (page_table_.count(page_id) != 0 || pending_pages_.count(page_id) != 0) {
      Frame& frame = frames_[f];
      RecycleBufferLocked(std::move(frame.data));
      free_frames_.push_back(f);
      continue;
    }
    Frame& frame = frames_[f];
    frame.page_id = page_id;
    frame.dirty = false;
    frame.lsn = 0;
    frame.pin_count = 1;  // pinned: cannot be victimized while the read runs
    frame.io_pending = true;
    page_table_[page_id] = f;
    // Drop the mutex for the read so misses on distinct pages overlap their
    // disk I/O (out-of-core striped scans fault in parallel). The frame is
    // invisible to eviction (pinned) and fetchers of the same page wait on
    // io_pending. `frame` stays valid across the gap: frames_ never resizes
    // and a pinned slot is never recycled.
    char* dest = frame.data.get();
    lock.Unlock();
    Status s;
    {
      obs::TraceEventTimer miss_timer(obs::SpanKind::kPoolMiss);
      s = pager_->Read(page_id, dest);
    }
    lock.Lock();
    frame.io_pending = false;
    if (!s.ok()) {
      page_table_.erase(page_id);
      frame.page_id = kInvalidPageId;
      frame.pin_count = 0;
      free_frames_.push_back(f);
      io_cv_.NotifyAll();
      return s;
    }
    io_cv_.NotifyAll();
    return PageHandle(this, f);
  }
}

StatusOr<PageHandle> BufferPool::New() {
  MutexLock lock(mu_);
  HAZY_ASSIGN_OR_RETURN(uint32_t page_id, pager_->Allocate());
  HAZY_ASSIGN_OR_RETURN(size_t f, GetVictim());
  Frame& frame = frames_[f];
  std::memset(frame.data.get(), 0, kPageSize);
  frame.page_id = page_id;
  frame.dirty = true;  // must reach the file even if never touched again
  ++frame.dirty_gen;
  frame.lsn = 0;
  frame.pin_count = 1;
  page_table_[page_id] = f;
  // A page allocated after the checkpoint has no checkpoint-time content to
  // preserve: exempt it from before-image logging for this epoch (recovery's
  // mark-and-sweep reclaims it instead).
  if (wal_ != nullptr) wal_->NotePageAllocated(page_id);
  return PageHandle(this, f);
}

Status BufferPool::DrainWriteQueueLocked() {
  writer_stalled_ = false;
  for (;;) {
    if (write_queue_.empty() && writing_count_ == 0) {
      Status s = writer_error_;
      writer_error_ = Status::OK();
      return s;
    }
    if (writer_ != nullptr) {
      writer_cv_.NotifyAll();
      // The writer can be stopped while we wait (PRAGMA bg_writer = off);
      // the wait must escape then, so the loop can fall through to the
      // inline drain instead of sleeping on a thread that is gone.
      while (!((write_queue_.empty() && writing_count_ == 0) ||
               writer_stalled_ || writer_ == nullptr)) {
        writeback_cv_.Wait(mu_);
      }
      if (writer_stalled_) {
        Status s = writer_error_;
        writer_error_ = Status::OK();
        writer_stalled_ = false;
        return s.ok() ? Status::Internal("background writer stalled") : s;
      }
      continue;  // re-evaluate: the writer may be gone (inline drain next)
    }
    // No writer thread (stopped, or never started with leftovers): write the
    // queue out inline, batch by batch.
    std::vector<std::unique_ptr<PendingWrite>> batch;
    PopBatchLocked(writer_options_.batch_pages, &batch);
    if (batch.empty()) {
      // Nothing poppable but entries are still in flight — a stopping
      // writer thread is mid-batch and needs mu_ to complete. Wait for it
      // rather than spinning with the mutex held (that would deadlock it).
      if (writing_count_ > 0) writeback_cv_.Wait(mu_);
      continue;
    }
    mu_.Unlock();
    Status s = WritePendingBatch(&batch);
    mu_.Lock();
    CompleteBatchLocked(&batch, s);
    if (!s.ok()) {
      writer_stalled_ = false;
      writer_error_ = Status::OK();
      return s;
    }
  }
}

Status BufferPool::DrainWriteQueue() {
  MutexLock lock(mu_);
  return DrainWriteQueueLocked();
}

void BufferPool::PopBatchLocked(size_t limit,
                                std::vector<std::unique_ptr<PendingWrite>>* batch) {
  while (!write_queue_.empty() && batch->size() < limit) {
    auto pw = std::move(write_queue_.front());
    write_queue_.pop_front();
    if (pw->canceled) continue;  // reclaimed/freed while queued
    pw->writing = true;
    ++writing_count_;
    batch->push_back(std::move(pw));
  }
}

Status BufferPool::WritePendingBatch(std::vector<std::unique_ptr<PendingWrite>>* batch) {
  // Phase 1: before-images for every first-dirty page of the batch. These
  // are buffered appends — no fsync yet.
  static thread_local std::unique_ptr<char[]> scratch;
  if (!scratch) scratch = std::unique_ptr<char[]>(new char[kPageSize]);
  uint64_t max_lsn = 0;
  for (auto& pw : *batch) {
    if (wal_ != nullptr && !wal_->PageLogged(pw->page_id)) {
      HAZY_RETURN_NOT_OK(pager_->Read(pw->page_id, scratch.get()));
      HAZY_ASSIGN_OR_RETURN(uint64_t lsn,
                            wal_->AppendBeforeImage(pw->page_id, scratch.get()));
      pw->lsn = lsn;
    }
    max_lsn = std::max(max_lsn, pw->lsn);
  }
  // Phase 2: ONE coalesced fsync makes every protecting record durable.
  if (wal_ != nullptr && max_lsn > 0) {
    HAZY_RETURN_NOT_OK(wal_->EnsureDurable(max_lsn));
  }
  // Phase 3: the page writes themselves, LSN-stamped.
  for (auto& pw : *batch) {
    if (wal_ != nullptr) SetPageLsn(pw->data.get(), pw->lsn);
    HAZY_RETURN_NOT_OK(pager_->Write(pw->page_id, pw->data.get()));
    pw->done = true;
    stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void BufferPool::CompleteBatchLocked(std::vector<std::unique_ptr<PendingWrite>>* batch,
                                     const Status& s) {
  // Failed entries go back to the queue front (order preserved) so nothing
  // is lost while the process lives; Fetch can still reclaim them.
  for (auto it = batch->rbegin(); it != batch->rend(); ++it) {
    auto& pw = *it;
    --writing_count_;
    if (pw->done) {
      pending_pages_.erase(pw->page_id);
      RecycleBufferLocked(std::move(pw->data));
    } else {
      pw->writing = false;
      write_queue_.push_front(std::move(pw));
    }
  }
  batch->clear();
  if (!s.ok()) {
    writer_error_ = s;
    writer_stalled_ = true;
  }
  writeback_cv_.NotifyAll();
}

bool BufferPool::WriterHasWorkLocked() const {
  if (!write_queue_.empty() && !writer_stalled_) return true;
  // Replenish work only counts when the next LRU-tail step can actually
  // make progress, else the writer would spin against a full queue.
  if (free_frames_.size() < writer_options_.free_target && !lru_.empty()) {
    const Frame& frame = frames_[lru_.back()];
    if (!frame.dirty) return true;
    return write_queue_.size() < writer_options_.max_queue && !writer_stalled_;
  }
  return false;
}

Status BufferPool::FlushAll() { return FlushImpl(/*include_pinned=*/true); }

Status BufferPool::FlushUnpinned() { return FlushImpl(/*include_pinned=*/false); }

Status BufferPool::FlushImpl(bool include_pinned) {
  MutexLock flush_lock(flush_mu_);
  MutexLock lock(mu_);
  // Dirty frames are flushed in bounded chunks: pinning the whole dirty set
  // at once could leave a concurrent fetcher with no victim at all (an
  // update sweep dirties nearly every frame), and the flush must never
  // starve foreground faults. Each chunk follows the same batched
  // discipline as the writer — log the missing before-images, ONE coalesced
  // EnsureDurable, then the page writes — never an fsync under the mutex.
  const size_t chunk_max =
      std::max<size_t>(1, std::min<size_t>(64, frames_.size() / 4));
  std::vector<size_t> dirty;
  // Stable Frame pointers for the unlocked I/O section (frames_ never
  // resizes; a `flushing` frame is pinned and cannot move or be recycled).
  std::vector<Frame*> chunk_frames;
  std::vector<uint64_t> gens;
  std::vector<bool> wrote;
  // A caller at a quiesced point (checkpoint under the statement lock)
  // converges in two passes: pass 1 flushes every dirty frame and drains
  // whatever the writer detached meanwhile; pass 2 verifies nothing is
  // left. Racing mutators (the daemon's pre-flush) can re-dirty behind the
  // cursor forever, so the pass count is bounded — pre-flush is
  // best-effort by design.
  for (int pass = 0; pass < 4; ++pass) {
    HAZY_RETURN_NOT_OK(DrainWriteQueueLocked());
    size_t flushed = 0;
    size_t cursor = 0;
    while (cursor < frames_.size()) {
      dirty.clear();
      chunk_frames.clear();
      gens.clear();
      for (; cursor < frames_.size() && dirty.size() < chunk_max; ++cursor) {
        Frame& frame = frames_[cursor];
        if (frame.page_id == kInvalidPageId || !frame.dirty || frame.io_pending) {
          continue;
        }
        // A pinned frame's owner may be mutating the bytes right now; only
        // a quiesced flush (checkpoint under the statement lock) includes it.
        if (!include_pinned && frame.pin_count > 0) continue;
        if (frame.in_lru) {
          lru_.erase(frame.lru_it);
          frame.in_lru = false;
        }
        ++frame.pin_count;
        // New fetch pins wait until the write lands, so no mutator can
        // touch the bytes mid-write (Fetch checks `flushing`).
        frame.flushing = true;
        dirty.push_back(cursor);
        chunk_frames.push_back(&frame);
        gens.push_back(frame.dirty_gen);
      }
      if (dirty.empty()) break;
      flushed += dirty.size();
      lock.Unlock();

      Status s;
      uint64_t max_lsn = 0;
      for (Frame* frame : chunk_frames) {
        s = LogBeforeImage(*frame);
        if (!s.ok()) break;
        max_lsn = std::max(max_lsn, frame->lsn);
      }
      if (s.ok() && wal_ != nullptr && max_lsn > 0) s = wal_->EnsureDurable(max_lsn);
      wrote.assign(dirty.size(), false);
      if (s.ok()) {
        for (size_t i = 0; i < chunk_frames.size(); ++i) {
          Frame& frame = *chunk_frames[i];
          if (wal_ != nullptr) SetPageLsn(frame.data.get(), frame.lsn);
          Status ws = pager_->Write(frame.page_id, frame.data.get());
          if (!ws.ok()) {
            s = ws;
            break;
          }
          wrote[i] = true;
          stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
        }
      }

      lock.Lock();
      for (size_t i = 0; i < dirty.size(); ++i) {
        Frame& frame = frames_[dirty[i]];
        // A frame re-dirtied mid-write (possible only in the quiesced
        // include_pinned mode, by this caller itself) keeps its dirty bit:
        // the torn on-disk image is WAL-protected and the frame will be
        // written again.
        if (wrote[i] && frame.dirty_gen == gens[i]) frame.dirty = false;
        frame.flushing = false;
        UnpinLocked(dirty[i]);
      }
      writeback_cv_.NotifyAll();
      if (!s.ok()) return s;
    }
    if (flushed == 0 && write_queue_.empty() && writing_count_ == 0) break;
  }
  return Status::OK();
}

void BufferPool::FreePage(uint32_t page_id) {
  MutexLock lock(mu_);
  for (;;) {
    auto pit = pending_pages_.find(page_id);
    if (pit == pending_pages_.end()) break;
    if (pit->second->writing) {
      // Let the in-flight write land; the file bytes become dead anyway.
      writeback_cv_.Wait(mu_);
      continue;
    }
    pit->second->canceled = true;
    RecycleBufferLocked(std::move(pit->second->data));
    pending_pages_.erase(pit);
    break;
  }
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    Frame& frame = frames_[it->second];
    HAZY_CHECK(frame.pin_count == 0) << "freeing pinned page " << page_id;
    if (frame.in_lru) {
      lru_.erase(frame.lru_it);
      frame.in_lru = false;
    }
    free_frames_.push_back(it->second);
    frame.page_id = kInvalidPageId;
    frame.dirty = false;
    page_table_.erase(it);
  }
  pager_->Free(page_id);
}

void BufferPool::EvictAll() {
  HAZY_CHECK_OK(FlushAll());
  MutexLock lock(mu_);
  for (size_t f = 0; f < frames_.size(); ++f) {
    Frame& frame = frames_[f];
    if (frame.page_id == kInvalidPageId || frame.pin_count > 0) continue;
    if (frame.dirty) {
      // Re-dirtied between the flush and this lock (a racing background
      // thread); write it back inline rather than dropping it.
      HAZY_CHECK_OK(WriteBack(frame));
    }
    if (frame.in_lru) {
      lru_.erase(frame.lru_it);
      frame.in_lru = false;
    }
    page_table_.erase(frame.page_id);
    frame.page_id = kInvalidPageId;
    free_frames_.push_back(f);
  }
}

void BufferPool::Unpin(size_t f) {
  MutexLock lock(mu_);
  UnpinLocked(f);
}

void BufferPool::UnpinLocked(size_t f) {
  Frame& frame = frames_[f];
  HAZY_CHECK(frame.pin_count > 0) << "unpin of unpinned frame";
  if (--frame.pin_count == 0) {
    lru_.push_front(f);
    frame.lru_it = lru_.begin();
    frame.in_lru = true;
  }
}

StatusOr<size_t> BufferPool::GetVictim() {
  for (;;) {
    if (!free_frames_.empty()) {
      size_t f = free_frames_.back();
      free_frames_.pop_back();
      if (!frames_[f].data) {
        // First use of this frame; uninitialized — every caller either reads
        // the page over it or formats it (New zeroes, heap/tree Init()s).
        frames_[f].data = TakeBufferLocked();
      }
      // Keep the writer replenishing ahead of demand.
      if (writer_ != nullptr && free_frames_.size() < writer_options_.free_target) {
        writer_cv_.NotifyAll();
      }
      return f;
    }
    if (lru_.empty()) {
      return Status::ResourceExhausted(
          StrFormat("buffer pool exhausted: all %zu frames pinned", frames_.size()));
    }
    size_t f = lru_.back();
    Frame& frame = frames_[f];
    if (frame.dirty && writer_ != nullptr) {
      if (write_queue_.size() >= writer_options_.max_queue) {
        // Backpressure: the writer is behind; wait for it to retire a batch
        // rather than growing detached memory without bound.
        writer_cv_.NotifyAll();
        while (write_queue_.size() >= writer_options_.max_queue &&
               writer_ != nullptr && !writer_stalled_) {
          writeback_cv_.Wait(mu_);
        }
        if (writer_stalled_) {
          // Fall through to the synchronous path below on the next pass so
          // foreground progress (and error reporting) is preserved.
          Status s = writer_error_;
          writer_error_ = Status::OK();
          writer_stalled_ = false;
          if (!s.ok()) return s;
        }
        continue;  // state changed while waiting; re-evaluate from scratch
      }
      lru_.pop_back();
      frame.in_lru = false;
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
      DetachToWriteQueueLocked(frame);
      frame.data = TakeBufferLocked();
      return f;
    }
    lru_.pop_back();
    frame.in_lru = false;
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    if (frame.dirty) {
      // Synchronous mode: image + fsync + write inline (the pre-writer
      // behavior, kept as the bench baseline).
      obs::TraceEventTimer evict_timer(obs::SpanKind::kPoolEvict);
      HAZY_RETURN_NOT_OK(WriteBack(frame));
    }
    page_table_.erase(frame.page_id);
    frame.page_id = kInvalidPageId;
    frame.dirty = false;
    return f;
  }
}

Status BufferPool::StartBackgroundWriter(const BgWriterOptions& options) {
  BackgroundWriter* writer = nullptr;
  {
    MutexLock lock(mu_);
    if (writer_ != nullptr) {
      return Status::InvalidArgument("background writer already running");
    }
    writer_options_ = options;
    if (writer_options_.batch_pages == 0) writer_options_.batch_pages = 1;
    writer_options_.free_target =
        std::min(writer_options_.free_target, frames_.size() / 4);
    writer_options_.max_queue =
        std::max(writer_options_.max_queue, writer_options_.batch_pages);
    writer_ = std::make_unique<BackgroundWriter>(this);
    writer = writer_.get();
  }
  writer->Start();
  return Status::OK();
}

void BufferPool::StopBackgroundWriter() {
  std::unique_ptr<BackgroundWriter> writer;
  {
    MutexLock lock(mu_);
    if (writer_ == nullptr) return;
    writer = std::move(writer_);
  }
  // Joining outside mu_: the thread needs the mutex to observe the stop
  // flag and exit. Queued buffers stay pending (crash semantics; FlushAll
  // or reclaim picks them up).
  writer->Stop();
}

bool BufferPool::background_writer_running() const {
  MutexLock lock(mu_);
  return writer_ != nullptr;
}

void BufferPool::SetWriterBatchPages(size_t n) {
  MutexLock lock(mu_);
  writer_options_.batch_pages = std::max<size_t>(1, n);
  writer_options_.max_queue =
      std::max(writer_options_.max_queue, writer_options_.batch_pages);
}

BgWriterOptions BufferPool::writer_options() const {
  MutexLock lock(mu_);
  return writer_options_;
}

}  // namespace hazy::storage
