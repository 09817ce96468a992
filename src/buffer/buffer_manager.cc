#include "buffer/buffer_manager.h"

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "observe/flight_recorder.h"
#include "observe/log.h"
#include "observe/metrics.h"
#include "testing/fault_injector.h"

namespace ssagg {

//===----------------------------------------------------------------------===//
// BlockHandle / BufferHandle
//===----------------------------------------------------------------------===//

BlockHandle::~BlockHandle() {
  // The last shared_ptr is gone, so no pins can be outstanding; release any
  // memory or temporary-file space still held.
  manager_.CleanupDroppedBlock(*this);
}

void BufferHandle::Reset() {
  if (handle_) {
    handle_->manager_.Unpin(*handle_);
    handle_.reset();
  }
  buffer_ = nullptr;
}

//===----------------------------------------------------------------------===//
// NonPagedAllocation
//===----------------------------------------------------------------------===//

NonPagedAllocation &NonPagedAllocation::operator=(
    NonPagedAllocation &&other) noexcept {
  if (this != &other) {
    Reset();
    manager_ = other.manager_;
    data_ = other.data_;
    size_ = other.size_;
    other.manager_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void NonPagedAllocation::Reset() {
  if (data_ != nullptr) {
    delete[] data_;
    manager_->FreeNonPaged(size_);
    data_ = nullptr;
    manager_ = nullptr;
    size_ = 0;
  }
}

//===----------------------------------------------------------------------===//
// BufferManager
//===----------------------------------------------------------------------===//

BufferManagerOptions BufferManagerOptions::FromEnv() {
  BufferManagerOptions options;
  options.io_backend = IoBackendKindFromEnv();
  options.spill_compression = SpillCompressionFromEnv();
  return options;
}

namespace {
BufferManagerOptions WithPolicy(EvictionPolicy policy) {
  BufferManagerOptions options = BufferManagerOptions::FromEnv();
  options.policy = policy;
  return options;
}
}  // namespace

BufferManager::BufferManager(std::string temp_directory, idx_t memory_limit,
                             EvictionPolicy policy, FileSystem &fs)
    : BufferManager(std::move(temp_directory), memory_limit,
                    WithPolicy(policy), fs) {}

BufferManager::BufferManager(std::string temp_directory, idx_t memory_limit,
                             BufferManagerOptions options, FileSystem &fs)
    : temp_directory_(std::move(temp_directory)),
      fs_(fs),
      memory_limit_(memory_limit),
      io_backend_(CreateIoBackend(options.io_backend, options.io_threads)),
      spill_batch_(options.spill_batch != 0
                       ? options.spill_batch
                       : (io_backend_->kind() == IoBackendKind::kSync ? 1
                                                                      : 16)),
      prefetch_enabled_(options.prefetch &&
                        io_backend_->kind() != IoBackendKind::kSync),
      temp_files_(temp_directory_, fs, io_backend_.get(),
                  options.spill_compression),
      policy_(options.policy) {
  MetricsRegistry &registry = MetricsRegistry::Global();
  key_evict_persistent_ = registry.KeyId("bm.evictions_persistent");
  key_evict_temp_spilled_ = registry.KeyId("bm.evictions_temporary_spilled");
  key_evict_temp_destroyed_ =
      registry.KeyId("bm.evictions_temporary_destroyed");
  key_buffer_reuse_ = registry.KeyId("bm.buffer_reuse_hits");
  key_oom_rejections_ = registry.KeyId("bm.oom_rejections");
  hist_pin_wait_ = registry.HistogramId("bm.pin_wait_ns");
  hist_evict_select_ = registry.HistogramId("bm.evict_select_ns");
}

BufferManager::~BufferManager() {
  // Outstanding prefetch completions hold shared_ptr<BlockHandle> and touch
  // this manager; none may survive past here.
  io_backend_->Drain();
}

idx_t BufferManager::QueueIndexLocked(BlockKind kind) const {
  if (policy_ == EvictionPolicy::kMixed) {
    return 0;
  }
  return kind == BlockKind::kPersistent ? 1 : 0;
}

EvictionPolicy BufferManager::policy() const {
  ScopedLock guard(queue_lock_);
  return policy_;
}

void BufferManager::SetEvictionPolicy(EvictionPolicy policy) {
  ScopedLock guard(queue_lock_);
  // Redistribute existing entries according to the new policy's queue
  // mapping. Stale entries are carried along; they are skipped lazily.
  std::deque<EvictionEntry> all;
  for (auto &queue : queues_) {
    for (auto &entry : queue) {
      all.push_back(std::move(entry));
    }
    queue.clear();
  }
  policy_ = policy;
  for (auto &entry : all) {
    auto handle = entry.handle.lock();
    if (!handle) {
      continue;
    }
    queues_[QueueIndexLocked(handle->kind())].push_back(std::move(entry));
  }
}

void BufferManager::ChargeLoaded(BlockKind kind, idx_t size) {
  if (kind == BlockKind::kPersistent) {
    persistent_loaded_bytes_.fetch_add(size, std::memory_order_relaxed);
  } else {
    temporary_loaded_bytes_.fetch_add(size, std::memory_order_relaxed);
  }
}

void BufferManager::DischargeLoaded(BlockKind kind, idx_t size) {
  if (kind == BlockKind::kPersistent) {
    persistent_loaded_bytes_.fetch_sub(size, std::memory_order_relaxed);
  } else {
    temporary_loaded_bytes_.fetch_sub(size, std::memory_order_relaxed);
  }
}

Status BufferManager::OutOfMemoryStatus(idx_t request) const {
  auto bytes = [](const std::atomic<idx_t> &counter) {
    return std::to_string(counter.load(std::memory_order_relaxed));
  };
  return Status::OutOfMemory(
      "cannot reserve " + std::to_string(request) + " bytes: limit " +
      bytes(memory_limit_) + ", used " + bytes(memory_used_) +
      " (persistent " + bytes(persistent_loaded_bytes_) + ", temporary " +
      bytes(temporary_loaded_bytes_) + ", non-paged " +
      bytes(non_paged_bytes_) + "), " + std::to_string(PinnedBufferCount()) +
      " pinned buffers, and no page can be evicted");
}

// This function manages a *set* of manually try-locked block handles (the
// spill batch) whose locks are held across the batched write and released
// one by one afterwards — a pattern scoped capabilities cannot express.
Result<std::unique_ptr<FileBuffer>>
// SAFETY: lock order is preserved: block locks are only ever try-locked,
// and queue_lock_ is a leaf acquired below them.
BufferManager::EvictBlocks(idx_t reuse_size, idx_t request)
    SSAGG_NO_THREAD_SAFETY_ANALYSIS {
  // Lock-holder accounting for the dry-queue back-off below. Only threads
  // that currently *hold* candidate locks count: a scan that merely pops and
  // examines entries must not — two concurrent scans that each find nothing
  // would otherwise see each other "in flight" and retry forever, turning a
  // genuine out-of-memory condition into a livelock (observed with two
  // spilling queries whose eviction scans ran simultaneously).
  idx_t held_locks = 0;
  auto note_lock = [&]() {
    if (held_locks++ == 0) {
      eviction_lock_holders_.fetch_add(1, std::memory_order_acq_rel);
    }
  };
  auto note_unlock = [&]() {
    SSAGG_DASSERT(held_locks > 0);
    if (--held_locks == 0) {
      eviction_lock_holders_.fetch_sub(1, std::memory_order_acq_rel);
    }
  };
  struct HolderGuard {
    idx_t &held;
    std::atomic<idx_t> &count;
    ~HolderGuard() {
      SSAGG_DASSERT(held == 0);  // every path unlocks before returning
      if (held > 0) {
        count.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
  } holder_guard{held_locks, eviction_lock_holders_};

  // Victim-selection time: queue scanning and try-lock churn up to the
  // point a decision is made (spill, drop, or give up) — the write itself
  // is excluded; the spill histograms cover that.
  auto select_start = std::chrono::steady_clock::now();
  bool selection_recorded = false;
  auto record_selection = [&]() {
    if (selection_recorded) {
      return;
    }
    selection_recorded = true;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - select_start)
                  .count();
    MetricsRegistry::Global().Record(hist_evict_select_,
                                     static_cast<uint64_t>(ns));
  };

  // Fixed-size spill candidates whose lock_ this function currently holds.
  std::vector<std::shared_ptr<BlockHandle>> batch;

  auto enqueue = [this](const std::shared_ptr<BlockHandle> &handle,
                        uint64_t seq, bool front) {
    ScopedLock guard(queue_lock_);
    auto &queue = queues_[QueueIndexLocked(handle->kind())];
    if (front) {
      queue.push_front(EvictionEntry{handle->weak_from_this(), seq});
    } else {
      queue.push_back(EvictionEntry{handle->weak_from_this(), seq});
    }
  };

  // Drops the (locked, spill-complete or free-to-drop) block's buffer,
  // harvesting the first reuse_size-sized one for the caller.
  auto finalize = [&](BlockHandle &block, std::unique_ptr<FileBuffer> &result)
                      // SAFETY: called only while the block's lock_ is held.
                      SSAGG_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_ptr<FileBuffer> buffer = std::move(block.buffer_);
    block.state_ = BlockState::kUnloaded;
    DischargeLoaded(block.kind_, block.size_);
    if (!result && buffer->size() == reuse_size) {
      // Hand the buffer to the new allocation; its memory charge transfers.
      reused_buffers_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_buffer_reuse_, 1);
      result = std::move(buffer);
      return;
    }
    buffer.reset();
    memory_used_.fetch_sub(block.size_, std::memory_order_relaxed);
  };

  // Spills the batch as one overlapped submission. All-or-nothing: if any
  // member fails, successful members release their slots, every block stays
  // loaded and is re-enqueued, and the first error propagates.
  // SAFETY: owns (and releases) the batch members' manually held locks.
  auto flush = [&]() SSAGG_NO_THREAD_SAFETY_ANALYSIS
      -> Result<std::unique_ptr<FileBuffer>> {
    SSAGG_DASSERT(!batch.empty());
    SSAGG_LOG_DEBUG("spilling batch of %llu temporary pages",
                    static_cast<unsigned long long>(batch.size()));
    std::vector<FixedSpillRequest> requests(batch.size());
    for (idx_t i = 0; i < batch.size(); i++) {
      requests[i].buffer = batch[i]->buffer_.get();
    }
    temp_files_.WriteFixedBlocks(requests.data(), requests.size());
    Status first_error;
    for (const auto &request : requests) {
      if (!request.status.ok()) {
        first_error = request.status;
        break;
      }
    }
    if (!first_error.ok()) {
      for (idx_t i = 0; i < batch.size(); i++) {
        if (requests[i].status.ok() && requests[i].slot != kInvalidIndex) {
          temp_files_.FreeFixedSlot(requests[i].slot);
        }
        uint64_t seq = batch[i]->eviction_seq_.fetch_add(
                           1, std::memory_order_relaxed) +
                       1;
        batch[i]->lock_.unlock();
        note_unlock();
        enqueue(batch[i], seq, /*front=*/false);
      }
      batch.clear();
      return first_error;
    }
    std::unique_ptr<FileBuffer> result;
    for (idx_t i = 0; i < batch.size(); i++) {
      batch[i]->temp_slot_ = requests[i].slot;
      evicted_temporary_count_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_evict_temp_spilled_, 1);
      finalize(*batch[i], result);
      batch[i]->lock_.unlock();
      note_unlock();
    }
    batch.clear();
    return result;
  };

  while (true) {
    std::shared_ptr<BlockHandle> candidate;
    uint64_t entry_seq = 0;
    {
      ScopedLock guard(queue_lock_);
      // Order in which the queues are drained, per policy. Computed under
      // the queue lock: policy_ may change concurrently (it used to be read
      // unlocked here, racing with SetEvictionPolicy).
      idx_t order[2] = {0, 1};
      if (policy_ == EvictionPolicy::kPersistentFirst) {
        order[0] = 1;
        order[1] = 0;
      }
      for (idx_t qi : order) {
        auto &queue = queues_[qi];
        for (auto it = queue.begin(); it != queue.end();) {
          auto handle = it->handle.lock();
          if (!handle) {
            it = queue.erase(it);  // block was dropped entirely
            continue;
          }
          candidate = std::move(handle);
          entry_seq = it->seq;
          queue.erase(it);
          break;
        }
        if (candidate) {
          break;
        }
      }
    }
    if (!candidate) {
      if (!batch.empty()) {
        // The queues ran dry while gathering a batch; what we have is
        // enough to satisfy the reservation.
        record_selection();
        return flush();
      }
      if (eviction_lock_holders_.load(std::memory_order_acquire) > 0) {
        // Another thread's eviction batch holds the remaining candidates
        // locked. That is not out-of-memory: its blocks are either about to
        // free their memory or to be re-enqueued. Back off and let
        // ReserveMemory retry.
        std::this_thread::yield();
        record_selection();
        return std::unique_ptr<FileBuffer>(nullptr);
      }
      oom_rejections_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_oom_rejections_, 1);
      record_selection();
      TraceInstant("oom_rejection", "bm", request);
      Status oom = OutOfMemoryStatus(request);
      SSAGG_LOG_INFO("reservation rejected: %s", oom.message().c_str());
      return oom;
    }
    if (!candidate->lock_.try_lock()) {
      // Someone is pinning or evicting this block; its queue entry will be
      // recreated on the next unpin if needed.
      continue;
    }
    note_lock();
    if (candidate->eviction_seq_.load(std::memory_order_relaxed) !=
            entry_seq ||
        candidate->readers_.load(std::memory_order_relaxed) != 0 ||
        candidate->state_ != BlockState::kLoaded || candidate->destroyed_) {
      candidate->lock_.unlock();
      note_unlock();
      continue;  // stale entry
    }
    BlockKind kind = candidate->kind_;
    idx_t size = candidate->size_;
    if (kind != BlockKind::kPersistent && !candidate->can_destroy_ &&
        !spill_temporary_.load(std::memory_order_relaxed)) {
      // In-memory-only mode: temporary pages cannot be offloaded. Drop the
      // queue entry and keep looking; with nothing else evictable the
      // reservation fails with OutOfMemory (the engine "aborts").
      candidate->lock_.unlock();
      note_unlock();
      continue;
    }
    if (kind == BlockKind::kTemporaryFixed && !candidate->can_destroy_) {
      // Spillable fixed-size page: gather it (lock stays held) and keep
      // scanning until the batch is full. Depth 1 (the sync default)
      // reproduces the pre-batching one-write-per-eviction schedule.
      batch.push_back(std::move(candidate));
      if (batch.size() >= spill_batch_) {
        record_selection();
        return flush();
      }
      continue;
    }
    // Free-to-drop or variable-size candidate. If a batch is in progress,
    // put the candidate back where it came from (the original seq keeps the
    // entry valid) and satisfy the reservation from the batch instead.
    if (!batch.empty()) {
      candidate->lock_.unlock();
      note_unlock();
      enqueue(candidate, entry_seq, /*front=*/true);
      record_selection();
      return flush();
    }
    record_selection();
    if (kind == BlockKind::kPersistent) {
      // Contents are replicated in the database file: dropping is free.
      evicted_persistent_count_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_evict_persistent_, 1);
    } else if (candidate->can_destroy_) {
      candidate->destroyed_ = true;
      evicted_temporary_count_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_evict_temp_destroyed_, 1);
    } else {
      SSAGG_DASSERT(kind == BlockKind::kTemporaryVariable);
      SSAGG_LOG_DEBUG("spilling temporary block of %llu bytes",
                      static_cast<unsigned long long>(size));
      Status spill =
          temp_files_.WriteVariableBlock(candidate->id_, *candidate->buffer_);
      if (!spill.ok()) {
        // The block stays loaded and unpinned; re-enqueue it so it remains
        // an eviction candidate for later reservations (its previous queue
        // entry was consumed above). The failed reservation propagates.
        uint64_t seq = candidate->eviction_seq_.fetch_add(
                           1, std::memory_order_relaxed) +
                       1;
        candidate->lock_.unlock();
        note_unlock();
        enqueue(candidate, seq, /*front=*/false);
        return spill;
      }
      candidate->spilled_to_own_file_ = true;
      evicted_temporary_count_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_evict_temp_spilled_, 1);
    }
    std::unique_ptr<FileBuffer> result;
    finalize(*candidate, result);
    candidate->lock_.unlock();
    note_unlock();
    return result;
  }
}

Result<std::unique_ptr<FileBuffer>> BufferManager::ReserveMemory(
    idx_t size) {
  if (FaultInjector *injector =
          fault_injector_.load(std::memory_order_acquire)) {
    SSAGG_RETURN_NOT_OK(injector->Hit(FaultSite::kAllocate));
  }
  while (true) {
    idx_t current = memory_used_.load(std::memory_order_relaxed);
    if (current + size <= memory_limit_.load(std::memory_order_relaxed)) {
      if (memory_used_.compare_exchange_weak(current, current + size,
                                             std::memory_order_relaxed)) {
        return std::unique_ptr<FileBuffer>(nullptr);
      }
      continue;  // lost the race; retry
    }
    // Buffer reuse transfers the evicted block's charge, leaving usage
    // unchanged — only acceptable while usage is within the limit. When the
    // pool is over the limit (it was lowered), evictions must actually free
    // memory so usage converges below it.
    bool allow_reuse =
        current <= memory_limit_.load(std::memory_order_relaxed);
    SSAGG_ASSIGN_OR_RETURN(auto evicted,
                           EvictBlocks(allow_reuse ? size : 0, size));
    if (evicted) {
      return evicted;  // charge transferred with buffer
    }
  }
}

Result<BufferHandle> BufferManager::Allocate(
    idx_t size, std::shared_ptr<BlockHandle> *out_handle, bool can_destroy) {
  SSAGG_ASSERT(size > 0);
  BlockKind kind = size == kPageSize ? BlockKind::kTemporaryFixed
                                     : BlockKind::kTemporaryVariable;
  SSAGG_ASSIGN_OR_RETURN(auto buffer, ReserveMemory(size));
  if (!buffer) {
    buffer = std::make_unique<FileBuffer>(size);
  }
  auto handle = std::make_shared<BlockHandle>(
      *this, next_temp_block_id_.fetch_add(1), kind, size, can_destroy,
      nullptr);
  FileBuffer *raw;
  {
    // The handle has not been published yet; the lock is uncontended and
    // taken only to satisfy the capability analysis uniformly.
    ScopedLock lock(handle->lock_);
    handle->buffer_ = std::move(buffer);
    handle->state_ = BlockState::kLoaded;
    handle->readers_.store(1, std::memory_order_relaxed);
    raw = handle->buffer_.get();
  }
  pinned_buffers_.fetch_add(1, std::memory_order_relaxed);
  ChargeLoaded(kind, size);
  if (out_handle) {
    *out_handle = handle;
  }
  return BufferHandle(std::move(handle), raw);
}

std::shared_ptr<BlockHandle> BufferManager::RegisterPersistentBlock(
    FileBlockManager &block_manager, block_id_t block_id) {
  return std::make_shared<BlockHandle>(*this, block_id,
                                       BlockKind::kPersistent, kPageSize,
                                       /*can_destroy=*/false, &block_manager);
}

Result<BufferHandle> BufferManager::Pin(
    const std::shared_ptr<BlockHandle> &handle) {
  if (FaultInjector *injector =
          fault_injector_.load(std::memory_order_acquire)) {
    SSAGG_RETURN_NOT_OK(injector->Hit(FaultSite::kPin));
  }
  ScopedLock lock(handle->lock_);
  if (handle->destroyed_) {
    return Status::Aborted("pin of a destroyed block");
  }
  if (handle->state_ == BlockState::kLoading) {
    // An asynchronous prefetch is reading the block in; wait for it to
    // publish (kLoaded) or fail (kUnloaded + load_error_). The wait is the
    // query-visible cost of that read, so it counts as blocked-on-spill time.
    auto wait_start = std::chrono::steady_clock::now();
    handle->load_cv_.Wait(handle->lock_, [&]() SSAGG_REQUIRES(handle->lock_) {
      return handle->state_ != BlockState::kLoading;
    });
    auto waited_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count());
    load_wait_ns_.fetch_add(waited_ns, std::memory_order_relaxed);
    MetricsRegistry::Global().Record(hist_pin_wait_, waited_ns);
    if (handle->destroyed_) {
      return Status::Aborted("pin of a destroyed block");
    }
  }
  if (!handle->load_error_.ok()) {
    // A failed prefetch left its poison: surface the I/O error exactly once
    // (the block kept its spill state, so a later Pin retries the load).
    Status error = std::move(handle->load_error_);
    handle->load_error_ = Status::OK();
    return error;
  }
  if (handle->state_ == BlockState::kLoaded) {
    handle->readers_.fetch_add(1, std::memory_order_relaxed);
    pinned_buffers_.fetch_add(1, std::memory_order_relaxed);
    // Invalidate any queued eviction entries for this block.
    handle->eviction_seq_.fetch_add(1, std::memory_order_relaxed);
    return BufferHandle(handle, handle->buffer_.get());
  }
  // Block must be loaded from storage; make room first. Deadlock with
  // concurrent pins is avoided because eviction uses try_lock.
  SSAGG_ASSIGN_OR_RETURN(auto buffer, ReserveMemory(handle->size_));
  if (!buffer) {
    buffer = std::make_unique<FileBuffer>(handle->size_);
  }
  Status read_status;
  switch (handle->kind_) {
    case BlockKind::kPersistent:
      read_status = handle->block_manager_->ReadBlock(handle->id_, *buffer);
      break;
    case BlockKind::kTemporaryFixed:
      SSAGG_ASSERT(handle->temp_slot_ != kInvalidIndex);
      read_status = temp_files_.ReadFixedBlock(handle->temp_slot_, *buffer);
      // The slot is only released on success; a failed read keeps the
      // block's spill state so its space is reclaimed when the handle is
      // dropped (no leaked slot, no dangling reference).
      if (read_status.ok()) {
        handle->temp_slot_ = kInvalidIndex;
      }
      break;
    case BlockKind::kTemporaryVariable:
      SSAGG_ASSERT(handle->spilled_to_own_file_);
      read_status = temp_files_.ReadVariableBlock(handle->id_, *buffer);
      if (read_status.ok()) {
        handle->spilled_to_own_file_ = false;
      }
      break;
  }
  if (!read_status.ok()) {
    memory_used_.fetch_sub(handle->size_, std::memory_order_relaxed);
    return read_status;
  }
  handle->buffer_ = std::move(buffer);
  handle->state_ = BlockState::kLoaded;
  handle->readers_.store(1, std::memory_order_relaxed);
  pinned_buffers_.fetch_add(1, std::memory_order_relaxed);
  handle->eviction_seq_.fetch_add(1, std::memory_order_relaxed);
  ChargeLoaded(handle->kind_, handle->size_);
  return BufferHandle(handle, handle->buffer_.get());
}

bool BufferManager::TryReserveForPrefetch(idx_t size) {
  // Speculative reservation: spare headroom only — never evict, never
  // consult the fault injector (a prefetch that cannot get memory is simply
  // skipped, not an error).
  while (true) {
    idx_t current = memory_used_.load(std::memory_order_relaxed);
    if (current + size > memory_limit_.load(std::memory_order_relaxed)) {
      return false;
    }
    if (memory_used_.compare_exchange_weak(current, current + size,
                                           std::memory_order_relaxed)) {
      return true;
    }
  }
}

void BufferManager::Prefetch(const std::shared_ptr<BlockHandle> &handle) {
  if (!prefetch_enabled_) {
    return;
  }
  if (!handle->lock_.try_lock()) {
    return;  // contended → it is being pinned or evicted right now anyway
  }
  FileBuffer *raw = nullptr;
  idx_t slot = kInvalidIndex;
  {
    ScopedLock lock(handle->lock_, std::adopt_lock);
    if (handle->destroyed_ || handle->kind_ != BlockKind::kTemporaryFixed ||
        handle->state_ != BlockState::kUnloaded ||
        handle->temp_slot_ == kInvalidIndex || !handle->load_error_.ok()) {
      return;  // not a spilled fixed page (or carrying unsurfaced poison)
    }
    if (!TryReserveForPrefetch(handle->size_)) {
      return;  // memory is tight; the eventual Pin will evict as usual
    }
    handle->buffer_ = std::make_unique<FileBuffer>(handle->size_);
    handle->state_ = BlockState::kLoading;
    raw = handle->buffer_.get();
    slot = handle->temp_slot_;
  }
  // Submit *outside* the block lock: a sync-completing backend runs
  // FinishPrefetch inline on this thread, which re-takes the lock.
  prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
  temp_files_.SubmitReadFixedBlock(
      slot, *raw,
      [this, handle](const Status &status) { FinishPrefetch(handle, status); });
}

void BufferManager::FinishPrefetch(const std::shared_ptr<BlockHandle> &handle,
                                   const Status &status) {
  bool loaded = false;
  {
    ScopedLock lock(handle->lock_);
    SSAGG_DASSERT(handle->state_ == BlockState::kLoading);
    if (status.ok()) {
      // The temporary-file manager released the slot with the read.
      handle->temp_slot_ = kInvalidIndex;
      if (handle->destroyed_) {
        // Destroyed mid-flight: drop the freshly loaded contents.
        handle->buffer_.reset();
        handle->state_ = BlockState::kUnloaded;
        memory_used_.fetch_sub(handle->size_, std::memory_order_relaxed);
      } else {
        handle->state_ = BlockState::kLoaded;
        handle->eviction_seq_.fetch_add(1, std::memory_order_relaxed);
        ChargeLoaded(handle->kind_, handle->size_);
        loaded = true;
        // The block is unpinned, so it is immediately an eviction candidate
        // again (LRU-freshest: it was just read back on purpose).
        uint64_t seq =
            handle->eviction_seq_.load(std::memory_order_relaxed);
        ScopedLock guard(queue_lock_);
        queues_[QueueIndexLocked(handle->kind_)].push_back(
            EvictionEntry{handle->weak_from_this(), seq});
      }
    } else {
      // Failed read keeps the slot (spill state stays reclaimable). Poison
      // the block so the next Pin surfaces the error; if it was destroyed
      // mid-flight nobody will pin again, so release the slot here.
      handle->buffer_.reset();
      handle->state_ = BlockState::kUnloaded;
      memory_used_.fetch_sub(handle->size_, std::memory_order_relaxed);
      if (handle->destroyed_) {
        if (handle->temp_slot_ != kInvalidIndex) {
          temp_files_.FreeFixedSlot(handle->temp_slot_);
          handle->temp_slot_ = kInvalidIndex;
        }
      } else {
        handle->load_error_ = status;
      }
    }
  }
  handle->load_cv_.NotifyAll();
  if (loaded) {
    prefetch_completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void BufferManager::Unpin(BlockHandle &block) {
  ScopedLock lock(block.lock_);
  int32_t readers = block.readers_.fetch_sub(1, std::memory_order_relaxed) - 1;
  pinned_buffers_.fetch_sub(1, std::memory_order_relaxed);
  SSAGG_DASSERT(readers >= 0);
  if (readers != 0 || block.state_ != BlockState::kLoaded) {
    return;
  }
  if (block.destroyed_) {
    // DestroyBlock was called while pins were outstanding; free now.
    block.buffer_.reset();
    block.state_ = BlockState::kUnloaded;
    DischargeLoaded(block.kind_, block.size_);
    memory_used_.fetch_sub(block.size_, std::memory_order_relaxed);
    return;
  }
  // Becomes an eviction candidate.
  uint64_t seq =
      block.eviction_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  ScopedLock guard(queue_lock_);
  // weak_from_this is never expired here: the caller (BufferHandle) still
  // holds a shared_ptr.
  queues_[QueueIndexLocked(block.kind_)].push_back(
      EvictionEntry{block.weak_from_this(), seq});
}

void BufferManager::DestroyBlock(const std::shared_ptr<BlockHandle> &handle) {
  ScopedLock lock(handle->lock_);
  if (handle->destroyed_) {
    return;
  }
  if (handle->state_ == BlockState::kLoading) {
    // Wait out the in-flight prefetch before destroying so the no-leak
    // invariant (no charge, no slot) holds the moment the owner is gone —
    // not at some later completion. Rare: only a destroy that races a
    // prefetch of the same block gets here.
    handle->load_cv_.Wait(handle->lock_, [&]() SSAGG_REQUIRES(handle->lock_) {
      return handle->state_ != BlockState::kLoading;
    });
  }
  handle->destroyed_ = true;
  if (handle->state_ == BlockState::kLoaded) {
    if (handle->readers_.load(std::memory_order_relaxed) == 0) {
      handle->buffer_.reset();
      handle->state_ = BlockState::kUnloaded;
      DischargeLoaded(handle->kind_, handle->size_);
      memory_used_.fetch_sub(handle->size_, std::memory_order_relaxed);
    }
    // else: freed by the final Unpin.
    return;
  }
  // Spilled: release temporary-file space.
  if (handle->temp_slot_ != kInvalidIndex) {
    temp_files_.FreeFixedSlot(handle->temp_slot_);
    handle->temp_slot_ = kInvalidIndex;
  }
  if (handle->spilled_to_own_file_) {
    temp_files_.FreeVariableBlock(handle->id_);
    handle->spilled_to_own_file_ = false;
  }
}

void BufferManager::CleanupDroppedBlock(BlockHandle &block) {
  // Destructor context: the last shared_ptr is gone and eviction's weak_ptrs
  // can no longer be upgraded, so the lock is uncontended; taken anyway to
  // keep the capability analysis free of escapes. Acquired with try_lock
  // because this runs wherever the last reference happens to drop — e.g.
  // inside an eviction scan that already holds another block's lock — and
  // an acquisition that cannot block must not trip the lock-rank checker.
  if (!block.lock_.try_lock()) {
    block.lock_.lock();  // unreachable: no other owner can exist
  }
  ScopedLock lock(block.lock_, std::adopt_lock);
  if (block.destroyed_) {
    return;
  }
  if (block.state_ == BlockState::kLoaded) {
    block.buffer_.reset();
    DischargeLoaded(block.kind_, block.size_);
    memory_used_.fetch_sub(block.size_, std::memory_order_relaxed);
    return;
  }
  if (block.temp_slot_ != kInvalidIndex) {
    temp_files_.FreeFixedSlot(block.temp_slot_);
  }
  if (block.spilled_to_own_file_) {
    temp_files_.FreeVariableBlock(block.id_);
  }
}

Result<NonPagedAllocation> BufferManager::AllocateNonPaged(idx_t size) {
  SSAGG_ASSIGN_OR_RETURN(auto reused, ReserveMemory(size));
  reused.reset();  // a page buffer cannot back a non-paged allocation
  data_ptr_t data = new data_t[size];
  non_paged_bytes_.fetch_add(size, std::memory_order_relaxed);
  return NonPagedAllocation(this, data, size);
}

void BufferManager::FreeNonPaged(idx_t size) {
  non_paged_bytes_.fetch_sub(size, std::memory_order_relaxed);
  memory_used_.fetch_sub(size, std::memory_order_relaxed);
}

Status BufferManager::ReserveExternalMemory(idx_t size) {
  SSAGG_ASSIGN_OR_RETURN(auto reused, ReserveMemory(size));
  // An evicted buffer cannot back an external allocation; release the
  // physical memory but keep the charge (it now accounts for the caller's
  // allocation).
  reused.reset();
  return Status::OK();
}

void BufferManager::FreeExternalMemory(idx_t size) {
  memory_used_.fetch_sub(size, std::memory_order_relaxed);
}

BufferManagerSnapshot BufferManager::Snapshot() const {
  BufferManagerSnapshot snap;
  snap.memory_used = memory_used_.load(std::memory_order_relaxed);
  snap.memory_limit = memory_limit_.load(std::memory_order_relaxed);
  snap.persistent_bytes_in_memory =
      persistent_loaded_bytes_.load(std::memory_order_relaxed);
  snap.temporary_bytes_in_memory =
      temporary_loaded_bytes_.load(std::memory_order_relaxed);
  snap.non_paged_bytes = non_paged_bytes_.load(std::memory_order_relaxed);
  snap.temp_file_size = temp_files_.CurrentSize();
  snap.temp_file_peak = temp_files_.PeakSize();
  snap.evicted_persistent_count =
      evicted_persistent_count_.load(std::memory_order_relaxed);
  snap.evicted_temporary_count =
      evicted_temporary_count_.load(std::memory_order_relaxed);
  snap.reused_buffers = reused_buffers_.load(std::memory_order_relaxed);
  snap.temp_writes = temp_files_.WriteCount();
  snap.temp_reads = temp_files_.ReadCount();
  snap.spill_bytes_written = temp_files_.BytesWritten();
  snap.spill_bytes_read = temp_files_.BytesRead();
  snap.spill_raw_bytes = temp_files_.RawBytesWritten();
  snap.spill_coalesced_writes = temp_files_.CoalescedWrites();
  snap.spill_coalesced_pages = temp_files_.CoalescedPages();
  snap.prefetch_issued = prefetch_issued_.load(std::memory_order_relaxed);
  snap.prefetch_completed =
      prefetch_completed_.load(std::memory_order_relaxed);
  snap.spill_write_seconds = temp_files_.WriteSeconds();
  snap.spill_read_seconds =
      temp_files_.ReadSeconds() +
      static_cast<double>(load_wait_ns_.load(std::memory_order_relaxed)) *
          1e-9;
  snap.spill_slot_reuses = temp_files_.SlotReuses();
  snap.spill_variable_files = temp_files_.VariableFilesCreated();
  snap.oom_rejections = oom_rejections_.load(std::memory_order_relaxed);
  snap.pinned_buffers = PinnedBufferCount();
  return snap;
}

}  // namespace ssagg
