#ifndef SSAGG_BUFFER_BUFFER_MANAGER_H_
#define SSAGG_BUFFER_BUFFER_MANAGER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>

#include "buffer/block_handle.h"
#include "buffer/buffer_handle.h"
#include "buffer/file_block_manager.h"
#include "buffer/temporary_file_manager.h"
#include "common/async_io.h"
#include "common/constants.h"
#include "common/file_system.h"
#include "common/mutex.h"
#include "common/status.h"

namespace ssagg {

class FaultInjector;

/// Which pages are evicted first when memory is needed (Section VII,
/// "Loading & Spilling"). kMixed is DuckDB's default: one LRU queue for all
/// page kinds. The other two keep persistent and temporary pages in separate
/// LRU queues and drain one before the other.
enum class EvictionPolicy : uint8_t {
  kMixed,
  kTemporaryFirst,
  kPersistentFirst,
};

/// Point-in-time view of the buffer manager, sampled by the Figure 4 bench
/// and embedded (as begin/end deltas) in QueryProfile.
struct BufferManagerSnapshot {
  idx_t memory_used = 0;
  idx_t memory_limit = 0;
  idx_t persistent_bytes_in_memory = 0;
  idx_t temporary_bytes_in_memory = 0;
  idx_t non_paged_bytes = 0;
  idx_t temp_file_size = 0;
  idx_t temp_file_peak = 0;
  idx_t evicted_persistent_count = 0;
  idx_t evicted_temporary_count = 0;
  idx_t reused_buffers = 0;
  idx_t temp_writes = 0;
  idx_t temp_reads = 0;
  // Spill I/O accounting (ground truth: TemporaryFileManager).
  // spill_bytes_written is physical (post-compression); spill_raw_bytes is
  // the logical pre-compression volume.
  idx_t spill_bytes_written = 0;
  idx_t spill_bytes_read = 0;
  idx_t spill_raw_bytes = 0;
  idx_t spill_coalesced_writes = 0;
  idx_t spill_coalesced_pages = 0;
  // Wall-clock seconds query threads were *blocked* on spill I/O: the
  // submit..wait window of writes, demand reads, and Pin()'s waits for
  // in-flight prefetch loads. Prefetch latency nobody waited on is excluded.
  double spill_write_seconds = 0;
  double spill_read_seconds = 0;
  idx_t spill_slot_reuses = 0;
  idx_t spill_variable_files = 0;
  // Asynchronous read-ahead of spilled blocks.
  idx_t prefetch_issued = 0;
  idx_t prefetch_completed = 0;
  /// Reservations rejected because nothing more could be evicted.
  idx_t oom_rejections = 0;
  /// Outstanding pins (live BufferHandles) across all blocks. Must be zero
  /// once no query state is alive — the no-leak invariant the fault suite
  /// asserts after every injected failure.
  idx_t pinned_buffers = 0;
};

/// RAII owner of a non-paged allocation (Section III): any-size, not
/// spillable, but routed through the buffer manager so that making it may
/// evict other pages, and so it counts toward the memory limit.
class NonPagedAllocation {
 public:
  NonPagedAllocation() = default;
  NonPagedAllocation(BufferManager *manager, data_ptr_t data, idx_t size)
      : manager_(manager), data_(data), size_(size) {}
  ~NonPagedAllocation() { Reset(); }

  NonPagedAllocation(const NonPagedAllocation &) = delete;
  NonPagedAllocation &operator=(const NonPagedAllocation &) = delete;
  NonPagedAllocation(NonPagedAllocation &&other) noexcept {
    *this = std::move(other);
  }
  NonPagedAllocation &operator=(NonPagedAllocation &&other) noexcept;

  bool IsValid() const { return data_ != nullptr; }
  data_ptr_t data() { return data_; }
  const_data_ptr_t data() const { return data_; }
  idx_t size() const { return size_; }

  void Reset();

 private:
  BufferManager *manager_ = nullptr;
  data_ptr_t data_ = nullptr;
  idx_t size_ = 0;
};

/// Construction-time knobs of the buffer manager's spill I/O path.
struct BufferManagerOptions {
  EvictionPolicy policy = EvictionPolicy::kMixed;
  /// Which async backend executes spill I/O. kSync (the default) preserves
  /// the exact one-write-per-eviction schedule of the pre-async engine.
  IoBackendKind io_backend = IoBackendKind::kSync;
  idx_t io_threads = 4;
  /// Compress spilled pages into codec spill frames.
  bool spill_compression = false;
  /// Fixed-size pages spilled per eviction batch (the writeback pipeline
  /// depth). 0 = auto: 1 for the sync backend (legacy semantics), 16 for
  /// async backends (deep batches amortize the submit..wait cycle across
  /// many in-flight transfers). Values > 1 over-evict: a one-page
  /// reservation may spill up to this many LRU victims in one overlapped
  /// batch, so the following reservations need no eviction at all.
  idx_t spill_batch = 0;
  /// Allow asynchronous read-ahead of spilled blocks (only active with an
  /// async backend; never evicts, never consults the fault injector for its
  /// memory reservation).
  bool prefetch = true;

  /// Defaults with io_backend / spill_compression taken from the
  /// SSAGG_IO_BACKEND and SSAGG_SPILL_COMPRESSION environment variables.
  static BufferManagerOptions FromEnv();
};

/// Unified Memory Management (Section III): one memory pool and one eviction
/// mechanism for persistent pages, paged fixed-size temporary data, paged
/// variable-size temporary data, and non-paged temporary allocations.
/// Eviction only happens when a new reservation would exceed the memory
/// limit; evicted persistent pages are dropped for free (their contents are
/// in the database file) while evicted temporary pages are written to
/// temporary files. Same-size evicted buffers are reused for the new
/// allocation.
class BufferManager {
 public:
  /// Reads the I/O options from the environment (BufferManagerOptions::
  /// FromEnv), so SSAGG_IO_BACKEND / SSAGG_SPILL_COMPRESSION apply to every
  /// engine instance without touching call sites.
  BufferManager(std::string temp_directory, idx_t memory_limit,
                EvictionPolicy policy = EvictionPolicy::kMixed,
                FileSystem &fs = FileSystem::Default());
  BufferManager(std::string temp_directory, idx_t memory_limit,
                BufferManagerOptions options,
                FileSystem &fs = FileSystem::Default());
  ~BufferManager();

  BufferManager(const BufferManager &) = delete;
  BufferManager &operator=(const BufferManager &) = delete;

  /// Allocates a temporary block of the given size and returns it pinned.
  /// size == kPageSize yields a paged fixed-size allocation (spillable into
  /// the shared temporary file); other sizes yield paged variable-size
  /// allocations (each spilled to its own file). If can_destroy is set the
  /// contents are dropped instead of spilled and the block cannot be
  /// re-pinned after eviction.
  Result<BufferHandle> Allocate(idx_t size,
                                std::shared_ptr<BlockHandle> *out_handle,
                                bool can_destroy = false);

  /// Registers a block of the database file with the pool; reading it (and
  /// caching it in memory) happens on Pin.
  std::shared_ptr<BlockHandle> RegisterPersistentBlock(
      FileBlockManager &block_manager, block_id_t block_id);

  /// Pins the block, loading it from the database file or temporary file if
  /// it is not resident. May evict other pages to make room. If the block is
  /// being prefetched (kLoading), waits for the load to finish.
  Result<BufferHandle> Pin(const std::shared_ptr<BlockHandle> &handle);

  /// Best-effort asynchronous read-ahead of a spilled fixed-size temporary
  /// block: reserves memory from the pool's spare headroom (never evicting
  /// and never consulting the fault injector — prefetch is speculative),
  /// submits the read, and publishes the block as kLoaded on completion. A
  /// failed prefetch poisons the block so the next Pin surfaces the error.
  /// Silently does nothing when the block is not prefetchable, memory is
  /// tight, or the backend is synchronous.
  void Prefetch(const std::shared_ptr<BlockHandle> &handle);

  /// Eagerly destroys a block's contents: frees the memory if loaded, or the
  /// temporary-file space if spilled (Section III: "we try to eagerly
  /// destroy temporary pages as soon as they are no longer needed").
  void DestroyBlock(const std::shared_ptr<BlockHandle> &handle);

  /// Non-paged allocation; see NonPagedAllocation.
  Result<NonPagedAllocation> AllocateNonPaged(idx_t size);

  /// Reserve / release memory accounted to the pool without the manager
  /// owning it (used by operators with external allocations).
  Status ReserveExternalMemory(idx_t size);
  void FreeExternalMemory(idx_t size);

  [[nodiscard]] idx_t memory_used() const {
    return memory_used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] idx_t memory_limit() const {
    return memory_limit_.load(std::memory_order_relaxed);
  }
  /// Adjusting the limit only affects future reservations; it does not
  /// proactively evict.
  void SetMemoryLimit(idx_t limit) { memory_limit_.store(limit); }
  [[nodiscard]] EvictionPolicy policy() const;
  void SetEvictionPolicy(EvictionPolicy policy);

  [[nodiscard]] BufferManagerSnapshot Snapshot() const;
  TemporaryFileManager &temp_files() { return temp_files_; }
  const TemporaryFileManager &temp_files() const { return temp_files_; }
  /// The async backend all spill I/O goes through (sort runs share it so
  /// their read-ahead rides the same pipeline).
  AsyncIoBackend &io_backend() const { return *io_backend_; }
  [[nodiscard]] bool spill_compression() const {
    return temp_files_.spill_compression();
  }
  /// The file system this pool (and its temporary files) performs I/O
  /// through; operators spill through the same one so that fault injection
  /// covers every layer.
  FileSystem &fs() const { return fs_; }

  /// Outstanding pins across all blocks (see
  /// BufferManagerSnapshot::pinned_buffers).
  [[nodiscard]] idx_t PinnedBufferCount() const {
    return static_cast<idx_t>(pinned_buffers_.load(std::memory_order_relaxed));
  }

  /// Installs (or clears, with nullptr) a fault injector consulted on every
  /// memory reservation (FaultSite::kAllocate), every Pin (FaultSite::kPin)
  /// and — via the async backend — every spill I/O submission/completion,
  /// so tests can deny the Nth operation and prove the failure unwinds
  /// cleanly. Not owned; must outlive its use.
  void SetFaultInjector(FaultInjector *injector) {
    fault_injector_.store(injector, std::memory_order_release);
    io_backend_->SetFaultInjector(injector);
  }

  /// When disabled, temporary pages are never written to temporary files:
  /// the pool behaves like an in-memory-only engine's (persistent pages
  /// still evict for free), and reservations fail with OutOfMemory once
  /// only temporary pages remain. Used by the baseline system models.
  void SetSpillTemporary(bool spill) {
    spill_temporary_.store(spill, std::memory_order_relaxed);
  }
  bool spill_temporary() const {
    return spill_temporary_.load(std::memory_order_relaxed);
  }

 private:
  friend class BlockHandle;
  friend class BufferHandle;
  friend class NonPagedAllocation;

  /// Releases a NonPagedAllocation's charge.
  void FreeNonPaged(idx_t size);

  struct EvictionEntry {
    std::weak_ptr<BlockHandle> handle;
    uint64_t seq;
  };

  /// Index into queues_: temporaries and persistents may share queue 0
  /// (mixed policy) or be split. Depends on policy_, so the queue lock must
  /// be held.
  idx_t QueueIndexLocked(BlockKind kind) const SSAGG_REQUIRES(queue_lock_);

  /// Makes room for `size` bytes, evicting pages as needed. On success the
  /// reservation is charged to memory_used_. If an evicted buffer has
  /// exactly the requested size it is returned for reuse.
  Result<std::unique_ptr<FileBuffer>> ReserveMemory(idx_t size);

  /// Like ReserveMemory but speculative: only consumes spare headroom —
  /// never evicts and never consults the fault injector. Used by Prefetch.
  bool TryReserveForPrefetch(idx_t size);

  /// Evicts at least one block, spilling up to spill_batch_ fixed-size
  /// temporaries as one overlapped write batch. Returns an evicted buffer
  /// reusable for `reuse_size` (nullptr if memory was freed instead); an
  /// error if no evictable block exists or a spill write failed. A failed
  /// batch rolls back completely: every member block stays loaded, its slot
  /// is released and it is re-enqueued as an eviction candidate. `request`
  /// is the reservation being served; it only feeds the OutOfMemory message.
  Result<std::unique_ptr<FileBuffer>> EvictBlocks(idx_t reuse_size,
                                                  idx_t request);

  /// The OutOfMemory of a reservation of `request` bytes that nothing could
  /// be evicted for: names the request, the limit and where the used bytes
  /// are (persistent, temporary and non-paged residents, live pins).
  Status OutOfMemoryStatus(idx_t request) const;

  /// Publishes the result of an asynchronous prefetch read; runs on the
  /// backend's completing thread.
  void FinishPrefetch(const std::shared_ptr<BlockHandle> &handle,
                      const Status &status);

  /// Called by BufferHandle::Reset.
  void Unpin(BlockHandle &block);
  /// Called by ~BlockHandle: release any memory / temp-file space.
  void CleanupDroppedBlock(BlockHandle &block);

  void ChargeLoaded(BlockKind kind, idx_t size);
  void DischargeLoaded(BlockKind kind, idx_t size);

  std::string temp_directory_;
  FileSystem &fs_;
  std::atomic<idx_t> memory_limit_;
  std::atomic<bool> spill_temporary_{true};
  std::atomic<FaultInjector *> fault_injector_{nullptr};
  /// Declared before temp_files_ (which submits against it) so it outlives
  /// the manager's files; the destructor drains it before members die.
  std::unique_ptr<AsyncIoBackend> io_backend_;
  /// Resolved pipeline depth of eviction write batches (>= 1).
  idx_t spill_batch_;
  bool prefetch_enabled_;
  std::atomic<idx_t> prefetch_issued_{0};
  std::atomic<idx_t> prefetch_completed_{0};
  /// Nanoseconds Pin() spent waiting for in-flight prefetch loads; folded
  /// into spill_read_seconds so that number means "time query threads were
  /// blocked on spill reads" (prefetch completions themselves record 0).
  std::atomic<uint64_t> load_wait_ns_{0};
  TemporaryFileManager temp_files_;

  std::atomic<idx_t> memory_used_{0};
  std::atomic<idx_t> persistent_loaded_bytes_{0};
  std::atomic<idx_t> temporary_loaded_bytes_{0};
  std::atomic<idx_t> non_paged_bytes_{0};
  std::atomic<block_id_t> next_temp_block_id_{0};

  /// Protects the eviction queues and the policy that maps blocks to them.
  /// Leaf-most lock of the pool: it is only held for queue manipulation,
  /// never while performing I/O or acquiring any other mutex.
  mutable Mutex queue_lock_{LockRank::kEvictionQueue,
                            "BufferManager::queue_lock_"};
  EvictionPolicy policy_ SSAGG_GUARDED_BY(queue_lock_);
  std::deque<EvictionEntry> queues_[2] SSAGG_GUARDED_BY(queue_lock_);

  /// Threads inside EvictBlocks that currently hold candidate block locks
  /// (a spill batch being gathered or written). A reservation that finds
  /// the queues empty while such a holder exists retries instead of
  /// reporting OutOfMemory: the holder's blocks are about to free memory
  /// or be re-enqueued. Mere scanners must not count — two empty-handed
  /// concurrent scans seeing each other would retry forever.
  std::atomic<idx_t> eviction_lock_holders_{0};

  std::atomic<idx_t> evicted_persistent_count_{0};
  std::atomic<idx_t> evicted_temporary_count_{0};
  std::atomic<idx_t> reused_buffers_{0};
  std::atomic<idx_t> oom_rejections_{0};
  std::atomic<int64_t> pinned_buffers_{0};

  /// Cached global-registry key ids ("bm.*"), resolved at construction.
  idx_t key_evict_persistent_;
  idx_t key_evict_temp_spilled_;
  idx_t key_evict_temp_destroyed_;
  idx_t key_buffer_reuse_;
  idx_t key_oom_rejections_;
  /// Histogram ids: time Pin() blocked on an in-flight load, and time
  /// EvictBlocks spent selecting victims (scan + try-lock churn, excluding
  /// the spill write itself).
  idx_t hist_pin_wait_;
  idx_t hist_evict_select_;
};

}  // namespace ssagg

#endif  // SSAGG_BUFFER_BUFFER_MANAGER_H_
