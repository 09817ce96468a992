#ifndef SSAGG_BUFFER_TEMPORARY_FILE_MANAGER_H_
#define SSAGG_BUFFER_TEMPORARY_FILE_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "buffer/file_buffer.h"
#include "common/async_io.h"
#include "common/file_system.h"
#include "common/mutex.h"
#include "common/status.h"
#include "observe/metrics.h"

namespace ssagg {

/// One page of a batched fixed-size spill (TemporaryFileManager::
/// WriteFixedBlocks). `buffer` is the caller's; `slot` and `status` are
/// filled per entry: a failed entry has released its slot.
struct FixedSpillRequest {
  const FileBuffer *buffer = nullptr;
  idx_t slot = kInvalidIndex;
  Status status;
};

/// Manages spilled temporary data in storage (Section III, "Temporary
/// Data"):
///   - fixed-size pages (kPageSize) go to slots of one shared temporary
///     file; slots are recycled through a free list so the file does not
///     grow past the high-water mark of simultaneously spilled pages;
///   - variable-size pages each go to their own temporary file.
/// The temporary files are completely separate from the database file.
///
/// All I/O is routed through an AsyncIoBackend: batched spills overlap
/// their writes, adjacent slots are coalesced into single submissions, and
/// (optionally) pages are compressed into self-describing spill frames
/// (compression/codec.h) before hitting storage.
class TemporaryFileManager {
 public:
  explicit TemporaryFileManager(std::string directory,
                                FileSystem &fs = FileSystem::Default(),
                                AsyncIoBackend *io_backend = nullptr,
                                bool spill_compression = false);
  ~TemporaryFileManager();

  TemporaryFileManager(const TemporaryFileManager &) = delete;
  TemporaryFileManager &operator=(const TemporaryFileManager &) = delete;

  /// Writes a fixed-size page; returns the slot it occupies.
  Result<idx_t> WriteFixedBlock(const FileBuffer &buffer);
  /// Writes a batch of fixed-size pages, overlapping the I/O through the
  /// async backend and coalescing writes to adjacent slots (only when
  /// compression is off: compressed frames are variable-length and leave
  /// gaps a merged write would have to fill). Returns once every entry has
  /// completed; per-entry results are in the requests.
  void WriteFixedBlocks(FixedSpillRequest *requests, idx_t count);
  /// Reads a fixed-size page back and releases its slot (a reloaded page is
  /// eagerly removed from the temporary file; if it is evicted again it is
  /// simply rewritten).
  Status ReadFixedBlock(idx_t slot, FileBuffer &buffer);
  /// Asynchronously reads a fixed-size page back. `done` runs on the
  /// completing thread exactly once; on success the slot has been released
  /// and the buffer holds the (decompressed) page. Used by BufferManager
  /// prefetch.
  void SubmitReadFixedBlock(idx_t slot, FileBuffer &buffer,
                            std::function<void(const Status &)> done);
  /// Releases a slot without reading (block was destroyed while spilled).
  void FreeFixedSlot(idx_t slot);

  /// Writes a variable-size block to its own file keyed by block id.
  Status WriteVariableBlock(block_id_t id, const FileBuffer &buffer);
  /// Reads a variable-size block back and deletes its file.
  Status ReadVariableBlock(block_id_t id, FileBuffer &buffer);
  /// Deletes the file of a destroyed variable-size block.
  void FreeVariableBlock(block_id_t id);

  /// Bytes currently occupied in temporary storage (both kinds, physical —
  /// compressed pages count their stored size).
  [[nodiscard]] idx_t CurrentSize() const;
  /// Highest CurrentSize observed.
  [[nodiscard]] idx_t PeakSize() const;
  /// Fixed-file slots currently holding a spilled page. Zero when no query
  /// state is alive — the no-leak invariant the fault suite asserts.
  [[nodiscard]] idx_t UsedSlots() const;
  /// Live variable-size temporary files (same invariant).
  [[nodiscard]] idx_t VariableBlockCount() const;
  [[nodiscard]] idx_t WriteCount() const;
  [[nodiscard]] idx_t ReadCount() const;

  /// I/O accounting — the observability layer's ground truth for spill
  /// volume. BytesWritten/BytesRead are physical bytes on storage (after
  /// compression); RawBytesWritten is the logical pre-compression volume,
  /// so RawBytesWritten / BytesWritten is the spill compression ratio.
  [[nodiscard]] idx_t BytesWritten() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] idx_t BytesRead() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] idx_t RawBytesWritten() const {
    return raw_bytes_written_.load(std::memory_order_relaxed);
  }
  /// Merged submissions that covered more than one adjacent slot, and the
  /// pages they carried.
  [[nodiscard]] idx_t CoalescedWrites() const {
    return coalesced_writes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] idx_t CoalescedPages() const {
    return coalesced_pages_.load(std::memory_order_relaxed);
  }
  /// Wall-clock seconds spent inside the write/read syscalls.
  [[nodiscard]] double WriteSeconds() const {
    return static_cast<double>(write_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }
  [[nodiscard]] double ReadSeconds() const {
    return static_cast<double>(read_ns_.load(std::memory_order_relaxed)) / 1e9;
  }
  /// Fixed-file slots handed out from the free list (vs. file growth).
  [[nodiscard]] idx_t SlotReuses() const;
  /// Variable-size temporary files ever created.
  [[nodiscard]] idx_t VariableFilesCreated() const;

  /// Compression of spilled pages into codec spill frames. Takes effect for
  /// subsequent writes; pages already on storage decode by their recorded
  /// format, so toggling mid-flight is safe.
  void SetSpillCompression(bool enabled) {
    spill_compression_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool spill_compression() const {
    return spill_compression_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] AsyncIoBackend &io_backend() const { return *io_backend_; }

  /// Paths of the temporary files. Both embed a per-process, per-instance
  /// token: managers may share a directory (several BufferManagers in one
  /// process, or concurrent test processes on the same temp dir), and the
  /// fixed file is opened with truncate — a shared name would let one
  /// manager destroy another's live spill data.
  [[nodiscard]] std::string FixedFilePath() const;
  [[nodiscard]] std::string VariableFilePath(block_id_t id) const;

 private:
  /// Bookkeeping of one variable-size temporary file. stored_size is what
  /// sits on storage (== raw_size when the block was not compressed).
  struct VariableBlockInfo {
    idx_t raw_size = 0;
    idx_t stored_size = 0;
    bool compressed = false;
  };

  Status EnsureFixedFileLocked() SSAGG_REQUIRES(lock_);
  void UpdatePeakLocked() SSAGG_REQUIRES(lock_);
  /// Folds one spill write/read into the local accounting and the global
  /// metrics registry. `raw_bytes` is the pre-compression volume.
  void RecordWrite(idx_t bytes, idx_t raw_bytes, uint64_t ns);
  void RecordRead(idx_t bytes, uint64_t ns);
  /// Consults the installed fault injector (via the backend) for the
  /// coalesce site; OK when no injector is installed.
  Status HitCoalesceSite();

  std::string directory_;
  FileSystem &fs_;
  std::string token_;  // unique per process + instance, embedded in paths

  /// Set when the caller did not supply a backend (standalone managers):
  /// owns the sync backend io_backend_ then points to.
  std::unique_ptr<AsyncIoBackend> owned_backend_;
  AsyncIoBackend *io_backend_;
  std::atomic<bool> spill_compression_;

  /// Protects the slot/file bookkeeping. Held only for bookkeeping, never
  /// across the actual read/write syscalls: the fixed file's FileHandle is
  /// positioned (pread/pwrite-style), so I/O proceeds concurrently on a raw
  /// pointer captured under the lock (the handle is destroyed only in the
  /// destructor).
  mutable Mutex lock_{LockRank::kTempFileManager,
                      "TemporaryFileManager::lock_"};
  std::unique_ptr<FileHandle> fixed_file_ SSAGG_GUARDED_BY(lock_);
  std::vector<idx_t> free_slots_ SSAGG_GUARDED_BY(lock_);
  /// High-water slot count of the fixed file.
  idx_t slot_count_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t used_slots_ SSAGG_GUARDED_BY(lock_) = 0;
  /// Frame size of slots whose page was stored compressed; slots absent
  /// from the map hold the raw page.
  std::unordered_map<idx_t, idx_t> slot_frame_sizes_ SSAGG_GUARDED_BY(lock_);
  std::unordered_map<block_id_t, VariableBlockInfo> variable_blocks_
      SSAGG_GUARDED_BY(lock_);
  idx_t peak_size_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t write_count_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t read_count_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t slot_reuses_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t variable_files_created_ SSAGG_GUARDED_BY(lock_) = 0;
  std::atomic<idx_t> bytes_written_{0};
  std::atomic<idx_t> bytes_read_{0};
  std::atomic<idx_t> raw_bytes_written_{0};
  std::atomic<idx_t> coalesced_writes_{0};
  std::atomic<idx_t> coalesced_pages_{0};
  std::atomic<idx_t> write_ns_{0};
  std::atomic<idx_t> read_ns_{0};

  /// Cached registry key ids ("io.*"), resolved once at construction.
  idx_t key_spill_writes_;
  idx_t key_spill_reads_;
  idx_t key_spill_bytes_written_;
  idx_t key_spill_bytes_read_;
  idx_t key_spill_raw_bytes_;
  idx_t key_spill_coalesced_writes_;
  idx_t key_spill_coalesced_pages_;
  idx_t key_spill_write_ns_;
  idx_t key_spill_read_ns_;
  /// Read-latency histogram id for demand reads, which bypass the async
  /// backend (the backend records its own submit-to-completion latency for
  /// everything routed through Submit).
  idx_t hist_spill_read_latency_;
};

}  // namespace ssagg

#endif  // SSAGG_BUFFER_TEMPORARY_FILE_MANAGER_H_
