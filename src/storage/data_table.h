#ifndef SSAGG_STORAGE_DATA_TABLE_H_
#define SSAGG_STORAGE_DATA_TABLE_H_

#include <map>
#include <memory>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/file_block_manager.h"
#include "common/mutex.h"
#include "common/types.h"
#include "common/vector.h"
#include "execution/operator.h"

namespace ssagg {

/// Columnar persistent table storage. Data is split into row groups of up
/// to kVectorSize rows; each column of a row group is compressed into a
/// segment (see compression/codec.h), and segments are packed into the
/// database file's fixed-size blocks. Scans pin blocks through the unified
/// buffer manager, so persistent pages compete for memory with temporary
/// query intermediates and are evicted for free (their contents stay in
/// the database file) — the interplay Section VII's Figure 4 studies.
class DataTable {
 public:
  /// Rows per row group; one segment per column per row group. Equal to the
  /// vector size, so a scan decodes each column segment once, directly into
  /// one output vector.
  static constexpr idx_t kRowGroupSize = kVectorSize;

  DataTable(FileBlockManager &block_manager, Schema schema);

  const Schema &schema() const { return schema_; }
  idx_t RowCount() const { return row_count_; }
  idx_t BlockCount() const { return block_count_; }
  /// Total compressed bytes (for compression-ratio reporting).
  idx_t CompressedBytes() const { return compressed_bytes_; }

  /// Appends rows (any chunk size; buffered into row groups).
  Status Append(const DataChunk &chunk);
  /// Flushes buffered rows and the current block; must be called once after
  /// the last Append and before scanning.
  Status FinalizeAppend();

  /// Morsel-parallel scan over the given columns, pinning blocks through
  /// the given buffer manager (persistent pages stay cached in its pool
  /// across queries until evicted). The source holds references to this
  /// table and the buffer manager; both must outlive it.
  std::unique_ptr<DataSource> MakeScanSource(BufferManager &buffer_manager,
                                             std::vector<idx_t> columns);

  /// Drops this table's cached block handles for the given pool. MUST be
  /// called before destroying a BufferManager that scanned this table:
  /// cached handles reference the pool and releasing them afterwards is
  /// undefined behaviour.
  void ReleaseHandleCache(const BufferManager &buffer_manager);

 private:
  friend class TableScanSource;

  struct SegmentPointer {
    block_id_t block;
    uint32_t offset;
    uint32_t size;
  };
  struct RowGroupMeta {
    idx_t rows;
    std::vector<SegmentPointer> columns;
  };

  Status FlushStaging();
  Status WriteSegment(const std::vector<data_t> &bytes, SegmentPointer *out);
  Status FlushCurrentBlock();
  /// Returns the (lazily registered) handle for a block in the given pool.
  /// One handle cache per buffer manager, so different pools each cache the
  /// table independently.
  std::shared_ptr<BlockHandle> BlockHandleFor(BufferManager &buffer_manager,
                                              block_id_t block);

  FileBlockManager &block_manager_;
  Schema schema_;

  idx_t row_count_ = 0;
  idx_t block_count_ = 0;
  idx_t compressed_bytes_ = 0;
  std::vector<RowGroupMeta> row_groups_;

  // Write state.
  std::unique_ptr<DataChunk> staging_;
  std::unique_ptr<FileBuffer> current_block_;
  block_id_t current_block_id_ = kInvalidBlockId;
  idx_t current_block_offset_ = 0;
  bool finalized_ = false;

  /// Guards only the handle cache: scans of one table from many threads
  /// register block handles lazily. All other members are written by the
  /// single-threaded load phase and read-only afterwards.
  Mutex handles_lock_{LockRank::kDataTableHandles,
                      "DataTable::handles_lock_"};
  std::map<const BufferManager *,
           std::map<block_id_t, std::shared_ptr<BlockHandle>>>
      handles_ SSAGG_GUARDED_BY(handles_lock_);
};

}  // namespace ssagg

#endif  // SSAGG_STORAGE_DATA_TABLE_H_
