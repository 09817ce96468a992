#ifndef SSAGG_SORT_ROW_SERIALIZER_H_
#define SSAGG_SORT_ROW_SERIALIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/async_io.h"
#include "common/file_system.h"
#include "common/string_heap.h"
#include "common/vector.h"
#include "layout/tuple_data_layout.h"

namespace ssagg {

/// Classic (de)serializing temporary-file I/O for layout rows — the
/// approach the paper's page layout is designed to AVOID (Section IV,
/// "(De-)Serialization"). The baseline algorithms use this: every spilled
/// row pays a serialize on write and a deserialize (with pointer fixup) on
/// read.
///
/// Run files start with an 8-byte header (magic, version, flags); the flags
/// record whether the body is the plain row stream or a sequence of
/// compressed spill frames (compression/codec.h), one per flushed I/O
/// buffer. Readers dispatch on the header, so the two formats coexist.
///
/// Format per row: the fixed row bytes, then the character data of each
/// valid non-inlined string column, in column order (lengths are already in
/// the fixed part).
struct RunFileHeader {
  static constexpr uint32_t kMagic = 0x4E525353;  // "SSRN"
  static constexpr uint8_t kVersion = 1;
  static constexpr idx_t kSize = 8;
  static constexpr uint8_t kFlagCompressed = 0x01;
};

class RunWriter {
 public:
  /// With an io_backend, each flushed buffer is written asynchronously while
  /// the next one fills (double buffering); Finish() waits for the tail.
  /// With compression, each flushed buffer becomes one spill frame.
  RunWriter(const TupleDataLayout &layout, std::string path,
            FileSystem &fs = FileSystem::Default(),
            AsyncIoBackend *io_backend = nullptr, bool compress = false)
      : layout_(layout),
        path_(std::move(path)),
        fs_(fs),
        io_backend_(io_backend),
        compress_(compress) {}

  ~RunWriter();

  Status Open();
  Status WriteRow(const_data_ptr_t row);
  /// Flushes buffered data and waits for in-flight writes; the file stays
  /// readable afterwards.
  Status Finish();

  idx_t RowCount() const { return rows_; }
  /// Physical bytes (post-compression, including the header).
  idx_t BytesWritten() const { return bytes_ + buffer_.size(); }
  /// Logical row-stream bytes (pre-compression, excluding the header).
  idx_t RawBytesWritten() const { return raw_bytes_ + buffer_.size(); }
  const std::string &path() const { return path_; }

 private:
  Status FlushBuffer();
  /// Waits for the previous double-buffered write, if any.
  Status WaitPending();

  const TupleDataLayout &layout_;
  std::string path_;
  FileSystem &fs_;
  AsyncIoBackend *io_backend_;
  bool compress_;
  std::unique_ptr<FileHandle> file_;
  std::vector<data_t> buffer_;
  /// Payload of the in-flight write (must stay stable until it completes).
  std::vector<data_t> inflight_;
  IoCompletionPtr pending_;
  idx_t bytes_ = 0;
  idx_t raw_bytes_ = 0;
  idx_t rows_ = 0;
};

/// Streaming reader over a run file. Deserializes batches of rows into an
/// internal arena; the returned row pointers (and their fixed-up string
/// pointers) stay valid until the next ReadBatch call.
///
/// With an io_backend, the next file chunk is read ahead while the current
/// one is consumed (double buffering), hiding read latency behind the merge.
class RunReader {
 public:
  RunReader(const TupleDataLayout &layout, std::string path, idx_t row_count,
            FileSystem &fs = FileSystem::Default(),
            AsyncIoBackend *io_backend = nullptr)
      : layout_(layout),
        path_(std::move(path)),
        fs_(fs),
        io_backend_(io_backend),
        remaining_(row_count) {}

  ~RunReader();

  Status Open();

  /// Reads up to max_rows rows; returns the number read (0 = exhausted).
  /// Row pointers are appended to `rows_out`.
  Result<idx_t> ReadBatch(idx_t max_rows, std::vector<data_ptr_t> &rows_out);

  /// Gathers previously read rows into a DataChunk (layout column types),
  /// which is reset first. Strings are gathered zero-copy (GatherColumn):
  /// they point into this reader's arena and are valid until the next
  /// ReadBatch call.
  void GatherBatch(const std::vector<data_ptr_t> &rows, DataChunk &out) const;
  /// Gathers only the layout columns `column_ids` (into the same column
  /// index of `out`).
  void GatherBatch(const std::vector<data_ptr_t> &rows,
                   const std::vector<idx_t> &column_ids, DataChunk &out) const;

  idx_t remaining() const { return remaining_; }
  /// Deletes the run file.
  Status Remove();

 private:
  /// Tops up the row-stream buffer to hold at least `at_least` unread bytes
  /// (decompressing frames when the file is compressed).
  Status FillBuffer(idx_t at_least);
  /// Appends the next file chunk (from the in-flight read-ahead when one
  /// exists) to `dest` and submits the following read-ahead.
  Status AppendChunk(std::vector<data_t> &dest, idx_t &dest_end);
  void MaybeSubmitReadAhead();
  /// Waits for (and discards) any in-flight read-ahead.
  void DrainReadAhead();

  const TupleDataLayout &layout_;
  std::string path_;
  FileSystem &fs_;
  AsyncIoBackend *io_backend_;
  std::unique_ptr<FileHandle> file_;
  bool compressed_ = false;
  idx_t remaining_;
  idx_t file_offset_ = 0;  // next offset to *submit* (read-ahead included)
  idx_t file_size_ = 0;
  /// Double-buffered read-ahead: the chunk being read in the background.
  std::vector<data_t> ahead_;
  IoCompletionPtr ahead_done_;
  idx_t ahead_bytes_ = 0;
  /// Raw file stream (compressed files only: frames are parsed out of it).
  std::vector<data_t> fbuf_;
  idx_t fbuf_pos_ = 0;
  idx_t fbuf_end_ = 0;
  std::vector<data_t> buffer_;  // row-stream bytes ReadBatch consumes
  idx_t buffer_pos_ = 0;
  idx_t buffer_end_ = 0;
  std::vector<data_t> arena_;  // deserialized rows for the current batch
  StringHeap heap_;            // deserialized string data
};

}  // namespace ssagg

#endif  // SSAGG_SORT_ROW_SERIALIZER_H_
