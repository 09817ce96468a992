#include "sort/row_serializer.h"

#include <cstring>

#include "common/string_type.h"
#include "compression/codec.h"
#include "layout/row_kernels.h"

namespace ssagg {

namespace {
constexpr idx_t kIOBufferSize = 1 << 20;  // 1 MiB buffered I/O
}  // namespace

//===----------------------------------------------------------------------===//
// RunWriter
//===----------------------------------------------------------------------===//

RunWriter::~RunWriter() {
  // An aborted run may still have a write in flight referencing inflight_;
  // the backend must be done with it before the buffer dies.
  Status ignored = WaitPending();
  (void)ignored;
}

Status RunWriter::Open() {
  FileOpenFlags flags;
  flags.read = true;
  flags.write = true;
  flags.create = true;
  flags.truncate = true;
  SSAGG_ASSIGN_OR_RETURN(file_, fs_.Open(path_, flags));
  data_t header[RunFileHeader::kSize] = {};
  uint32_t magic = RunFileHeader::kMagic;
  std::memcpy(header, &magic, sizeof(magic));
  header[4] = RunFileHeader::kVersion;
  header[5] = compress_ ? RunFileHeader::kFlagCompressed : 0;
  SSAGG_RETURN_NOT_OK(file_->Write(header, RunFileHeader::kSize, 0));
  bytes_ = RunFileHeader::kSize;
  buffer_.reserve(kIOBufferSize);
  return Status::OK();
}

Status RunWriter::WaitPending() {
  if (!pending_) {
    return Status::OK();
  }
  Status status = pending_->Wait();
  pending_.reset();
  return status;
}

Status RunWriter::FlushBuffer() {
  if (buffer_.empty()) {
    return Status::OK();
  }
  raw_bytes_ += buffer_.size();
  std::vector<data_t> payload;
  if (compress_) {
    // One spill frame per flushed buffer: self-describing, so the reader
    // needs no out-of-band sizes (worst case the frame stores raw bytes).
    CompressSpillFrame(buffer_.data(), buffer_.size(), payload);
    buffer_.clear();
  } else {
    payload = std::move(buffer_);
    buffer_ = std::vector<data_t>();
  }
  buffer_.reserve(kIOBufferSize);
  if (io_backend_ != nullptr) {
    // Double buffering: wait for the previous write (its buffer is about to
    // be replaced), then hand this payload to the backend and keep filling.
    SSAGG_RETURN_NOT_OK(WaitPending());
    inflight_ = std::move(payload);
    IoRequest request;
    request.kind = IoRequest::Kind::kWrite;
    request.file = file_.get();
    request.buffer = inflight_.data();
    request.bytes = inflight_.size();
    request.offset = bytes_;
    pending_ = io_backend_->Submit(std::move(request));
    bytes_ += inflight_.size();
    return Status::OK();
  }
  SSAGG_RETURN_NOT_OK(file_->Write(payload.data(), payload.size(), bytes_));
  bytes_ += payload.size();
  return Status::OK();
}

Status RunWriter::WriteRow(const_data_ptr_t row) {
  const idx_t row_width = layout_.RowWidth();
  idx_t heap = layout_.AllConstantSize() ? 0 : RowHeapSize(layout_, row);
  if (buffer_.size() + row_width + heap > kIOBufferSize) {
    SSAGG_RETURN_NOT_OK(FlushBuffer());
  }
  idx_t offset = buffer_.size();
  buffer_.resize(offset + row_width + heap);
  std::memcpy(buffer_.data() + offset, row, row_width);
  idx_t heap_offset = offset + row_width;
  for (idx_t c : layout_.VarSizeColumns()) {
    if (!layout_.RowIsColumnValid(row, c)) {
      continue;
    }
    string_t s;
    std::memcpy(&s, row + layout_.ColumnOffset(c), sizeof(string_t));
    if (!s.IsInlined()) {
      std::memcpy(buffer_.data() + heap_offset, s.data(), s.size());
      heap_offset += s.size();
    }
  }
  rows_++;
  return Status::OK();
}

Status RunWriter::Finish() {
  SSAGG_RETURN_NOT_OK(FlushBuffer());
  return WaitPending();
}

//===----------------------------------------------------------------------===//
// RunReader
//===----------------------------------------------------------------------===//

RunReader::~RunReader() { DrainReadAhead(); }

Status RunReader::Open() {
  FileOpenFlags flags;
  SSAGG_ASSIGN_OR_RETURN(file_, fs_.Open(path_, flags));
  SSAGG_ASSIGN_OR_RETURN(file_size_, file_->FileSize());
  if (file_size_ < RunFileHeader::kSize) {
    return Status::IOError("run file truncated: " + path_);
  }
  data_t header[RunFileHeader::kSize];
  SSAGG_RETURN_NOT_OK(file_->Read(header, RunFileHeader::kSize, 0));
  uint32_t magic;
  std::memcpy(&magic, header, sizeof(magic));
  if (magic != RunFileHeader::kMagic ||
      header[4] != RunFileHeader::kVersion) {
    return Status::IOError("run file has an unknown header: " + path_);
  }
  compressed_ = (header[5] & RunFileHeader::kFlagCompressed) != 0;
  file_offset_ = RunFileHeader::kSize;
  buffer_.reserve(kIOBufferSize);
  buffer_pos_ = 0;
  buffer_end_ = 0;
  MaybeSubmitReadAhead();
  return Status::OK();
}

void RunReader::MaybeSubmitReadAhead() {
  if (io_backend_ == nullptr || ahead_done_ || file_offset_ >= file_size_) {
    return;
  }
  ahead_bytes_ = std::min(kIOBufferSize, file_size_ - file_offset_);
  ahead_.resize(ahead_bytes_);
  IoRequest request;
  request.kind = IoRequest::Kind::kRead;
  request.file = file_.get();
  request.buffer = ahead_.data();
  request.bytes = ahead_bytes_;
  request.offset = file_offset_;
  file_offset_ += ahead_bytes_;
  ahead_done_ = io_backend_->Submit(std::move(request));
}

void RunReader::DrainReadAhead() {
  if (ahead_done_) {
    // The buffer must stay alive until the backend is done with it; the
    // result no longer matters.
    Status ignored = ahead_done_->Wait();
    (void)ignored;
    ahead_done_.reset();
  }
}

Status RunReader::AppendChunk(std::vector<data_t> &dest, idx_t &dest_end) {
  idx_t chunk = 0;
  if (ahead_done_) {
    // Consume the chunk that was read while the previous one was parsed.
    Status status = ahead_done_->Wait();
    ahead_done_.reset();
    SSAGG_RETURN_NOT_OK(status);
    dest.resize(dest_end + ahead_bytes_);
    std::memcpy(dest.data() + dest_end, ahead_.data(), ahead_bytes_);
    chunk = ahead_bytes_;
  } else {
    idx_t want = std::min(kIOBufferSize, file_size_ - file_offset_);
    if (want == 0) {
      return Status::IOError("run file truncated: " + path_);
    }
    dest.resize(dest_end + want);
    SSAGG_RETURN_NOT_OK(
        file_->Read(dest.data() + dest_end, want, file_offset_));
    file_offset_ += want;
    chunk = want;
  }
  dest_end += chunk;
  MaybeSubmitReadAhead();
  return Status::OK();
}

Status RunReader::FillBuffer(idx_t at_least) {
  // Compact the unread tail to the front, then top up.
  idx_t unread = buffer_end_ - buffer_pos_;
  if (unread > 0 && buffer_pos_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + buffer_pos_, unread);
  }
  buffer_pos_ = 0;
  buffer_end_ = unread;
  if (buffer_.size() < buffer_end_) {
    buffer_.resize(buffer_end_);
  }
  if (!compressed_) {
    while (buffer_end_ < at_least) {
      SSAGG_RETURN_NOT_OK(AppendChunk(buffer_, buffer_end_));
    }
    return Status::OK();
  }
  // Compressed: decode whole frames out of the raw file stream until enough
  // row bytes are buffered.
  while (buffer_end_ < at_least) {
    // Buffer the frame header, then the whole frame.
    SpillFrameHeader frame;
    while (true) {
      idx_t avail = fbuf_end_ - fbuf_pos_;
      if (avail >= SpillFrameHeader::kSize) {
        // The frame may extend past the buffered bytes; validate the header
        // against everything the file can still provide (unsubmitted bytes
        // plus the read-ahead in flight), not just what is buffered.
        idx_t possible = avail + (file_size_ - file_offset_) +
                         (ahead_done_ ? ahead_bytes_ : 0);
        Status peek =
            PeekSpillFrame(fbuf_.data() + fbuf_pos_, possible, frame);
        if (!peek.ok()) {
          return Status::IOError("run file " + path_ +
                                 ": bad spill frame: " + peek.ToString());
        }
        if (avail >= SpillFrameHeader::kSize + frame.comp_len) {
          break;
        }
      }
      // Compact and append the next chunk.
      if (fbuf_pos_ > 0) {
        std::memmove(fbuf_.data(), fbuf_.data() + fbuf_pos_,
                     fbuf_end_ - fbuf_pos_);
        fbuf_end_ -= fbuf_pos_;
        fbuf_pos_ = 0;
      }
      SSAGG_RETURN_NOT_OK(AppendChunk(fbuf_, fbuf_end_));
    }
    buffer_.resize(buffer_end_ + frame.raw_len);
    SSAGG_RETURN_NOT_OK(DecompressSpillFrame(
        fbuf_.data() + fbuf_pos_, fbuf_end_ - fbuf_pos_,
        buffer_.data() + buffer_end_, frame.raw_len));
    buffer_end_ += frame.raw_len;
    fbuf_pos_ += SpillFrameHeader::kSize + frame.comp_len;
  }
  return Status::OK();
}

Result<idx_t> RunReader::ReadBatch(idx_t max_rows,
                                   std::vector<data_ptr_t> &rows_out) {
  const idx_t row_width = layout_.RowWidth();
  idx_t count = std::min(max_rows, remaining_);
  if (count == 0) {
    return idx_t(0);
  }
  arena_.resize(count * row_width);
  heap_.Reset();
  for (idx_t i = 0; i < count; i++) {
    // Make sure the fixed part is buffered, then the heap part.
    if (buffer_end_ - buffer_pos_ < row_width) {
      SSAGG_RETURN_NOT_OK(FillBuffer(row_width));
    }
    data_ptr_t row = arena_.data() + i * row_width;
    std::memcpy(row, buffer_.data() + buffer_pos_, row_width);
    idx_t heap = layout_.AllConstantSize() ? 0 : RowHeapSize(layout_, row);
    buffer_pos_ += row_width;
    if (heap > 0) {
      if (buffer_end_ - buffer_pos_ < heap) {
        SSAGG_RETURN_NOT_OK(FillBuffer(heap));
      }
      // Deserialize: copy strings into the arena heap and fix the pointers.
      idx_t src = buffer_pos_;
      for (idx_t c : layout_.VarSizeColumns()) {
        if (!layout_.RowIsColumnValid(row, c)) {
          continue;
        }
        string_t s;
        std::memcpy(&s, row + layout_.ColumnOffset(c), sizeof(string_t));
        if (s.IsInlined()) {
          continue;
        }
        char *dest = heap_.Allocate(s.size());
        std::memcpy(dest, buffer_.data() + src, s.size());
        src += s.size();
        s.SetPointer(dest);
        std::memcpy(row + layout_.ColumnOffset(c), &s, sizeof(string_t));
      }
      buffer_pos_ += heap;
    }
    rows_out.push_back(row);
  }
  remaining_ -= count;
  return count;
}

void RunReader::GatherBatch(const std::vector<data_ptr_t> &rows,
                            DataChunk &out) const {
  out.Reset();
  for (idx_t c = 0; c < layout_.ColumnCount(); c++) {
    GatherColumn(layout_, c, rows.data(), rows.size(), out.column(c));
  }
  out.SetCount(rows.size());
}

void RunReader::GatherBatch(const std::vector<data_ptr_t> &rows,
                            const std::vector<idx_t> &column_ids,
                            DataChunk &out) const {
  out.Reset();
  for (idx_t c : column_ids) {
    GatherColumn(layout_, c, rows.data(), rows.size(), out.column(c));
  }
  out.SetCount(rows.size());
}

Status RunReader::Remove() {
  DrainReadAhead();
  file_.reset();
  return fs_.RemoveFile(path_);
}

}  // namespace ssagg
