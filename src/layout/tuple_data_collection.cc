#include "layout/tuple_data_collection.h"

#include <algorithm>
#include <cstring>

#include "common/string_type.h"
#include "layout/row_kernels.h"

namespace ssagg {

idx_t TupleDataCollection::SizeInBytes() const {
  return count_ * layout_.RowWidth() + heap_bytes_;
}

idx_t TupleDataCollection::ComputedRowCount() const {
  idx_t total = 0;
  for (auto &page : row_pages_) {
    total += page.count;
  }
  return total;
}

Result<data_ptr_t> TupleDataCollection::GetRowPagePtr(
    TupleDataAppendState &state, idx_t idx) {
  auto it = state.row_pins.find(idx);
  if (it == state.row_pins.end()) {
    SSAGG_ASSIGN_OR_RETURN(auto pin, buffer_manager_.Pin(row_pages_[idx].block));
    it = state.row_pins.emplace(idx, std::move(pin)).first;
  }
  return it->second.Ptr();
}

Result<data_ptr_t> TupleDataCollection::GetHeapPagePtr(
    TupleDataAppendState &state, idx_t idx) {
  auto it = state.heap_pins.find(idx);
  if (it == state.heap_pins.end()) {
    SSAGG_ASSIGN_OR_RETURN(auto pin,
                           buffer_manager_.Pin(heap_pages_[idx].block));
    it = state.heap_pins.emplace(idx, std::move(pin)).first;
  }
  return it->second.Ptr();
}

Status TupleDataCollection::NewRowPage(TupleDataAppendState &state) {
  std::shared_ptr<BlockHandle> block;
  SSAGG_ASSIGN_OR_RETURN(auto pin, buffer_manager_.Allocate(kPageSize, &block));
  idx_t idx = row_pages_.size();
  row_pages_.push_back(RowPage{std::move(block), 0, {}});
  state.row_pins.emplace(idx, std::move(pin));
  current_row_page_ = idx;
  return Status::OK();
}

Status TupleDataCollection::NewHeapPage(TupleDataAppendState &state,
                                        idx_t min_size) {
  // Standard pages are preferred; a single row with more heap data than one
  // page gets a variable-size page of exactly the needed size (Section III:
  // variable-size allocations are used sparingly).
  idx_t size = std::max(min_size, kPageSize);
  std::shared_ptr<BlockHandle> block;
  SSAGG_ASSIGN_OR_RETURN(auto pin, buffer_manager_.Allocate(size, &block));
  idx_t idx = heap_pages_.size();
  heap_pages_.push_back(HeapPage{std::move(block), 0, size});
  state.heap_pins.emplace(idx, std::move(pin));
  current_heap_page_ = idx;
  return Status::OK();
}

idx_t TupleDataCollection::ComputeRowHeapSize(const DataChunk &input,
                                              idx_t row) const {
  idx_t total = 0;
  for (idx_t c : layout_.VarSizeColumns()) {
    const Vector &vec = input.column(c);
    if (!vec.validity().RowIsValid(row)) {
      continue;
    }
    const string_t &s = vec.Values<string_t>()[row];
    if (!s.IsInlined()) {
      total += s.size();
    }
  }
  return total;
}

data_ptr_t *TupleDataCollection::AppendTargets(TupleDataAppendState &state,
                                               idx_t count,
                                               data_ptr_t *row_ptrs_out) {
  if (state.heap_cursors.size() < count) {
    state.heap_cursors.resize(count);
  }
  if (row_ptrs_out != nullptr) {
    return row_ptrs_out;
  }
  if (state.rows.size() < count) {
    state.rows.resize(count);
  }
  return state.rows.data();
}

template <typename HeapSizeFn>
Status TupleDataCollection::PlaceRows(TupleDataAppendState &state, idx_t count,
                                      HeapSizeFn &&heap_size,
                                      data_ptr_t *rows,
                                      data_ptr_t *heap_cursors,
                                      idx_t &placed) {
  const idx_t row_width = layout_.RowWidth();
  const idx_t rows_per_page = layout_.RowsPerPage();
  // The pinned bases of the pages being filled are looked up once per page
  // rather than once per row.
  idx_t heap_base_idx = kInvalidIndex;
  data_ptr_t heap_base = nullptr;
  placed = 0;
  while (placed < count) {
    if (current_row_page_ == kInvalidIndex ||
        row_pages_[current_row_page_].count >= rows_per_page) {
      SSAGG_RETURN_NOT_OK(NewRowPage(state));
    }
    const idx_t page_idx = current_row_page_;
    SSAGG_ASSIGN_OR_RETURN(data_ptr_t page_base,
                           GetRowPagePtr(state, page_idx));
    const idx_t fit =
        std::min(count - placed, rows_per_page - row_pages_[page_idx].count);
    for (idx_t k = 0; k < fit; k++) {
      RowPage &page = row_pages_[page_idx];
      const idx_t prow = page.count;
      const idx_t size = heap_size(placed);
      data_ptr_t heap_write = nullptr;
      if (size > 0) {
        // The row's entire heap data goes on one heap page, so one HeapRef
        // covers the row.
        if (current_heap_page_ == kInvalidIndex ||
            heap_pages_[current_heap_page_].used + size >
                heap_pages_[current_heap_page_].size) {
          SSAGG_RETURN_NOT_OK(NewHeapPage(state, size));
        }
        if (heap_base_idx != current_heap_page_) {
          SSAGG_ASSIGN_OR_RETURN(heap_base,
                                 GetHeapPagePtr(state, current_heap_page_));
          heap_base_idx = current_heap_page_;
        }
        HeapPage &heap = heap_pages_[current_heap_page_];
        heap_write = heap_base + heap.used;
        heap.used += size;
        heap_bytes_ += size;
        // Extend the previous HeapRef if this row continues it, else start
        // a new one (also when the page was re-pinned at a new base).
        auto base_val = reinterpret_cast<uint64_t>(heap_base);
        if (!page.heap_refs.empty() &&
            page.heap_refs.back().heap_idx == current_heap_page_ &&
            page.heap_refs.back().old_base == base_val &&
            page.heap_refs.back().row_end == prow) {
          page.heap_refs.back().row_end = prow + 1;
        } else {
          page.heap_refs.push_back(
              HeapRef{current_heap_page_, base_val, prow, prow + 1});
        }
      }
      rows[placed] = page_base + prow * row_width;
      heap_cursors[placed] = heap_write;
      page.count++;
      count_++;
      placed++;
    }
  }
  return Status::OK();
}

Status TupleDataCollection::AppendRows(TupleDataAppendState &state,
                                       const DataChunk &input, const idx_t *sel,
                                       idx_t count, data_ptr_t *row_ptrs_out) {
  data_ptr_t *rows = AppendTargets(state, count, row_ptrs_out);
  data_ptr_t *heap_cursors = state.heap_cursors.data();
  idx_t placed = 0;
  Status status = PlaceRows(
      state, count,
      [&](idx_t i) { return ComputeRowHeapSize(input, sel ? sel[i] : i); },
      rows, heap_cursors, placed);

  // All columns valid by default; ScatterColumn clears the NULLs.
  const idx_t validity_bytes = layout_.ValidityBytes();
  for (idx_t i = 0; i < placed; i++) {
    std::memset(rows[i], 0xFF, validity_bytes);
  }
  for (idx_t c = 0; c < layout_.ColumnCount(); c++) {
    ScatterColumn(layout_, c, input.column(c), sel, placed, rows,
                  heap_cursors);
  }
  if (layout_.AggregateWidth() > 0) {
    const idx_t aggr_offset = layout_.AggregateOffset();
    const idx_t aggr_width = layout_.AggregateWidth();
    for (idx_t i = 0; i < placed; i++) {
      std::memset(rows[i] + aggr_offset, 0, aggr_width);
    }
  }
  return status;
}

Status TupleDataCollection::AppendRowCopies(TupleDataAppendState &state,
                                            const data_ptr_t *src_rows,
                                            const idx_t *sel, idx_t count,
                                            data_ptr_t *row_ptrs_out) {
  data_ptr_t *rows = AppendTargets(state, count, row_ptrs_out);
  data_ptr_t *heap_cursors = state.heap_cursors.data();
  auto source = [&](idx_t i) { return src_rows[sel ? sel[i] : i]; };
  idx_t placed = 0;
  Status status = PlaceRows(
      state, count,
      [&](idx_t i) { return RowHeapSize(layout_, source(i)); }, rows,
      heap_cursors, placed);

  const idx_t row_width = layout_.RowWidth();
  for (idx_t i = 0; i < placed; i++) {
    std::memcpy(rows[i], source(i), row_width);
  }
  // Move the non-inlined strings onto this collection's heap; the copied
  // headers still point at the source's heap bytes until rewritten.
  for (idx_t c : layout_.VarSizeColumns()) {
    const idx_t offset = layout_.ColumnOffset(c);
    for (idx_t i = 0; i < placed; i++) {
      if (!layout_.RowIsColumnValid(rows[i], c)) {
        continue;
      }
      string_t s;
      std::memcpy(&s, rows[i] + offset, sizeof(string_t));
      if (s.IsInlined()) {
        continue;
      }
      std::memcpy(heap_cursors[i], s.data(), s.size());
      s.SetPointer(reinterpret_cast<char *>(heap_cursors[i]));
      heap_cursors[i] += s.size();
      std::memcpy(rows[i] + offset, &s, sizeof(string_t));
    }
  }
  return status;
}

void TupleDataCollection::InitScan(TupleDataScanState &state,
                                   bool destroy_after_scan) {
  state.page_idx = 0;
  state.row_idx = 0;
  state.row_pin.Reset();
  state.heap_pins.clear();
  state.destroy_after_scan = destroy_after_scan;
  if (destroy_after_scan) {
    state.heap_last_user.assign(heap_pages_.size(), kInvalidIndex);
    for (idx_t p = 0; p < row_pages_.size(); p++) {
      for (auto &ref : row_pages_[p].heap_refs) {
        state.heap_last_user[ref.heap_idx] = p;
      }
    }
  }
  // Scanning and appending must not interleave.
  current_row_page_ = kInvalidIndex;
  current_heap_page_ = kInvalidIndex;
}

void TupleDataCollection::PrefetchForScan(idx_t pages) {
  idx_t limit = std::min(pages, row_pages_.size());
  for (idx_t p = 0; p < limit; p++) {
    buffer_manager_.Prefetch(row_pages_[p].block);
    for (auto &ref : row_pages_[p].heap_refs) {
      buffer_manager_.Prefetch(heap_pages_[ref.heap_idx].block);
    }
  }
}

Status TupleDataCollection::PinPageForScan(TupleDataScanState &state) {
  state.heap_pins.clear();
  // Read ahead: start an asynchronous load of the next page (and its heap
  // pages) while this one is consumed. Best-effort — a no-op with the sync
  // backend or when memory is tight.
  idx_t next = state.page_idx + 1;
  if (next < row_pages_.size()) {
    buffer_manager_.Prefetch(row_pages_[next].block);
    for (auto &ref : row_pages_[next].heap_refs) {
      buffer_manager_.Prefetch(heap_pages_[ref.heap_idx].block);
    }
  }
  return PinPageWithHeap(state.page_idx, state.row_pin, state.heap_pins);
}

Status TupleDataCollection::PinPageWithHeap(
    idx_t page_idx, BufferHandle &row_pin,
    std::vector<BufferHandle> &heap_pins) {
  RowPage &page = row_pages_[page_idx];
  SSAGG_ASSIGN_OR_RETURN(row_pin, buffer_manager_.Pin(page.block));
  data_ptr_t page_base = row_pin.Ptr();
  const idx_t row_width = layout_.RowWidth();
  for (auto &ref : page.heap_refs) {
    SSAGG_ASSIGN_OR_RETURN(auto heap_pin,
                           buffer_manager_.Pin(heap_pages_[ref.heap_idx].block));
    auto new_base = reinterpret_cast<uint64_t>(heap_pin.Ptr());
    if (new_base != ref.old_base) {
      // The heap page came back at a different address: recompute the
      // explicit pointers of the rows in this range, in place.
      int64_t delta = static_cast<int64_t>(new_base) -
                      static_cast<int64_t>(ref.old_base);
      for (idx_t prow = ref.row_begin; prow < ref.row_end; prow++) {
        data_ptr_t row = page_base + prow * row_width;
        for (idx_t c : layout_.VarSizeColumns()) {
          if (!layout_.RowIsColumnValid(row, c)) {
            continue;
          }
          string_t s;
          std::memcpy(&s, row + layout_.ColumnOffset(c), sizeof(string_t));
          if (s.IsInlined()) {
            continue;
          }
          s.SetPointer(s.value.pointer.ptr + delta);
          std::memcpy(row + layout_.ColumnOffset(c), &s, sizeof(string_t));
        }
      }
      ref.old_base = new_base;
    }
    heap_pins.push_back(std::move(heap_pin));
  }
  return Status::OK();
}

void TupleDataCollection::GatherRows(data_ptr_t page_base, idx_t row_idx,
                                     idx_t count,
                                     const std::vector<idx_t> &column_ids,
                                     DataChunk &out, data_ptr_t *rows) {
  const idx_t row_width = layout_.RowWidth();
  for (idx_t i = 0; i < count; i++) {
    rows[i] = page_base + (row_idx + i) * row_width;
  }
  for (idx_t c : column_ids) {
    GatherColumn(layout_, c, rows, count, out.column(c));
  }
  out.SetCount(count);
}

Result<bool> TupleDataCollection::Scan(TupleDataScanState &state,
                                       const std::vector<idx_t> &column_ids,
                                       DataChunk &out,
                                       data_ptr_t *row_ptrs_out) {
  out.Reset();
  // Page cleanup is deferred to the call AFTER the one that returned a
  // page's last rows: the previous call's row pointers (and gathered data)
  // must stay valid until the consumer asks for the next chunk.
  while (state.page_idx < row_pages_.size() &&
         state.row_idx >= row_pages_[state.page_idx].count) {
    FinishScanPage(state);
  }
  if (state.page_idx >= row_pages_.size()) {
    state.row_pin.Reset();
    state.heap_pins.clear();
    return false;
  }
  RowPage &page = row_pages_[state.page_idx];
  if (!state.row_pin.IsValid()) {
    SSAGG_RETURN_NOT_OK(PinPageForScan(state));
  }
  idx_t count = std::min<idx_t>(kVectorSize, page.count - state.row_idx);
  if (row_ptrs_out == nullptr) {
    state.rows.resize(kVectorSize);
    row_ptrs_out = state.rows.data();
  }
  GatherRows(state.row_pin.Ptr(), state.row_idx, count, column_ids, out,
             row_ptrs_out);
  state.row_idx += count;
  return true;
}

void TupleDataCollection::FinishScanPage(TupleDataScanState &state) {
  state.row_pin.Reset();
  state.heap_pins.clear();
  if (state.destroy_after_scan && state.page_idx < row_pages_.size()) {
    RowPage &page = row_pages_[state.page_idx];
    if (page.block) {
      buffer_manager_.DestroyBlock(page.block);
      page.block.reset();
    }
    // A heap page can be referenced by multiple row pages; since scans go
    // in order, it is safe to destroy a heap page when the scan moves past
    // the last row page that references it (precomputed in InitScan).
    for (auto &ref : page.heap_refs) {
      if (state.heap_last_user[ref.heap_idx] == state.page_idx &&
          heap_pages_[ref.heap_idx].block) {
        buffer_manager_.DestroyBlock(heap_pages_[ref.heap_idx].block);
        heap_pages_[ref.heap_idx].block.reset();
      }
    }
  }
  state.page_idx++;
  state.row_idx = 0;
}

void TupleDataCollection::Combine(TupleDataCollection &other) {
  SSAGG_ASSERT(layout_.RowWidth() == other.layout_.RowWidth());
  idx_t heap_offset = heap_pages_.size();
  for (auto &heap : other.heap_pages_) {
    heap_pages_.push_back(std::move(heap));
  }
  for (auto &page : other.row_pages_) {
    for (auto &ref : page.heap_refs) {
      ref.heap_idx += heap_offset;
    }
    row_pages_.push_back(std::move(page));
  }
  count_ += other.count_;
  heap_bytes_ += other.heap_bytes_;
  other.row_pages_.clear();
  other.heap_pages_.clear();
  other.count_ = 0;
  other.heap_bytes_ = 0;
  other.current_row_page_ = kInvalidIndex;
  other.current_heap_page_ = kInvalidIndex;
  // Our own partially-filled pages may now be out of order; keep appending
  // to them anyway is unsafe since indices moved only for `other`. Ours are
  // unchanged, so current pages stay valid.
}

void TupleDataCollection::Reset() {
  for (auto &page : row_pages_) {
    if (page.block) {
      buffer_manager_.DestroyBlock(page.block);
    }
  }
  for (auto &heap : heap_pages_) {
    if (heap.block) {
      buffer_manager_.DestroyBlock(heap.block);
    }
  }
  row_pages_.clear();
  heap_pages_.clear();
  count_ = 0;
  heap_bytes_ = 0;
  current_row_page_ = kInvalidIndex;
  current_heap_page_ = kInvalidIndex;
}

}  // namespace ssagg
