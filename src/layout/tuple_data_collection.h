#ifndef SSAGG_LAYOUT_TUPLE_DATA_COLLECTION_H_
#define SSAGG_LAYOUT_TUPLE_DATA_COLLECTION_H_

#include <unordered_map>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/vector.h"
#include "layout/tuple_data_layout.h"

namespace ssagg {

/// Pins accumulated while appending to a TupleDataCollection. Keeping the
/// pins in the state (rather than per call) is what makes hash-table
/// pointers into the rows stable: the aggregation operator holds one append
/// state per thread and releases it when the thread-local hash table is
/// reset, after which the pages become eviction candidates (Section V,
/// "RAM-Oblivious").
struct TupleDataAppendState {
  std::unordered_map<idx_t, BufferHandle> row_pins;
  std::unordered_map<idx_t, BufferHandle> heap_pins;
  /// Per-batch scratch of the append calls: each placed row's address (when
  /// the caller does not ask for them) and its heap write cursor.
  std::vector<data_ptr_t> rows;
  std::vector<data_ptr_t> heap_cursors;

  void Release() {
    row_pins.clear();
    heap_pins.clear();
  }
};

/// Pins every page of a collection for random access (see
/// TupleDataCollection::PinAllRows).
struct TupleDataPinnedState {
  std::vector<BufferHandle> pins;
  void Release() { pins.clear(); }
};

/// Cursor over a TupleDataCollection. Pins one row page (and the heap pages
/// its rows reference) at a time. Gathered strings are NOT copied: a
/// non-inlined string_t in the output chunk points into a pinned heap page,
/// as do the returned row addresses, and both stay valid only until the
/// next Scan call on this state (which may unpin or, with
/// destroy_after_scan, destroy the page). Consume or copy them first.
struct TupleDataScanState {
  idx_t page_idx = 0;
  idx_t row_idx = 0;
  BufferHandle row_pin;
  std::vector<BufferHandle> heap_pins;
  /// Row addresses of the current chunk when the caller does not ask for
  /// them.
  std::vector<data_ptr_t> rows;
  /// Destroy pages once the scan has passed them (frees memory or
  /// temp-file space eagerly).
  bool destroy_after_scan = false;
  /// For destroy_after_scan: heap page index -> last row page referencing
  /// it; a heap page is destroyed once the scan passes that row page.
  std::vector<idx_t> heap_last_user;
};

/// Row-major, buffer-managed tuple storage implementing the paper's page
/// layout (Section IV):
///   - fixed-size rows on fixed-size (kPageSize) pages;
///   - variable-size (string) data on separate heap pages, referenced from
///     the rows with explicit pointers;
///   - per-row-range metadata records which heap page a range's strings
///     live on and the page's base address when the pointers were written,
///     so pointers can be recomputed in place after a spill/reload —
///     without any (de)serialization;
///   - pages are allocated from the unified buffer manager, so spilling is
///     entirely the buffer manager's business: the collection never writes
///     a file itself.
class TupleDataCollection {
 public:
  TupleDataCollection(BufferManager &buffer_manager,
                      const TupleDataLayout &layout)
      : buffer_manager_(buffer_manager), layout_(layout) {
    for (idx_t c = 0; c < layout_.ColumnCount(); c++) {
      all_columns_.push_back(c);
    }
  }

  TupleDataCollection(const TupleDataCollection &) = delete;
  TupleDataCollection &operator=(const TupleDataCollection &) = delete;
  TupleDataCollection(TupleDataCollection &&) = default;

  /// Destroys pages explicitly (rather than just dropping the handles):
  /// DestroyBlock waits out in-flight prefetches, so by the time the
  /// collection is gone, no read-ahead still holds memory or temp slots.
  ~TupleDataCollection() { Reset(); }

  const TupleDataLayout &layout() const { return layout_; }
  idx_t Count() const { return count_; }
  idx_t RowPageCount() const { return row_pages_.size(); }
  idx_t HeapPageCount() const { return heap_pages_.size(); }
  /// Bytes occupied by rows and heap data (whether in memory or spilled).
  idx_t SizeInBytes() const;

  /// Appends `count` rows taken from `input` (row indices given by `sel`,
  /// or 0..count-1 if sel is null). The first layout.ColumnCount() columns
  /// of `input` are materialized; the aggregate-state area is
  /// zero-initialized. Row addresses are returned in `row_ptrs_out`
  /// (indexed by position in sel; may be null). The addresses stay valid
  /// while `state` holds its pins.
  ///
  /// The rows and their heap bytes are placed first; the columns are then
  /// scattered one at a time (ScatterColumn). If placing fails part-way
  /// (a denied allocation or pin), the rows placed so far are still fully
  /// written, so the collection stays consistent, and the error returned.
  Status AppendRows(TupleDataAppendState &state, const DataChunk &input,
                    const idx_t *sel, idx_t count, data_ptr_t *row_ptrs_out);

  /// Appends copies of existing rows of the same layout: row
  /// `src_rows[sel ? sel[i] : i]` becomes one new row, aggregate-state area
  /// included (one memcpy). The characters of its non-inlined strings are
  /// copied onto this collection's heap pages and the copy's pointers
  /// rewritten, so the copy does not reference the source afterwards. The
  /// source string pointers must be valid (source pages pinned, pointers
  /// recomputed). Same output and failure contract as AppendRows.
  Status AppendRowCopies(TupleDataAppendState &state,
                         const data_ptr_t *src_rows, const idx_t *sel,
                         idx_t count, data_ptr_t *row_ptrs_out);

  /// Initializes a scan. If destroy_after_scan is set, pages are destroyed
  /// as soon as the scan moves past them.
  void InitScan(TupleDataScanState &state, bool destroy_after_scan = false);

  /// Best-effort asynchronous read-ahead of the first `pages` row pages
  /// (and their heap pages) before a scan, warming spilled data while the
  /// caller sets up. A no-op with the sync backend or when memory is tight.
  void PrefetchForScan(idx_t pages);

  /// Gathers up to kVectorSize rows into `out` (which must match the layout
  /// column types), which is reset first. Only the layout columns listed
  /// in `column_ids` are gathered (into the same column index of `out`;
  /// the other columns' values are not written), so a consumer that reads
  /// a few columns, or works on the rows directly, pays for nothing else. If `row_ptrs_out` is non-null it
  /// receives the address of each gathered row. Strings and row addresses
  /// are valid until the next Scan call on this state (see
  /// TupleDataScanState). Returns false when the collection is exhausted.
  Result<bool> Scan(TupleDataScanState &state,
                    const std::vector<idx_t> &column_ids, DataChunk &out,
                    data_ptr_t *row_ptrs_out = nullptr);
  /// Scan of every layout column.
  Result<bool> Scan(TupleDataScanState &state, DataChunk &out,
                    data_ptr_t *row_ptrs_out = nullptr) {
    return Scan(state, all_columns_, out, row_ptrs_out);
  }

  /// Moves all pages of `other` into this collection. `other` becomes
  /// empty. Layouts must be identical. Append states of either collection
  /// must have been released.
  void Combine(TupleDataCollection &other);

  /// Destroys all pages, releasing memory and temporary-file space.
  void Reset();

  /// Unpins everything and verifies per-page row counts; test helper.
  idx_t ComputedRowCount() const;

  /// Calls fn(row_ptr) for every row, pinning pages through `state` so the
  /// addresses stay valid until the state releases its pins. Heap pointers
  /// inside the rows are NOT recomputed (callers that only touch fixed-size
  /// columns, like a pointer-table rebuild, don't need them); use
  /// PinAllRows when string columns will be read.
  template <typename Fn>
  Status VisitRows(TupleDataAppendState &state, Fn &&fn) {
    const idx_t row_width = layout_.RowWidth();
    for (idx_t p = 0; p < row_pages_.size(); p++) {
      SSAGG_ASSIGN_OR_RETURN(data_ptr_t base, GetRowPagePtr(state, p));
      for (idx_t i = 0; i < row_pages_[p].count; i++) {
        fn(base + i * row_width);
      }
    }
    return Status::OK();
  }

  /// Pins ALL row and heap pages and recomputes stale string pointers, then
  /// calls fn(row_ptr) for every row. The rows (including their string
  /// data) stay valid for random access — e.g. as a join build side — until
  /// `state` releases its pins. Requires the whole collection to fit in
  /// memory at once.
  template <typename Fn>
  Status PinAllRows(TupleDataPinnedState &state, Fn &&fn) {
    const idx_t row_width = layout_.RowWidth();
    for (idx_t p = 0; p < row_pages_.size(); p++) {
      BufferHandle row_pin;
      SSAGG_RETURN_NOT_OK(PinPageWithHeap(p, row_pin, state.pins));
      data_ptr_t base = row_pin.Ptr();
      state.pins.push_back(std::move(row_pin));
      for (idx_t i = 0; i < row_pages_[p].count; i++) {
        fn(base + i * row_width);
      }
    }
    return Status::OK();
  }

 private:
  /// Tracks which heap page a contiguous range of a row page's rows keeps
  /// its string data on, plus the heap page's base address at write time
  /// (left-hand side of the paper's Figure 2).
  struct HeapRef {
    idx_t heap_idx;
    uint64_t old_base;
    idx_t row_begin;
    idx_t row_end;  // exclusive
  };

  struct RowPage {
    std::shared_ptr<BlockHandle> block;
    idx_t count = 0;
    std::vector<HeapRef> heap_refs;
  };

  struct HeapPage {
    std::shared_ptr<BlockHandle> block;
    idx_t used = 0;
    idx_t size = 0;
  };

  /// Returns a pointer to the start of the row page, pinning it through
  /// `state` if not already pinned there.
  Result<data_ptr_t> GetRowPagePtr(TupleDataAppendState &state, idx_t idx);
  Result<data_ptr_t> GetHeapPagePtr(TupleDataAppendState &state, idx_t idx);

  Status NewRowPage(TupleDataAppendState &state);
  Status NewHeapPage(TupleDataAppendState &state, idx_t min_size);

  /// Heap bytes the given input row needs (total length of its non-inlined
  /// strings).
  idx_t ComputeRowHeapSize(const DataChunk &input, idx_t row) const;

  /// The placement half of both appends: reserves a row slot for each of
  /// `count` rows, plus heap_size(i) bytes on one heap page (so a single
  /// HeapRef covers the row), and writes the row's address to rows[i] and
  /// its heap write address to heap_cursors[i]. Row count, heap usage and
  /// HeapRefs are updated as rows are placed; `placed` says how many were
  /// when an error is returned.
  template <typename HeapSizeFn>
  Status PlaceRows(TupleDataAppendState &state, idx_t count,
                   HeapSizeFn &&heap_size, data_ptr_t *rows,
                   data_ptr_t *heap_cursors, idx_t &placed);
  /// Output address array of an append: the caller's, or the state's
  /// scratch. Also sizes the heap-cursor scratch.
  data_ptr_t *AppendTargets(TupleDataAppendState &state, idx_t count,
                            data_ptr_t *row_ptrs_out);

  /// Unpins the current scan page, optionally destroying it (and any heap
  /// pages whose last user it was), and advances the cursor.
  void FinishScanPage(TupleDataScanState &state);

  /// Pins row page `page_idx` for scanning: pins the heap pages referenced
  /// by the page's HeapRefs and recomputes the row's string pointers if a
  /// heap page was reloaded at a different address (Section IV, "Pointer
  /// Recomputation": new = stored - old_base + new_base; done lazily and in
  /// place).
  Status PinPageForScan(TupleDataScanState &state);

  /// Pins one row page and the heap pages its rows reference, recomputing
  /// stale string pointers; heap pins are appended to `heap_pins`.
  Status PinPageWithHeap(idx_t page_idx, BufferHandle &row_pin,
                         std::vector<BufferHandle> &heap_pins);

  /// Gathers columns `column_ids` of rows [row_idx, row_idx + count) of
  /// the pinned page into out; rows[i] receives each row's address.
  void GatherRows(data_ptr_t page_base, idx_t row_idx, idx_t count,
                  const std::vector<idx_t> &column_ids, DataChunk &out,
                  data_ptr_t *rows);

  BufferManager &buffer_manager_;
  TupleDataLayout layout_;
  /// 0..ColumnCount()-1, the column list of a full Scan.
  std::vector<idx_t> all_columns_;
  std::vector<RowPage> row_pages_;
  std::vector<HeapPage> heap_pages_;
  idx_t count_ = 0;
  idx_t heap_bytes_ = 0;
  /// Index of the row/heap page currently being filled (kInvalidIndex if a
  /// fresh page is needed).
  idx_t current_row_page_ = kInvalidIndex;
  idx_t current_heap_page_ = kInvalidIndex;
};

}  // namespace ssagg

#endif  // SSAGG_LAYOUT_TUPLE_DATA_COLLECTION_H_
