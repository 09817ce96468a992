#ifndef SSAGG_LAYOUT_ROW_KERNELS_H_
#define SSAGG_LAYOUT_ROW_KERNELS_H_

#include "common/vector.h"
#include "layout/tuple_data_layout.h"

namespace ssagg {

/// The column-at-a-time conversions between vectors and layout rows
/// (paper Section IV). Each call moves ONE column across a whole batch of
/// rows with a loop typed by the column's width (1, 4, 8 or 16 bytes), so
/// the inner loop is a plain load/store with no per-value type dispatch.
/// Every row-major consumer shares them: tuple collections, the aggregate's
/// emit, the join and the serializing baselines.
///
/// Invariant relied on by both directions: a NULL value's slot in a row
/// holds zero bytes, so values are moved unconditionally and only the
/// validity bits need per-row work.

/// Writes column `col` of rows[0, count) from `vec` (row `sel[i]`, or `i`
/// when sel is null). The rows' validity bits for `col` must be set on
/// entry; they are cleared (and the slot zeroed) only for NULL inputs, and
/// only when `vec` is not all-valid.
///
/// VARCHAR: inlined strings are copied into the slot. The characters of a
/// non-inlined string are copied to `heap_cursors[i]`, which is advanced
/// past them, and the slot points there. `heap_cursors` may be null only
/// if the batch holds no non-inlined strings.
void ScatterColumn(const TupleDataLayout &layout, idx_t col,
                   const Vector &vec, const idx_t *sel, idx_t count,
                   const data_ptr_t *rows, data_ptr_t *heap_cursors);

/// Reads column `col` of rows[0, count) into out[0, count). `out`'s
/// validity must be all-valid on entry (a reset vector). VARCHAR values are
/// gathered zero-copy: a non-inlined string keeps pointing at the heap
/// bytes its row references, so the gathered vector is valid only while
/// those bytes are (for a collection scan: until the next Scan call).
void GatherColumn(const TupleDataLayout &layout, idx_t col,
                  const data_ptr_t *rows, idx_t count, Vector &out);

/// Heap bytes the row references: the total length of its valid,
/// non-inlined strings.
idx_t RowHeapSize(const TupleDataLayout &layout, const_data_ptr_t row);

}  // namespace ssagg

#endif  // SSAGG_LAYOUT_ROW_KERNELS_H_
