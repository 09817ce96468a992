#include "layout/row_kernels.h"

#include <cstring>

#include "common/string_type.h"

namespace ssagg {

namespace {

template <idx_t kWidth>
void ScatterFixed(const_data_ptr_t values, const idx_t *sel, idx_t count,
                  const data_ptr_t *rows, idx_t offset) {
  if (sel == nullptr) {
    for (idx_t i = 0; i < count; i++) {
      std::memcpy(rows[i] + offset, values + i * kWidth, kWidth);
    }
    return;
  }
  for (idx_t i = 0; i < count; i++) {
    std::memcpy(rows[i] + offset, values + sel[i] * kWidth, kWidth);
  }
}

/// NULL strings are skipped (their header may be garbage); the validity
/// pass zeroes their slots.
void ScatterStrings(const Vector &vec, const idx_t *sel, idx_t count,
                    const data_ptr_t *rows, idx_t offset,
                    data_ptr_t *heap_cursors) {
  const string_t *values = vec.Values<string_t>();
  const ValidityMask &validity = vec.validity();
  const bool all_valid = validity.AllValid();
  for (idx_t i = 0; i < count; i++) {
    const idx_t r = sel ? sel[i] : i;
    if (!all_valid && !validity.RowIsValid(r)) {
      continue;
    }
    string_t s = values[r];
    if (!s.IsInlined()) {
      SSAGG_DASSERT(heap_cursors != nullptr);
      std::memcpy(heap_cursors[i], s.data(), s.size());
      s.SetPointer(reinterpret_cast<char *>(heap_cursors[i]));
      heap_cursors[i] += s.size();
    }
    std::memcpy(rows[i] + offset, &s, sizeof(string_t));
  }
}

template <idx_t kWidth>
void GatherFixed(const data_ptr_t *rows, idx_t count, idx_t offset,
                 data_ptr_t out) {
  for (idx_t i = 0; i < count; i++) {
    std::memcpy(out + i * kWidth, rows[i] + offset, kWidth);
  }
}

}  // namespace

void ScatterColumn(const TupleDataLayout &layout, idx_t col,
                   const Vector &vec, const idx_t *sel, idx_t count,
                   const data_ptr_t *rows, data_ptr_t *heap_cursors) {
  const idx_t offset = layout.ColumnOffset(col);
  const idx_t width = vec.width();
  SSAGG_DASSERT(width == TypeWidth(layout.ColumnType(col)));
  switch (width) {
    case 1:
      ScatterFixed<1>(vec.data(), sel, count, rows, offset);
      break;
    case 4:
      ScatterFixed<4>(vec.data(), sel, count, rows, offset);
      break;
    case 8:
      ScatterFixed<8>(vec.data(), sel, count, rows, offset);
      break;
    case sizeof(string_t):
      ScatterStrings(vec, sel, count, rows, offset, heap_cursors);
      break;
    default:
      SSAGG_ASSERT(false);
  }
  const ValidityMask &validity = vec.validity();
  if (validity.AllValid()) {
    return;
  }
  const idx_t byte = col >> 3;
  const auto clear = static_cast<data_t>(~(1 << (col & 7)));
  for (idx_t i = 0; i < count; i++) {
    if (!validity.RowIsValid(sel ? sel[i] : i)) {
      rows[i][byte] &= clear;
      std::memset(rows[i] + offset, 0, width);
    }
  }
}

void GatherColumn(const TupleDataLayout &layout, idx_t col,
                  const data_ptr_t *rows, idx_t count, Vector &out) {
  const idx_t offset = layout.ColumnOffset(col);
  SSAGG_DASSERT(out.width() == TypeWidth(layout.ColumnType(col)));
  switch (out.width()) {
    case 1:
      GatherFixed<1>(rows, count, offset, out.data());
      break;
    case 4:
      GatherFixed<4>(rows, count, offset, out.data());
      break;
    case 8:
      GatherFixed<8>(rows, count, offset, out.data());
      break;
    case sizeof(string_t):
      GatherFixed<sizeof(string_t)>(rows, count, offset, out.data());
      break;
    default:
      SSAGG_ASSERT(false);
  }
  const idx_t byte = col >> 3;
  const auto bit = static_cast<data_t>(1 << (col & 7));
  ValidityMask &validity = out.validity();
  for (idx_t i = 0; i < count; i++) {
    if ((rows[i][byte] & bit) == 0) {
      validity.SetInvalid(i);
    }
  }
}

idx_t RowHeapSize(const TupleDataLayout &layout, const_data_ptr_t row) {
  idx_t total = 0;
  for (idx_t c : layout.VarSizeColumns()) {
    if (!layout.RowIsColumnValid(row, c)) {
      continue;
    }
    string_t s;
    std::memcpy(&s, row + layout.ColumnOffset(c), sizeof(string_t));
    if (!s.IsInlined()) {
      total += s.size();
    }
  }
  return total;
}

}  // namespace ssagg
