#include "core/row_matcher.h"

#include <cstring>

#include "common/string_type.h"

namespace ssagg {

namespace {

/// Fixed-width kernel: bitwise equality of the column value, with grouping
/// NULL semantics. The bitwise compare matches the row materialization
/// (AppendRows memcpy's the vector bytes), so it is exact for every
/// fixed-width type including doubles.
template <typename T>
idx_t MatchFixed(const Vector &vec, const TupleDataLayout &layout, idx_t col,
                 data_ptr_t *const row_ptrs, idx_t *sel, idx_t count,
                 idx_t *no_match, idx_t &no_match_count) {
  const T *values = reinterpret_cast<const T *>(vec.data());
  const auto &validity = vec.validity();
  const idx_t offset = layout.ColumnOffset(col);
  idx_t matched = 0;
  if (validity.AllValid()) {
    for (idx_t i = 0; i < count; i++) {
      const idx_t r = sel[i];
      const_data_ptr_t row = row_ptrs[r];
      if (layout.RowIsColumnValid(row, col) &&
          std::memcmp(row + offset, &values[r], sizeof(T)) == 0) {
        sel[matched++] = r;
      } else {
        no_match[no_match_count++] = r;
      }
    }
    return matched;
  }
  for (idx_t i = 0; i < count; i++) {
    const idx_t r = sel[i];
    const_data_ptr_t row = row_ptrs[r];
    const bool in_valid = validity.RowIsValid(r);
    const bool row_valid = layout.RowIsColumnValid(row, col);
    bool match;
    if (in_valid != row_valid) {
      match = false;
    } else if (!in_valid) {
      match = true;  // NULL == NULL for grouping
    } else {
      match = std::memcmp(row + offset, &values[r], sizeof(T)) == 0;
    }
    if (match) {
      sel[matched++] = r;
    } else {
      no_match[no_match_count++] = r;
    }
  }
  return matched;
}

/// Hash pass: the hidden hash column is never NULL (AddChunk resets its
/// validity; materialized rows always store the hash), so the validity
/// checks are dropped entirely — this is the hot first pass.
idx_t MatchHash(const Vector &vec, const TupleDataLayout &layout, idx_t col,
                data_ptr_t *const row_ptrs, idx_t *sel, idx_t count,
                idx_t *no_match, idx_t &no_match_count) {
  const uint64_t *values = reinterpret_cast<const uint64_t *>(vec.data());
  const idx_t offset = layout.ColumnOffset(col);
  idx_t matched = 0;
  for (idx_t i = 0; i < count; i++) {
    const idx_t r = sel[i];
    uint64_t stored;
    std::memcpy(&stored, row_ptrs[r] + offset, sizeof(uint64_t));
    if (stored == values[r]) {
      sel[matched++] = r;
    } else {
      no_match[no_match_count++] = r;
    }
  }
  return matched;
}

idx_t MatchString(const Vector &vec, const TupleDataLayout &layout, idx_t col,
                  data_ptr_t *const row_ptrs, idx_t *sel, idx_t count,
                  idx_t *no_match, idx_t &no_match_count) {
  const string_t *values = reinterpret_cast<const string_t *>(vec.data());
  const auto &validity = vec.validity();
  const idx_t offset = layout.ColumnOffset(col);
  idx_t matched = 0;
  for (idx_t i = 0; i < count; i++) {
    const idx_t r = sel[i];
    const_data_ptr_t row = row_ptrs[r];
    const bool in_valid = validity.RowIsValid(r);
    const bool row_valid = layout.RowIsColumnValid(row, col);
    bool match;
    if (in_valid != row_valid) {
      match = false;
    } else if (!in_valid) {
      match = true;
    } else {
      string_t stored;
      std::memcpy(&stored, row + offset, sizeof(string_t));
      match = stored == values[r];
    }
    if (match) {
      sel[matched++] = r;
    } else {
      no_match[no_match_count++] = r;
    }
  }
  return matched;
}

}  // namespace

void RowMatcher::Initialize(const TupleDataLayout &layout, idx_t group_count,
                            idx_t hash_column) {
  layout_ = &layout;
  passes_.clear();
  passes_.reserve(group_count + 1);
  // The hash-prefix check is the first pass: a single 8-byte compare whose
  // mismatch probability under a salt collision is ~2^-48.
  passes_.push_back(MatchPass{hash_column, &MatchHash});
  for (idx_t c = 0; c < group_count; c++) {
    MatchFn fn;
    switch (TypeWidth(layout.ColumnType(c))) {
      case 1:
        fn = &MatchFixed<uint8_t>;
        break;
      case 4:
        fn = &MatchFixed<uint32_t>;
        break;
      case 8:
        fn = &MatchFixed<uint64_t>;
        break;
      default:
        SSAGG_ASSERT(TypeIsVarSize(layout.ColumnType(c)));
        fn = &MatchString;
        break;
    }
    passes_.push_back(MatchPass{c, fn});
  }
}

idx_t RowMatcher::Match(const DataChunk &chunk, data_ptr_t *const row_ptrs,
                        SelectionVector &sel, SelectionVector &no_match) {
  SSAGG_DASSERT(layout_ != nullptr);
  idx_t count = sel.size();
  idx_t no_match_count = no_match.size();
  for (const MatchPass &pass : passes_) {
    if (count == 0) {
      break;
    }
    count = pass.fn(chunk.column(pass.column), *layout_, pass.column,
                    row_ptrs, sel.data(), count, no_match.data(),
                    no_match_count);
  }
  sel.SetCount(count);
  no_match.SetCount(no_match_count);
  return count;
}

}  // namespace ssagg
