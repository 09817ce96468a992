#ifndef SSAGG_CORE_ROW_MATCHER_H_
#define SSAGG_CORE_ROW_MATCHER_H_

#include <vector>

#include "common/vector.h"
#include "layout/tuple_data_layout.h"

namespace ssagg {

/// Column-at-a-time group-key matcher for the vectorized probe pipeline.
///
/// Rather than comparing one input row against one candidate row with all
/// columns inside the loop, the matcher flips the loops: each pass
/// compares ONE layout column across the WHOLE candidate selection, using a
/// type-specialized kernel, and compacts the selection to the survivors
/// before moving to the next column. The stored 64-bit hash (a hidden
/// layout column) is always the first pass: it is a cheap fixed-width
/// compare that filters almost all salt collisions before any group column
/// — and for multi-column or string keys it replaces several expensive
/// passes with one.
///
/// NULL semantics are those of grouping: NULL == NULL matches, NULL vs
/// non-NULL does not.
class RowMatcher {
 public:
  /// Prepares match passes for the layout: the hash column first, then the
  /// `group_count` leading group columns, dispatched on type width.
  void Initialize(const TupleDataLayout &layout, idx_t group_count,
                  idx_t hash_column);

  /// Compares the selected input rows of `chunk` against their candidate
  /// rows (`row_ptrs`, indexed by absolute row index like the selection's
  /// entries). On return `sel` is compacted in place to the rows whose
  /// candidate matched on every column; rows that failed some pass are
  /// appended to `no_match`. Returns the match count (== sel.size()).
  idx_t Match(const DataChunk &chunk, data_ptr_t *const row_ptrs,
              SelectionVector &sel, SelectionVector &no_match);

 private:
  using MatchFn = idx_t (*)(const Vector &vec, const TupleDataLayout &layout,
                            idx_t col, data_ptr_t *const row_ptrs,
                            idx_t *sel, idx_t count, idx_t *no_match,
                            idx_t &no_match_count);

  struct MatchPass {
    idx_t column;
    MatchFn fn;
  };

  const TupleDataLayout *layout_ = nullptr;
  std::vector<MatchPass> passes_;
};

}  // namespace ssagg

#endif  // SSAGG_CORE_ROW_MATCHER_H_
