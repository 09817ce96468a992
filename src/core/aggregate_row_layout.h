#ifndef SSAGG_CORE_AGGREGATE_ROW_LAYOUT_H_
#define SSAGG_CORE_AGGREGATE_ROW_LAYOUT_H_

#include <vector>

#include "core/aggregate_function.h"
#include "layout/tuple_data_layout.h"

namespace ssagg {

/// An aggregate resolved against the hash table's row layout.
struct AggregateObject {
  AggregateRequest request;
  AggregateFunction function;
  /// Offset of the state inside the row's aggregate-state area (non-sticky).
  idx_t state_offset = 0;
  /// ANY_VALUE aggregates are "sticky": materialized once, at group
  /// creation, as a regular layout column (so string payloads live on the
  /// spillable heap pages and are covered by pointer recomputation).
  bool sticky = false;
  /// For sticky aggregates: the layout column holding the value.
  idx_t layout_column = 0;
};

/// The row shape shared by the hash table, the partitioned data, and the
/// operator: [group columns..., hash, sticky payload columns...] plus a
/// trailing aggregate-state area.
struct AggregateRowLayout {
  TupleDataLayout layout;
  idx_t group_count = 0;
  idx_t hash_column = 0;
  idx_t hash_offset = 0;
  std::vector<idx_t> group_columns;  // indices into the operator input chunk
  std::vector<AggregateObject> aggregates;

  static Result<AggregateRowLayout> Build(
      const std::vector<LogicalTypeId> &input_types,
      const std::vector<idx_t> &group_columns,
      const std::vector<AggregateRequest> &requests);

  /// Output chunk types: group columns, then one result per aggregate.
  std::vector<LogicalTypeId> OutputTypes() const;

  /// Fills the layout-shaped `layout_chunk` from an input chunk: copies the
  /// group columns and sticky payloads, hashes the group columns into the
  /// hash column and sets the count. Returns the hash column as hash_t.
  hash_t *FillLayoutChunk(const DataChunk &input,
                          DataChunk &layout_chunk) const;
};

}  // namespace ssagg

#endif  // SSAGG_CORE_AGGREGATE_ROW_LAYOUT_H_
