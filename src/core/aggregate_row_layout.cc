#include "core/aggregate_row_layout.h"

#include "common/hash.h"

namespace ssagg {

Result<AggregateRowLayout> AggregateRowLayout::Build(
    const std::vector<LogicalTypeId> &input_types,
    const std::vector<idx_t> &group_columns,
    const std::vector<AggregateRequest> &requests) {
  if (group_columns.empty()) {
    return Status::InvalidArgument("grouped aggregation needs group columns");
  }
  AggregateRowLayout result;
  result.group_columns = group_columns;
  result.group_count = group_columns.size();

  std::vector<LogicalTypeId> layout_types;
  for (idx_t col : group_columns) {
    if (col >= input_types.size()) {
      return Status::InvalidArgument("group column index out of range");
    }
    layout_types.push_back(input_types[col]);
  }
  result.hash_column = layout_types.size();
  layout_types.push_back(LogicalTypeId::kInt64);

  idx_t state_width = 0;
  for (const auto &req : requests) {
    AggregateObject obj;
    obj.request = req;
    if (req.kind == AggregateKind::kAnyValue) {
      if (req.input_column >= input_types.size()) {
        return Status::InvalidArgument("aggregate input column out of range");
      }
      obj.sticky = true;
      obj.layout_column = layout_types.size();
      obj.function.kind = req.kind;
      obj.function.input_type = input_types[req.input_column];
      obj.function.result_type = obj.function.input_type;
      layout_types.push_back(obj.function.input_type);
    } else {
      LogicalTypeId input_type = LogicalTypeId::kInt64;
      if (req.input_column != kInvalidIndex) {
        if (req.input_column >= input_types.size()) {
          return Status::InvalidArgument(
              "aggregate input column out of range");
        }
        input_type = input_types[req.input_column];
      }
      SSAGG_ASSIGN_OR_RETURN(obj.function,
                             GetAggregateFunction(req.kind, input_type));
      obj.state_offset = state_width;
      state_width += obj.function.state_width;
    }
    result.aggregates.push_back(obj);
  }

  result.layout.Initialize(layout_types, state_width);
  result.hash_offset = result.layout.ColumnOffset(result.hash_column);
  return result;
}

std::vector<LogicalTypeId> AggregateRowLayout::OutputTypes() const {
  std::vector<LogicalTypeId> types;
  for (idx_t g = 0; g < group_count; g++) {
    types.push_back(layout.ColumnType(g));
  }
  for (const auto &agg : aggregates) {
    types.push_back(agg.function.result_type);
  }
  return types;
}

hash_t *AggregateRowLayout::FillLayoutChunk(const DataChunk &input,
                                            DataChunk &layout_chunk) const {
  const idx_t count = input.size();
  // The int64 hash column is bit-identical to hash_t: hash straight into it.
  static_assert(sizeof(hash_t) == sizeof(int64_t));
  auto *hashes =
      reinterpret_cast<hash_t *>(layout_chunk.column(hash_column).data());
  ChunkHash(input, group_columns, hashes);
  for (idx_t g = 0; g < group_count; g++) {
    CopyVectorShallow(input.column(group_columns[g]), layout_chunk.column(g),
                      count);
  }
  for (const auto &agg : aggregates) {
    if (agg.sticky) {
      CopyVectorShallow(input.column(agg.request.input_column),
                        layout_chunk.column(agg.layout_column), count);
    }
  }
  layout_chunk.SetCount(count);
  return hashes;
}

}  // namespace ssagg
