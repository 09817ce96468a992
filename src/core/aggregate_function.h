#ifndef SSAGG_CORE_AGGREGATE_FUNCTION_H_
#define SSAGG_CORE_AGGREGATE_FUNCTION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/vector.h"

namespace ssagg {

/// Supported aggregate functions. ANY_VALUE is the paper's benchmark
/// payload aggregate ("additional columns other than group keys are
/// selected using the ANY_VALUE aggregate function", Section VI).
enum class AggregateKind : uint8_t {
  kCountStar,
  kCount,
  kSum,
  kMin,
  kMax,
  kAvg,
  kAnyValue,
};

const char *AggregateKindName(AggregateKind kind);

/// A physical aggregate function over fixed-size states embedded in the
/// row layout. States are designed so that all-zero bytes are the valid
/// initial state (rows are appended with a zeroed state area).
struct AggregateFunction {
  AggregateKind kind = AggregateKind::kCountStar;
  LogicalTypeId input_type = LogicalTypeId::kInt64;
  LogicalTypeId result_type = LogicalTypeId::kInt64;
  idx_t state_width = 0;

  /// Folds input rows into their group states. `states[i]` is the state of
  /// the group that input row `sel ? sel[i] : i` belongs to. `input` may be
  /// null for COUNT(*).
  void (*update)(const Vector *input, const idx_t *sel, data_ptr_t *states,
                 idx_t count) = nullptr;

  /// Merges state `src` into `dst` (phase-2 partition-wise aggregation).
  /// Combining into an all-zero state must give `src`'s exact bytes: phase
  /// 2 copies a new group's state instead of combining it into a zeroed
  /// one (a SUM/AVG state starts at +0.0, so it never holds -0.0).
  void (*combine)(const_data_ptr_t src, data_ptr_t dst) = nullptr;

  /// Writes the state's final value to row `out_row` of `out`.
  void (*finalize)(const_data_ptr_t state, Vector &out,
                   idx_t out_row) = nullptr;
};

/// Resolves an aggregate function for the given input type. COUNT(*) takes
/// no input; pass any type. Returns InvalidArgument for unsupported
/// combinations (e.g. SUM over VARCHAR).
Result<AggregateFunction> GetAggregateFunction(AggregateKind kind,
                                               LogicalTypeId input_type);

/// A requested aggregate: which function over which input column of the
/// operator's input chunk (kInvalidIndex for COUNT(*)).
struct AggregateRequest {
  AggregateKind kind;
  idx_t input_column = kInvalidIndex;
};

}  // namespace ssagg

#endif  // SSAGG_CORE_AGGREGATE_FUNCTION_H_
