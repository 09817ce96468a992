#ifndef SSAGG_CORE_PHYSICAL_HASH_JOIN_H_
#define SSAGG_CORE_PHYSICAL_HASH_JOIN_H_

#include <memory>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "core/aggregate_row_layout.h"
#include "execution/operator.h"
#include "execution/task_executor.h"
#include "layout/partitioned_tuple_data.h"

namespace ssagg {

/// Configuration of the partitioned hash join.
struct HashJoinConfig {
  /// Radix fan-out; both sides are partitioned identically, so each
  /// partition pair joins independently (Grace-style). More partitions keep
  /// the per-partition build table small.
  idx_t radix_bits = 4;
  idx_t build_initial_capacity = 1024;
};

/// External-capable inner hash join built on the same two techniques as the
/// aggregation (the paper's Section IX: "other blocking operators can
/// benefit from the techniques proposed in this paper, such as the join"):
///
///   - both inputs are materialized into radix-partitioned spillable pages
///     through the unified buffer manager (nothing is ever written to a
///     file by the operator itself);
///   - the probe phase processes one partition pair at a time: insert the
///     build partition's rows into the aggregate's SaltedPointerTable,
///     stream the probe partition's keys through it in vectorized rounds
///     (salt scan, RowMatcher), gather the matched pairs' columns with
///     GatherColumn, destroy both partitions.
///
/// Rows with a NULL key are never materialized on either side, so SQL's
/// "NULL never matches" needs no matcher of its own.
///
/// Like the aggregation, the only memory requirement is that one build
/// partition (plus working pages) fits per concurrent task; everything else
/// spills and reloads transparently, with string keys covered by pointer
/// recomputation.
class PhysicalHashJoin {
 public:
  ~PhysicalHashJoin();

  static Result<std::unique_ptr<PhysicalHashJoin>> Create(
      BufferManager &buffer_manager,
      std::vector<LogicalTypeId> build_types,
      std::vector<idx_t> build_keys,
      std::vector<LogicalTypeId> probe_types,
      std::vector<idx_t> probe_keys, HashJoinConfig config = {});

  /// Output: probe columns first, then build columns.
  std::vector<LogicalTypeId> OutputTypes() const;

  /// Sinks for the two pipelines feeding the join.
  DataSink &build_sink();
  DataSink &probe_sink();

  /// Joins the materialized sides partition-wise in parallel, pushing
  /// result chunks into `output`. Partition pages are destroyed as they
  /// are consumed.
  Status EmitResults(DataSink &output, TaskExecutor &executor);

  /// Materialized rows per side (a row with a NULL key is dropped).
  idx_t BuildRowCount() const { return build_data_->Count(); }
  idx_t ProbeRowCount() const { return probe_data_->Count(); }

 private:
  class SideSink;

  PhysicalHashJoin(BufferManager &buffer_manager, HashJoinConfig config);

  Status JoinPartition(idx_t partition_idx, DataSink &output,
                       TaskExecutor &executor);

  BufferManager &buffer_manager_;
  HashJoinConfig config_;

  // Materialized row shape of each side: [key columns..., hash, payload
  // columns...] — reusing the aggregation's layout builder with zero
  // aggregates and ANY_VALUE-materialized payloads.
  AggregateRowLayout build_layout_;
  AggregateRowLayout probe_layout_;
  std::vector<LogicalTypeId> build_types_;
  std::vector<LogicalTypeId> probe_types_;

  std::unique_ptr<SideSink> build_sink_;
  std::unique_ptr<SideSink> probe_sink_;
  std::unique_ptr<PartitionedTupleData> build_data_;
  std::unique_ptr<PartitionedTupleData> probe_data_;
};

}  // namespace ssagg

#endif  // SSAGG_CORE_PHYSICAL_HASH_JOIN_H_
