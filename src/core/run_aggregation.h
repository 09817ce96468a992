#ifndef SSAGG_CORE_RUN_AGGREGATION_H_
#define SSAGG_CORE_RUN_AGGREGATION_H_

#include <memory>
#include <vector>

#include "buffer/buffer_manager.h"
#include "core/physical_hash_aggregate.h"
#include "execution/operator.h"
#include "execution/task_executor.h"
#include "observe/profile.h"
#include "observe/progress.h"

namespace ssagg {

/// Convenience: runs `GROUP BY <group_columns> : <aggregates>` over a
/// source, pushing results into `output`. This is the full two-pipeline
/// query: (source -> aggregate sink), then (aggregate partitions ->
/// output). Returns operator statistics.
///
/// When `profile` is non-null it is filled with the query's observability
/// snapshot: phase timings, operator counters ("agg.*"), executor counters
/// and timings ("exec.*"), the growth the query caused in the global
/// metrics registry ("bm.*", "io.*", ...), and per-query latency
/// histograms. If SSAGG_TRACE is set, the events recorded since the last
/// flush are drained into the trace file after the query, failed or not.
///
/// When `progress` is non-null it is armed before execution and fed live:
/// another thread may Poll() it at any point for phase, rows consumed, the
/// planner's group estimate, spill bytes and latency histograms. The
/// end-to-end latency lands in the "query.latency_ns" histogram, and an
/// error Status triggers a flight-recorder anomaly dump (when
/// SSAGG_FLIGHT_DUMP is configured).
Result<HashAggregateStats> RunGroupedAggregation(
    BufferManager &buffer_manager, DataSource &source,
    const std::vector<idx_t> &group_columns,
    const std::vector<AggregateRequest> &aggregates, DataSink &output,
    TaskExecutor &executor, HashAggregateConfig config = {},
    QueryProfile *profile = nullptr, QueryProgress *progress = nullptr);

/// Flattens operator stats into a profile's "agg.*" counters (shared by
/// RunGroupedAggregation and benches that drive the operator directly).
void AddAggregateStats(const HashAggregateStats &stats, QueryProfile &profile);

}  // namespace ssagg

#endif  // SSAGG_CORE_RUN_AGGREGATION_H_
