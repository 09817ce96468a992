#ifndef SSAGG_SSAGG_H_
#define SSAGG_SSAGG_H_

/// Umbrella header for the ssagg library: robust external hash aggregation
/// on a unified buffer manager with a spillable page layout, after
/// Kuiper, Boncz & Mühleisen, "Robust External Hash Aggregation in the
/// Solid State Age" (ICDE 2024).
///
/// Typical usage (see examples/quickstart.cc):
///
///   BufferManager bm(temp_dir, memory_limit);
///   TaskExecutor executor(num_threads);
///   RangeSource source(types, rows, filler);           // or a DataTable scan
///   MaterializedCollector results;
///   auto stats = RunGroupedAggregation(
///       bm, source, /*group columns=*/{0},
///       {{AggregateKind::kSum, 1}}, results, executor);

#include "baselines/baselines.h"
#include "buffer/buffer_manager.h"
#include "buffer/file_block_manager.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "common/value.h"
#include "common/vector.h"
#include "compression/codec.h"
#include "core/aggregate_function.h"
#include "core/aggregate_planner.h"
#include "core/grouped_aggregate_hash_table.h"
#include "core/physical_hash_aggregate.h"
#include "core/physical_hash_join.h"
#include "core/run_aggregation.h"
#include "core/ungrouped_aggregate.h"
#include "execution/collectors.h"
#include "execution/range_source.h"
#include "execution/task_executor.h"
#include "layout/partitioned_tuple_data.h"
#include "layout/tuple_data_collection.h"
#include "observe/flight_recorder.h"
#include "observe/json.h"
#include "observe/log.h"
#include "observe/metrics.h"
#include "observe/profile.h"
#include "observe/progress.h"
#include "service/query_service.h"
#include "sort/external_sort_aggregate.h"
#include "storage/data_table.h"
#include "tpch/lineitem.h"

#endif  // SSAGG_SSAGG_H_
