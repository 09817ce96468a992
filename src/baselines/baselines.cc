#include "baselines/baselines.h"

#include <chrono>
#include <cstring>

#include "sort/row_serializer.h"

namespace ssagg {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool IsMemoryFailure(const Status &status) {
  return status.IsOutOfMemory() || status.IsAborted();
}

}  // namespace

//===----------------------------------------------------------------------===//
// Umbra-model: in-memory only
//===----------------------------------------------------------------------===//

Status RunInMemoryAggregation(BufferManager &buffer_manager,
                              DataSource &source,
                              const std::vector<idx_t> &group_columns,
                              const std::vector<AggregateRequest> &aggregates,
                              DataSink &output, TaskExecutor &executor,
                              HashAggregateConfig config,
                              BaselineOutcome *outcome) {
  auto start = std::chrono::steady_clock::now();
  bool restore = buffer_manager.spill_temporary();
  buffer_manager.SetSpillTemporary(false);
  auto result = RunGroupedAggregation(buffer_manager, source, group_columns,
                                      aggregates, output, executor, config);
  buffer_manager.SetSpillTemporary(restore);
  if (outcome) {
    outcome->seconds = SecondsSince(start);
    outcome->completed = result.ok();
    outcome->aborted = !result.ok() && IsMemoryFailure(result.status());
  }
  if (!result.ok() && result.status().IsOutOfMemory()) {
    return Status::Aborted("in-memory aggregation exceeded the memory "
                           "limit: " + result.status().message());
  }
  return result.ok() ? Status::OK() : result.status();
}

//===----------------------------------------------------------------------===//
// HyPer-model: switch to external sort aggregation
//===----------------------------------------------------------------------===//

Status RunSwitchExternalAggregation(
    BufferManager &buffer_manager, DataSource &source,
    const std::vector<idx_t> &group_columns,
    const std::vector<AggregateRequest> &aggregates, DataSink &output,
    TaskExecutor &executor, const SwitchExternalConfig &config,
    BaselineOutcome *outcome) {
  auto start = std::chrono::steady_clock::now();
  BaselineOutcome in_memory_outcome;
  Status in_memory = RunInMemoryAggregation(
      buffer_manager, source, group_columns, aggregates, output, executor,
      config.in_memory, &in_memory_outcome);
  if (in_memory.ok() || !IsMemoryFailure(in_memory)) {
    if (outcome) {
      *outcome = in_memory_outcome;
      outcome->seconds = SecondsSince(start);
    }
    return in_memory;
  }
  // Out of memory: restart the whole query with the traditional disk-based
  // algorithm (this restart + algorithm switch is the performance cliff).
  SSAGG_RETURN_NOT_OK(output.Reset());
  SSAGG_RETURN_NOT_OK(source.Rewind());
  SSAGG_ASSIGN_OR_RETURN(
      auto sort_agg,
      ExternalSortAggregate::Create(buffer_manager, source.Types(),
                                    group_columns, aggregates, config.sort));
  Status status = executor.RunPipeline(source, *sort_agg);
  if (status.ok()) {
    status = sort_agg->EmitResults(output, executor);
  }
  if (outcome) {
    outcome->seconds = SecondsSince(start);
    outcome->completed = status.ok();
    outcome->aborted = !status.ok() && IsMemoryFailure(status);
    outcome->switched_to_external = true;
  }
  return status;
}

//===----------------------------------------------------------------------===//
// ClickHouse-model: two-level hash table with partition spilling
//===----------------------------------------------------------------------===//

struct TwoLevelSpillAggregate::LocalState : public LocalSinkState {
  std::unique_ptr<GroupedAggregateHashTable> ht;
};

Result<std::unique_ptr<TwoLevelSpillAggregate>> TwoLevelSpillAggregate::Create(
    BufferManager &buffer_manager, std::vector<LogicalTypeId> input_types,
    std::vector<idx_t> group_columns, std::vector<AggregateRequest> aggregates,
    Config config) {
  SSAGG_ASSIGN_OR_RETURN(
      auto row_layout,
      AggregateRowLayout::Build(input_types, group_columns, aggregates));
  std::unique_ptr<TwoLevelSpillAggregate> op(new TwoLevelSpillAggregate(
      buffer_manager, std::move(row_layout), config));
  {
    // The operator is not published yet; the lock is uncontended and taken
    // only to satisfy the capability analysis.
    ScopedLock guard(op->lock_);
    op->partition_runs_.resize(idx_t(1) << config.radix_bits);
  }
  SSAGG_RETURN_NOT_OK(
      buffer_manager.fs().CreateDirectories(config.temp_directory));
  return op;
}

TwoLevelSpillAggregate::~TwoLevelSpillAggregate() { RemoveRunFiles(); }

void TwoLevelSpillAggregate::RemoveRunFiles() {
  ScopedLock guard(lock_);
  for (auto &runs : partition_runs_) {
    for (const auto &run : runs) {
      (void)buffer_manager_.fs().RemoveFile(run.path);
    }
    runs.clear();
  }
}

Result<std::unique_ptr<LocalSinkState>> TwoLevelSpillAggregate::InitLocal() {
  auto state = std::make_unique<LocalState>();
  GroupedAggregateHashTable::Config ht_config;
  ht_config.capacity = config_.phase1_capacity;
  ht_config.radix_bits = config_.radix_bits;
  ht_config.resizable = true;  // ClickHouse grows its table, never resets
  SSAGG_ASSIGN_OR_RETURN(
      state->ht, GroupedAggregateHashTable::Create(buffer_manager_,
                                                   row_layout_, ht_config));
  return std::unique_ptr<LocalSinkState>(std::move(state));
}

Status TwoLevelSpillAggregate::SpillLocal(LocalState &local) {
  spilled_.store(true, std::memory_order_relaxed);
  auto &data = local.ht->data();
  for (idx_t p = 0; p < data.PartitionCount(); p++) {
    if (data.partition(p).Count() == 0) {
      continue;
    }
    idx_t run_id = next_run_id_.fetch_add(1);
    std::string path = config_.temp_directory + "/ssagg_chm_run_" +
                       run_token_ + "_" + std::to_string(run_id) + ".tmp";
    RunWriter writer(row_layout_.layout, path, buffer_manager_.fs());
    // Serialize every row of the partition (states included).
    Status write_status = writer.Open();
    if (write_status.ok()) {
      SSAGG_RETURN_NOT_OK(data.ForEachRowInPartition(p, [&](data_ptr_t row) {
        if (write_status.ok()) {
          write_status = writer.WriteRow(row);
        }
      }));
    }
    if (write_status.ok()) {
      write_status = writer.Finish();
    }
    if (!write_status.ok()) {
      // The run was never registered; remove its partial file.
      (void)buffer_manager_.fs().RemoveFile(path);
      return write_status;
    }
    spilled_bytes_.fetch_add(writer.BytesWritten());
    ScopedLock guard(lock_);
    partition_runs_[p].push_back(RunInfo{path, writer.RowCount()});
  }
  local.ht->ClearPointerTable();
  data.Reset();
  return Status::OK();
}

Status TwoLevelSpillAggregate::Sink(DataChunk &chunk, LocalSinkState &state) {
  auto &local = static_cast<LocalState &>(state);
  SSAGG_RETURN_NOT_OK(local.ht->AddChunk(chunk));
  idx_t threshold = static_cast<idx_t>(buffer_manager_.memory_limit() *
                                       config_.spill_threshold_ratio);
  if (buffer_manager_.memory_used() > threshold) {
    SSAGG_RETURN_NOT_OK(SpillLocal(local));
  }
  return Status::OK();
}

Status TwoLevelSpillAggregate::Combine(LocalSinkState &state) {
  auto &local = static_cast<LocalState &>(state);
  local.ht->ClearPointerTable();
  ScopedLock guard(lock_);
  if (!global_data_) {
    global_data_ = std::make_unique<PartitionedTupleData>(
        buffer_manager_, row_layout_.layout, config_.radix_bits);
  }
  global_data_->Combine(local.ht->data());
  local.ht.reset();
  return Status::OK();
}

Status TwoLevelSpillAggregate::AggregatePartition(PartitionedTupleData &data,
                                                  idx_t partition_idx,
                                                  DataSink &output,
                                                  TaskExecutor &executor) {
  std::vector<RunInfo> runs;
  {
    ScopedLock guard(lock_);
    runs = partition_runs_[partition_idx];
  }
  TupleDataCollection &in_memory = data.partition(partition_idx);
  if (runs.empty() && in_memory.Count() == 0) {
    return Status::OK();
  }
  GroupedAggregateHashTable::Config ht_config;
  ht_config.capacity = config_.phase2_initial_capacity;
  ht_config.radix_bits = 0;
  ht_config.resizable = true;
  SSAGG_ASSIGN_OR_RETURN(
      auto ht, GroupedAggregateHashTable::Create(buffer_manager_, row_layout_,
                                                 ht_config));

  DataChunk layout_chunk(row_layout_.layout.Types());
  std::vector<data_ptr_t> src_rows;
  src_rows.reserve(kVectorSize);

  // Merge the in-memory remainder.
  {
    std::vector<data_ptr_t> ptrs(kVectorSize);
    TupleDataScanState scan;
    in_memory.InitScan(scan, /*destroy_after_scan=*/true);
    while (true) {
      SSAGG_ASSIGN_OR_RETURN(
          bool more,
          in_memory.Scan(scan, ht->ProbeColumns(), layout_chunk, ptrs.data()));
      if (!more) {
        break;
      }
      SSAGG_RETURN_NOT_OK(executor.CheckDeadline());
      SSAGG_RETURN_NOT_OK(ht->CombineSourceChunk(layout_chunk, ptrs.data()));
    }
  }
  // Merge the spilled runs: every row pays a deserialize.
  for (const auto &run : runs) {
    RunReader reader(row_layout_.layout, run.path, run.rows,
                     buffer_manager_.fs());
    SSAGG_RETURN_NOT_OK(reader.Open());
    while (true) {
      src_rows.clear();
      SSAGG_ASSIGN_OR_RETURN(idx_t n,
                             reader.ReadBatch(kVectorSize, src_rows));
      if (n == 0) {
        break;
      }
      SSAGG_RETURN_NOT_OK(executor.CheckDeadline());
      reader.GatherBatch(src_rows, ht->ProbeColumns(), layout_chunk);
      SSAGG_RETURN_NOT_OK(
          ht->CombineSourceChunk(layout_chunk, src_rows.data()));
    }
    SSAGG_RETURN_NOT_OK(reader.Remove());
  }
  {
    ScopedLock guard(lock_);
    partition_runs_[partition_idx].clear();
  }

  ht->ClearPointerTable();
  SSAGG_ASSIGN_OR_RETURN(auto out_local, output.InitLocal());
  DataChunk out(OutputTypes());
  TupleDataCollection &result = ht->data().partition(0);
  TupleDataScanState result_scan;
  result.InitScan(result_scan, /*destroy_after_scan=*/true);
  std::vector<data_ptr_t> ptrs(kVectorSize);
  DataChunk rows;
  while (true) {
    SSAGG_ASSIGN_OR_RETURN(bool more,
                           result.Scan(result_scan, {}, rows, ptrs.data()));
    if (!more) {
      break;
    }
    ht->FinalizeChunk(ptrs.data(), rows.size(), out);
    SSAGG_RETURN_NOT_OK(output.Sink(out, *out_local));
  }
  return output.Combine(*out_local);
}

Status TwoLevelSpillAggregate::EmitResults(DataSink &output,
                                           TaskExecutor &executor) {
  // Resolve the merged partition set once under the lock; the partition
  // tasks then work on disjoint partitions of it.
  PartitionedTupleData *data;
  {
    ScopedLock guard(lock_);
    data = global_data_.get();
  }
  if (data == nullptr) {
    return Status::OK();
  }
  std::vector<std::function<Status()>> tasks;
  for (idx_t p = 0; p < data->PartitionCount(); p++) {
    tasks.push_back([this, data, p, &output, &executor]() {
      return AggregatePartition(*data, p, output, executor);
    });
  }
  return executor.RunTasks(tasks);
}

Status RunSpillPartitionAggregation(
    BufferManager &buffer_manager, DataSource &source,
    const std::vector<idx_t> &group_columns,
    const std::vector<AggregateRequest> &aggregates, DataSink &output,
    TaskExecutor &executor, TwoLevelSpillAggregate::Config config,
    BaselineOutcome *outcome) {
  auto start = std::chrono::steady_clock::now();
  bool restore = buffer_manager.spill_temporary();
  // The model manages its own spilling; the pool must not page it out.
  buffer_manager.SetSpillTemporary(false);
  Status status;
  std::unique_ptr<TwoLevelSpillAggregate> agg;
  {
    auto res = TwoLevelSpillAggregate::Create(buffer_manager, source.Types(),
                                              group_columns, aggregates,
                                              config);
    if (res.ok()) {
      agg = res.MoveValue();
    } else {
      status = res.status();
    }
  }
  if (status.ok()) {
    status = executor.RunPipeline(source, *agg);
  }
  if (status.ok()) {
    status = agg->EmitResults(output, executor);
  }
  buffer_manager.SetSpillTemporary(restore);
  if (outcome) {
    outcome->seconds = SecondsSince(start);
    outcome->completed = status.ok();
    outcome->aborted = !status.ok() && (status.IsOutOfMemory() ||
                                        status.IsAborted());
    outcome->spilled_partitions = agg && agg->Spilled();
  }
  if (!status.ok() && status.IsOutOfMemory()) {
    return Status::Aborted("partition merge exceeded the memory limit: " +
                           status.message());
  }
  return status;
}

}  // namespace ssagg
