#include "sort/external_sort_aggregate.h"

#include <algorithm>
#include <cstring>
#include <queue>

#include "common/string_heap.h"
#include "observe/flight_recorder.h"
#include "observe/metrics.h"
#include "sort/row_compare.h"

namespace ssagg {

namespace {
constexpr idx_t kArenaPageSize = 256 * 1024;
constexpr idx_t kMergeBatchRows = 1024;
}  // namespace

/// Thread-local run arena: plain (non-paged, buffer-manager-accounted)
/// memory holding unsorted rows in the run layout.
struct ExternalSortAggregate::LocalState : public LocalSinkState {
  std::vector<std::unique_ptr<data_t[]>> pages;
  idx_t page_used = 0;
  StringHeap heap;
  std::vector<data_ptr_t> rows;
  idx_t reserved_bytes = 0;
  BufferManager *buffer_manager = nullptr;

  ~LocalState() override {
    if (buffer_manager != nullptr && reserved_bytes > 0) {
      buffer_manager->FreeExternalMemory(reserved_bytes);
    }
  }

  idx_t UsedBytes(idx_t row_width) const {
    return rows.size() * row_width + heap.SizeInBytes();
  }

  void Clear() {
    pages.clear();
    page_used = 0;
    heap.Reset();
    rows.clear();
  }
};

Result<std::unique_ptr<ExternalSortAggregate>> ExternalSortAggregate::Create(
    BufferManager &buffer_manager, std::vector<LogicalTypeId> input_types,
    std::vector<idx_t> group_columns, std::vector<AggregateRequest> aggregates,
    Config config) {
  if (group_columns.empty()) {
    return Status::InvalidArgument("grouped aggregation needs group columns");
  }
  std::unique_ptr<ExternalSortAggregate> op(
      new ExternalSortAggregate(buffer_manager, input_types, config));
  op->group_count_ = group_columns.size();

  std::vector<LogicalTypeId> run_types;
  for (idx_t col : group_columns) {
    if (col >= input_types.size()) {
      return Status::InvalidArgument("group column index out of range");
    }
    run_types.push_back(input_types[col]);
    op->run_input_columns_.push_back(col);
  }
  idx_t state_width = 0;
  for (const auto &req : aggregates) {
    AggregateObject obj;
    obj.request = req;
    if (req.kind == AggregateKind::kAnyValue) {
      obj.sticky = true;
      obj.layout_column = run_types.size();
      obj.function.kind = req.kind;
      obj.function.input_type = input_types[req.input_column];
      obj.function.result_type = obj.function.input_type;
      op->aggregate_run_columns_.push_back(run_types.size());
      run_types.push_back(input_types[req.input_column]);
      op->run_input_columns_.push_back(req.input_column);
    } else {
      LogicalTypeId input_type = LogicalTypeId::kInt64;
      idx_t run_col = kInvalidIndex;
      if (req.input_column != kInvalidIndex) {
        input_type = input_types[req.input_column];
        run_col = run_types.size();
        run_types.push_back(input_type);
        op->run_input_columns_.push_back(req.input_column);
      }
      SSAGG_ASSIGN_OR_RETURN(obj.function,
                             GetAggregateFunction(req.kind, input_type));
      obj.state_offset = state_width;
      state_width += obj.function.state_width;
      op->aggregate_run_columns_.push_back(run_col);
    }
    op->aggregates_.push_back(obj);
  }
  op->total_state_width_ = state_width;
  op->run_layout_.Initialize(run_types);
  SSAGG_RETURN_NOT_OK(
      buffer_manager.fs().CreateDirectories(config.temp_directory));
  return op;
}

ExternalSortAggregate::~ExternalSortAggregate() { RemoveRunFiles(); }

void ExternalSortAggregate::RemoveRunFiles() {
  ScopedLock guard(lock_);
  for (const auto &run : runs_) {
    (void)buffer_manager_.fs().RemoveFile(run.path);
  }
  runs_.clear();
}

idx_t ExternalSortAggregate::RunCount() const {
  ScopedLock guard(lock_);
  return runs_.size();
}

std::vector<LogicalTypeId> ExternalSortAggregate::OutputTypes() const {
  std::vector<LogicalTypeId> types;
  for (idx_t g = 0; g < group_count_; g++) {
    types.push_back(run_layout_.ColumnType(g));
  }
  for (const auto &agg : aggregates_) {
    types.push_back(agg.function.result_type);
  }
  return types;
}

Result<std::unique_ptr<LocalSinkState>> ExternalSortAggregate::InitLocal() {
  auto state = std::make_unique<LocalState>();
  // Account the run budget against the unified memory pool up front.
  SSAGG_RETURN_NOT_OK(
      buffer_manager_.ReserveExternalMemory(config_.run_memory_bytes));
  state->buffer_manager = &buffer_manager_;
  state->reserved_bytes = config_.run_memory_bytes;
  return std::unique_ptr<LocalSinkState>(std::move(state));
}

Status ExternalSortAggregate::Sink(DataChunk &chunk, LocalSinkState &state) {
  auto &local = static_cast<LocalState &>(state);
  const idx_t row_width = run_layout_.RowWidth();
  SSAGG_ASSERT(row_width <= kArenaPageSize);
  for (idx_t r = 0; r < chunk.size(); r++) {
    if (local.pages.empty() || local.page_used + row_width > kArenaPageSize) {
      local.pages.push_back(std::make_unique<data_t[]>(kArenaPageSize));
      local.page_used = 0;
    }
    data_ptr_t row = local.pages.back().get() + local.page_used;
    local.page_used += row_width;

    std::memset(row, 0xFF, run_layout_.ValidityBytes());
    for (idx_t rc = 0; rc < run_layout_.ColumnCount(); rc++) {
      const Vector &vec = chunk.column(run_input_columns_[rc]);
      idx_t offset = run_layout_.ColumnOffset(rc);
      idx_t width = TypeWidth(run_layout_.ColumnType(rc));
      if (!vec.validity().RowIsValid(r)) {
        run_layout_.RowSetColumnValid(row, rc, false);
        std::memset(row + offset, 0, width);
        continue;
      }
      if (TypeIsVarSize(run_layout_.ColumnType(rc))) {
        // Copy the string into the arena heap so the row owns its data.
        string_t s = vec.Values<string_t>()[r];
        string_t stored = local.heap.Add(s.View());
        std::memcpy(row + offset, &stored, sizeof(string_t));
      } else {
        std::memcpy(row + offset, vec.data() + r * width, width);
      }
    }
    local.rows.push_back(row);
  }
  if (local.UsedBytes(row_width) >= config_.run_memory_bytes) {
    SSAGG_RETURN_NOT_OK(SortAndSpill(local));
  }
  return Status::OK();
}

Status ExternalSortAggregate::SortAndSpill(LocalState &local) {
  if (local.rows.empty()) {
    return Status::OK();
  }
  TraceSpan span("sort.spill_run", "sort", local.rows.size());
  const TupleDataLayout &layout = run_layout_;
  const idx_t ncols = group_count_;
  std::sort(local.rows.begin(), local.rows.end(),
            [&layout, ncols](const_data_ptr_t a, const_data_ptr_t b) {
              return CompareLayoutRows(layout, ncols, a, b) < 0;
            });
  idx_t run_id = next_run_id_.fetch_add(1);
  std::string path = config_.temp_directory + "/ssagg_sort_run_" +
                     run_token_ + "_" + std::to_string(run_id) + ".tmp";
  RunWriter writer(run_layout_, path, buffer_manager_.fs(),
                   &buffer_manager_.io_backend(),
                   buffer_manager_.spill_compression());
  Status write_status = writer.Open();
  if (write_status.ok()) {
    for (data_ptr_t row : local.rows) {
      write_status = writer.WriteRow(row);
      if (!write_status.ok()) {
        break;
      }
    }
  }
  if (write_status.ok()) {
    write_status = writer.Finish();
  }
  if (!write_status.ok()) {
    // Never leak a partial run file: it was not registered in runs_ yet.
    (void)buffer_manager_.fs().RemoveFile(path);
    return write_status;
  }
  run_bytes_.fetch_add(writer.BytesWritten());
  {
    MetricsRegistry &registry = MetricsRegistry::Global();
    registry.Add(registry.KeyId("sort.runs"), 1);
    registry.Add(registry.KeyId("sort.run_rows"), local.rows.size());
    registry.Add(registry.KeyId("sort.run_bytes"), writer.BytesWritten());
  }
  {
    ScopedLock guard(lock_);
    runs_.push_back(RunInfo{path, writer.RowCount()});
  }
  local.Clear();
  return Status::OK();
}

Status ExternalSortAggregate::Combine(LocalSinkState &state) {
  auto &local = static_cast<LocalState &>(state);
  // Classic behaviour: the final partial run is also written out before the
  // merge phase.
  return SortAndSpill(local);
}

Status ExternalSortAggregate::EmitResults(DataSink &output,
                                          TaskExecutor &executor) {
  // Snapshot the registered runs under the lock; the merge phase itself is
  // single-threaded and no Sink can race with it, but the snapshot keeps
  // the locking discipline uniform (and the capability analysis satisfied).
  std::vector<RunInfo> runs;
  {
    ScopedLock guard(lock_);
    runs = runs_;
  }
  if (runs.empty()) {
    return Status::OK();
  }
  TraceSpan span("sort.merge", "sort", runs.size());
  merge_fan_in_ = runs.size();
  struct MergeSource {
    std::unique_ptr<RunReader> reader;
    std::vector<data_ptr_t> rows;
    DataChunk chunk;
    idx_t pos = 0;
  };
  // Account the merge working set (per-run I/O buffer + batch arena).
  idx_t merge_bytes = runs.size() * (2ULL << 20);
  Status reserve = buffer_manager_.ReserveExternalMemory(merge_bytes);
  if (!reserve.ok()) {
    return Status::Aborted(
        "sort-merge aggregation cannot fit its merge buffers in memory: " +
        reserve.message());
  }

  std::vector<MergeSource> sources(runs.size());
  auto cleanup = [&]() {
    buffer_manager_.FreeExternalMemory(merge_bytes);
  };
  auto fill = [&](MergeSource &src) -> Status {
    src.rows.clear();
    src.pos = 0;
    SSAGG_ASSIGN_OR_RETURN(idx_t n,
                           src.reader->ReadBatch(kMergeBatchRows, src.rows));
    (void)n;
    return Status::OK();
  };
  Status status;  // first error; cleanup runs on all paths below
  for (idx_t i = 0; i < runs.size() && status.ok(); i++) {
    sources[i].reader = std::make_unique<RunReader>(
        run_layout_, runs[i].path, runs[i].rows, buffer_manager_.fs(),
        &buffer_manager_.io_backend());
    sources[i].chunk.Initialize(run_layout_.Types());
    status = sources[i].reader->Open();
    if (status.ok()) {
      status = fill(sources[i]);
    }
    if (status.ok() && !sources[i].rows.empty()) {
      sources[i].reader->GatherBatch(sources[i].rows, sources[i].chunk);
    }
  }
  if (!status.ok()) {
    RemoveRunFiles();
    cleanup();
    return status;
  }

  // Min-heap of source indices ordered by their current row's group key.
  auto heap_cmp = [&](idx_t a, idx_t b) {
    return CompareLayoutRows(run_layout_, group_count_,
                             sources[a].rows[sources[a].pos],
                             sources[b].rows[sources[b].pos]) > 0;
  };
  std::priority_queue<idx_t, std::vector<idx_t>, decltype(heap_cmp)> heap(
      heap_cmp);
  for (idx_t i = 0; i < sources.size(); i++) {
    if (!sources[i].rows.empty()) {
      heap.push(i);
    }
  }

  auto out_local_result = output.InitLocal();
  if (!out_local_result.ok()) {
    RemoveRunFiles();
    cleanup();
    return out_local_result.status();
  }
  auto out_local = std::move(out_local_result).MoveValue();
  DataChunk out(OutputTypes());
  std::vector<data_t> state_buffer(std::max<idx_t>(total_state_width_, 1));
  std::vector<data_t> current_group(run_layout_.RowWidth());
  StringHeap current_heap;  // owns the current group's string keys
  bool has_group = false;
  idx_t out_count = 0;
  idx_t merged_rows = 0;

  // Writes the group's aggregate results at out row `out_count` and bumps
  // the row count.
  auto close_group = [&]() -> Status {
    idx_t result_col = group_count_;
    for (const auto &agg : aggregates_) {
      if (!agg.sticky) {
        agg.function.finalize(state_buffer.data() + agg.state_offset,
                              out.column(result_col), out_count);
      }
      result_col++;
    }
    out_count++;
    if (out_count == kVectorSize) {
      out.SetCount(out_count);
      SSAGG_RETURN_NOT_OK(output.Sink(out, *out_local));
      out.Reset();
      out_count = 0;
    }
    return Status::OK();
  };

  // Copies the group key (and ANY_VALUE results) of the given row into the
  // output at out_count and into current_group for equality checks.
  auto open_group = [&](const MergeSource &src) {
    const_data_ptr_t row = src.rows[src.pos];
    std::memcpy(current_group.data(), row, run_layout_.RowWidth());
    current_heap.Reset();
    // Re-own string keys: the source batch arena is transient.
    for (idx_t c : run_layout_.VarSizeColumns()) {
      if (c >= group_count_ || !run_layout_.RowIsColumnValid(row, c)) {
        continue;
      }
      string_t s;
      std::memcpy(&s, row + run_layout_.ColumnOffset(c), sizeof(string_t));
      if (!s.IsInlined()) {
        string_t owned = current_heap.Add(s.View());
        std::memcpy(current_group.data() + run_layout_.ColumnOffset(c),
                    &owned, sizeof(string_t));
      }
    }
    std::memset(state_buffer.data(), 0, state_buffer.size());
    // Group key columns -> output.
    for (idx_t g = 0; g < group_count_; g++) {
      Vector &dest = out.column(g);
      const Vector &srcv = src.chunk.column(g);
      if (!srcv.validity().RowIsValid(src.pos)) {
        dest.validity().SetInvalid(out_count);
        std::memset(dest.data() + out_count * dest.width(), 0, dest.width());
      } else if (dest.type() == LogicalTypeId::kVarchar) {
        dest.SetString(out_count, srcv.Values<string_t>()[src.pos].View());
      } else {
        std::memcpy(dest.data() + out_count * dest.width(),
                    srcv.data() + src.pos * dest.width(), dest.width());
      }
    }
    // ANY_VALUE results (first row of the group wins).
    idx_t result_col = group_count_;
    for (const auto &agg : aggregates_) {
      if (agg.sticky) {
        Vector &dest = out.column(result_col);
        const Vector &srcv = src.chunk.column(agg.layout_column);
        if (!srcv.validity().RowIsValid(src.pos)) {
          dest.validity().SetInvalid(out_count);
          std::memset(dest.data() + out_count * dest.width(), 0,
                      dest.width());
        } else if (dest.type() == LogicalTypeId::kVarchar) {
          dest.SetString(out_count, srcv.Values<string_t>()[src.pos].View());
        } else {
          std::memcpy(dest.data() + out_count * dest.width(),
                      srcv.data() + src.pos * dest.width(), dest.width());
        }
      }
      result_col++;
    }
    has_group = true;
  };

  while (!heap.empty() && status.ok()) {
    if (++merged_rows % 16384 == 0) {
      status = executor.CheckDeadline();
      if (!status.ok()) {
        break;
      }
    }
    idx_t si = heap.top();
    heap.pop();
    MergeSource &src = sources[si];
    const_data_ptr_t row = src.rows[src.pos];
    if (!has_group ||
        !LayoutRowsEqual(run_layout_, group_count_, row,
                         current_group.data())) {
      if (has_group) {
        status = close_group();
        if (!status.ok()) {
          break;
        }
      }
      open_group(src);
    }
    // Fold the row into the group states.
    for (idx_t k = 0; k < aggregates_.size(); k++) {
      const auto &agg = aggregates_[k];
      if (agg.sticky) {
        continue;
      }
      data_ptr_t state = state_buffer.data() + agg.state_offset;
      const Vector *arg = aggregate_run_columns_[k] == kInvalidIndex
                              ? nullptr
                              : &src.chunk.column(aggregate_run_columns_[k]);
      idx_t sel = src.pos;
      agg.function.update(arg, &sel, &state, 1);
    }
    // Advance the source.
    src.pos++;
    if (src.pos >= src.rows.size()) {
      auto st = fill(src);
      if (!st.ok()) {
        status = st;
        break;
      }
      if (!src.rows.empty()) {
        src.reader->GatherBatch(src.rows, src.chunk);
        heap.push(si);
      }
    } else {
      heap.push(si);
    }
  }
  if (status.ok() && has_group) {
    status = close_group();
  }
  if (status.ok() && out_count > 0) {
    out.SetCount(out_count);
    status = output.Sink(out, *out_local);
  }
  if (status.ok()) {
    status = output.Combine(*out_local);
  }
  for (auto &src : sources) {
    if (src.reader) {
      (void)src.reader->Remove();
    }
  }
  {
    ScopedLock guard(lock_);
    runs_.clear();
  }
  cleanup();
  merged_rows_ = merged_rows;
  {
    MetricsRegistry &registry = MetricsRegistry::Global();
    registry.Add(registry.KeyId("sort.merge_fan_in"), merge_fan_in_);
    registry.Add(registry.KeyId("sort.merged_rows"), merged_rows);
  }
  return status;
}

}  // namespace ssagg
