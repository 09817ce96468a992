#include "workload.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "trace.h"

namespace perfbench {

using ssagg::AggregateKind;
using ssagg::BufferManager;
using ssagg::DataChunk;
using ssagg::DataSink;
using ssagg::DataSource;
using ssagg::idx_t;
using ssagg::Result;
using ssagg::Status;
namespace tpch = ssagg::tpch;

namespace {

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

QueryShape TableIShape(int id, bool wide) {
  for (const auto &grouping : tpch::TableIGroupings()) {
    if (grouping.id == id) {
      auto q = tpch::BuildGroupingQuery(grouping, wide);
      return {"G" + std::to_string(id), q.projection, q.group_columns,
              q.aggregates};
    }
  }
  return {};
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// Compares Q1's materialized rows (flag, status, count, sum_qty,
/// sum_price, avg_discount) with the reference groups.
std::string CheckQ1(const std::vector<std::vector<ssagg::Value>> &rows,
                    const Reference &ref) {
  if (rows.size() != ref.q1_groups) {
    return "Q1: " + std::to_string(rows.size()) + " groups, expected " +
           std::to_string(ref.q1_groups);
  }
  for (const auto &row : rows) {
    const Q1Group *match = nullptr;
    for (uint32_t g = 0; g < ref.q1_groups; g++) {
      if (row[0].GetString() == std::string(1, ref.q1[g].returnflag) &&
          row[1].GetString() == std::string(1, ref.q1[g].linestatus)) {
        match = &ref.q1[g];
      }
    }
    if (match == nullptr || row[2].GetInt64() != match->count ||
        row[3].GetInt64() != match->sum_quantity ||
        !Near(row[4].GetDouble(),
              static_cast<double>(match->sum_price_cents) / 100) ||
        !Near(row[5].GetDouble(),
              static_cast<double>(match->sum_discount_hundredths) / 100 /
                  static_cast<double>(match->count))) {
      return "Q1: group " + row[0].GetString() + row[1].GetString() +
             " differs from the reference";
    }
  }
  return "";
}

std::string CheckChecksum(const Checksum &got, const Checksum &want,
                          const std::string &name) {
  if (got == want) {
    return "";
  }
  return name + ": " + std::to_string(got.rows) +
         " rows, checksum " + std::to_string(got.sum) + "; expected " +
         std::to_string(want.rows) + " rows, checksum " +
         std::to_string(want.sum);
}

/// State shared by all workloads: one long-lived pool and executor.
class EngineWorkload : public Workload {
 public:
  EngineWorkload(const RunConfig &config, const Reference &reference,
                 const std::string &dir, ssagg::FileSystem &fs)
      : config_(config), reference_(reference), executor_(kThreads) {
    temp_dir_ = dir + "/tmp";
    bm_ = std::make_unique<BufferManager>(temp_dir_, config.memory_limit,
                                          config.buffer, fs);
  }

  BufferManager &buffer_manager() override { return *bm_; }
  ssagg::TaskExecutor &executor() override { return executor_; }

 protected:
  /// Runs one GROUP BY through RunGroupedAggregation and checks it.
  QueryRun RunAggregation(int shape_idx, const QueryShape &shape,
                          DataSource &source, const char *source_span,
                          bool traced) {
    QueryRun run;
    run.shape = shape_idx;
    run.input_rows = source.EstimatedRowCount();
    const bool q1 = shape.name == "Q1";
    ChecksumSink checksum;
    ssagg::MaterializedCollector rows;
    DataSink &collector = q1 ? static_cast<DataSink &>(rows) : checksum;
    TimingSource timed_source(source, source_span);
    TimingSink timed_sink(collector, "core.emit");
    ssagg::QueryProfile profile;

    run.bm_before = bm_->Snapshot();
    run.exec_before = executor_.stats();
    auto start = std::chrono::steady_clock::now();
    Result<ssagg::HashAggregateStats> result = [&] {
      ScopedSpan span("core.aggregate");
      return ssagg::RunGroupedAggregation(
          *bm_, traced ? timed_source : source, shape.group_columns,
          shape.aggregates, traced ? timed_sink : collector, executor_,
          config_.aggregate, traced ? &profile : nullptr);
    }();
    run.seconds = Since(start);
    run.bm_after = bm_->Snapshot();
    run.exec_after = executor_.stats();
    if (!result.ok()) {
      run.error = shape.name + ": " + result.status().ToString();
      return run;
    }
    run.agg = result.value();
    run.pipeline_seconds = run.agg.phase1_seconds;
    if (run.agg.planner_decided) {
      run.strategy = ssagg::AggregateStrategyName(run.agg.planner.strategy);
      run.direct_index = run.agg.planner.direct_index;
    }
    run.histograms = profile.histograms;
    run.error = q1 ? CheckQ1(rows.rows(), reference_)
                   : CheckChecksum(checksum.Result(),
                                   reference_.shapes[shape_idx],
                                   shape.name);
    run.ok = run.error.empty();
    return run;
  }

  RunConfig config_;
  Reference reference_;
  ssagg::TaskExecutor executor_;
  std::unique_ptr<BufferManager> bm_;
};

/// groupby_inmem: four group-bys over the generator in a 1 GiB pool.
class InmemWorkload : public EngineWorkload {
 public:
  using EngineWorkload::EngineWorkload;

  int ShapeCount() const override {
    return static_cast<int>(shapes_.size());
  }
  const char *ShapeName(int shape) const override {
    return shapes_[shape].name.c_str();
  }
  QueryRun Run(int shape, bool traced) override {
    auto source = gen_.MakeSource(shapes_[shape].projection);
    return RunAggregation(shape, shapes_[shape], *source, "tpch.get_data",
                          traced);
  }

 private:
  tpch::LineitemGenerator gen_{kScaleFactor};
  std::vector<QueryShape> shapes_ = InmemShapes();
};

/// groupby_spill_table: wide G13 over a persistent table of all of
/// lineitem, through a 128 MiB pool.
class TableWorkload : public EngineWorkload {
 public:
  TableWorkload(const RunConfig &config, const Reference &reference,
                const std::string &dir, ssagg::FileSystem &fs)
      : EngineWorkload(config, reference, dir, fs),
        db_path_(dir + "/lineitem.db"),
        fs_(fs) {}

  ~TableWorkload() override {
    // Cached block handles reference the pool: drop them first.
    if (table_ != nullptr) {
      table_->ReleaseHandleCache(*bm_);
    }
    bm_.reset();
    table_.reset();
    blocks_.reset();
    (void)fs_.RemoveFile(db_path_);
  }

  Status Load() {
    SSAGG_ASSIGN_OR_RETURN(blocks_,
                           ssagg::FileBlockManager::Create(db_path_, fs_));
    table_ = std::make_unique<ssagg::DataTable>(*blocks_,
                                                tpch::LineitemSchema());
    tpch::LineitemGenerator gen(kScaleFactor);
    std::vector<idx_t> all;
    for (idx_t c = 0; c < tpch::kColumnCount; c++) {
      all.push_back(c);
    }
    DataChunk chunk(tpch::LineitemGenerator::ColumnTypes(all));
    for (idx_t start = 0; start < gen.RowCount();
         start += ssagg::kVectorSize) {
      idx_t count =
          std::min<idx_t>(ssagg::kVectorSize, gen.RowCount() - start);
      chunk.Reset();
      SSAGG_RETURN_NOT_OK(gen.FillChunk(chunk, all, start, count));
      SSAGG_RETURN_NOT_OK(table_->Append(chunk));
    }
    SSAGG_RETURN_NOT_OK(table_->FinalizeAppend());
    // A loaded table is durable before it is queried; syncing here also
    // keeps its writeback out of the timed queries.
    return blocks_->Sync();
  }

  int ShapeCount() const override { return 1; }
  const char *ShapeName(int) const override { return shape_.name.c_str(); }
  QueryRun Run(int shape, bool traced) override {
    auto source = table_->MakeScanSource(*bm_, shape_.projection);
    return RunAggregation(shape, shape_, *source, "storage.get_data", traced);
  }

  std::string Describe() const override {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "persistent table: %llu rows, %llu blocks, %.1f MiB "
                  "compressed",
                  static_cast<unsigned long long>(table_->RowCount()),
                  static_cast<unsigned long long>(table_->BlockCount()),
                  static_cast<double>(table_->CompressedBytes()) / 1048576.0);
    return line;
  }

 private:
  std::string db_path_;
  ssagg::FileSystem &fs_;
  QueryShape shape_ = WideG13Shape();
  std::unique_ptr<ssagg::FileBlockManager> blocks_;
  std::unique_ptr<ssagg::DataTable> table_;
};

/// join_spill: a 1:1 partitioned hash join of two generator projections
/// through a 128 MiB pool.
class JoinWorkload : public EngineWorkload {
 public:
  using EngineWorkload::EngineWorkload;

  int ShapeCount() const override { return 1; }
  const char *ShapeName(int) const override { return "join"; }

  QueryRun Run(int shape, bool traced) override {
    QueryRun run;
    run.shape = shape;
    auto build_columns = JoinBuildColumns();
    auto probe_columns = JoinProbeColumns();
    auto build = gen_.MakeSource(build_columns);
    auto probe = gen_.MakeSource(probe_columns);
    run.input_rows = build->EstimatedRowCount() + probe->EstimatedRowCount();
    TimingSource timed_build(*build, "tpch.get_data");
    TimingSource timed_probe(*probe, "tpch.get_data");
    ChecksumSink checksum;
    TimingSink timed_sink(checksum, "core.emit");
    std::optional<ssagg::RegistryDelta> delta;
    if (traced) {
      delta.emplace();
    }

    run.bm_before = bm_->Snapshot();
    run.exec_before = executor_.stats();
    auto start = std::chrono::steady_clock::now();
    Status status = RunJoin(traced ? static_cast<DataSource &>(timed_build)
                                   : *build,
                            traced ? static_cast<DataSource &>(timed_probe)
                                   : *probe,
                            traced ? static_cast<DataSink &>(timed_sink)
                                   : checksum,
                            &run);
    run.seconds = Since(start);
    run.bm_after = bm_->Snapshot();
    run.exec_after = executor_.stats();
    run.pipeline_seconds = run.join_build_seconds + run.join_probe_seconds;
    if (delta.has_value()) {
      ssagg::QueryProfile profile;
      delta->AddTo(profile);
      run.histograms = profile.histograms;
    }
    run.error = status.ok() ? CheckChecksum(checksum.Result(),
                                            reference_.shapes[0], "join")
                            : "join: " + status.ToString();
    run.ok = run.error.empty();
    return run;
  }

 private:
  Status RunJoin(DataSource &build, DataSource &probe, DataSink &output,
                 QueryRun *run) {
    SSAGG_ASSIGN_OR_RETURN(
        auto join, ssagg::PhysicalHashJoin::Create(
                       *bm_, build.Types(), {0, 1}, probe.Types(), {0, 1},
                       config_.join));
    auto t0 = std::chrono::steady_clock::now();
    {
      ScopedSpan span("core.join_build");
      SSAGG_RETURN_NOT_OK(executor_.RunPipeline(build, join->build_sink()));
    }
    run->join_build_seconds = Since(t0);
    auto t1 = std::chrono::steady_clock::now();
    {
      ScopedSpan span("core.join_probe");
      SSAGG_RETURN_NOT_OK(executor_.RunPipeline(probe, join->probe_sink()));
    }
    run->join_probe_seconds = Since(t1);
    auto t2 = std::chrono::steady_clock::now();
    {
      ScopedSpan span("core.join_emit");
      SSAGG_RETURN_NOT_OK(join->EmitResults(output, executor_));
      join.reset();  // frees what is left of both sides
    }
    run->join_emit_seconds = Since(t2);
    return Status::OK();
  }

  tpch::LineitemGenerator gen_{kScaleFactor};
};

}  // namespace

std::vector<QueryShape> InmemShapes() {
  QueryShape q1{"Q1",
                {tpch::kReturnFlag, tpch::kLineStatus, tpch::kQuantity,
                 tpch::kExtendedPrice, tpch::kDiscount},
                {0, 1},
                {{AggregateKind::kCountStar, ssagg::kInvalidIndex},
                 {AggregateKind::kSum, 2},
                 {AggregateKind::kSum, 3},
                 {AggregateKind::kAvg, 4}}};
  return {q1, TableIShape(8, false), TableIShape(6, false),
          TableIShape(9, false)};
}

QueryShape WideG13Shape() { return TableIShape(13, true); }

std::vector<idx_t> JoinBuildColumns() {
  return {tpch::kOrderKey, tpch::kLineNumber, tpch::kShipInstruct,
          tpch::kComment};
}

std::vector<idx_t> JoinProbeColumns() {
  return {tpch::kOrderKey, tpch::kLineNumber, tpch::kExtendedPrice};
}

Result<RunConfig> ConfigFor(const std::string &workload) {
  RunConfig config;
  if (workload == "groupby_inmem") {
    config.memory_limit = 1ULL << 30;
  } else if (workload == "groupby_spill_table" || workload == "join_spill") {
    config.memory_limit = 128ULL << 20;
  } else {
    return Status::InvalidArgument("unknown workload " + workload);
  }
  // Set field by field so that neither the environment nor a change of a
  // library default changes what the benchmark runs.
  ssagg::BufferManagerOptions &bm = config.buffer;
  bm.policy = ssagg::EvictionPolicy::kMixed;
  bm.io_backend = ssagg::IoBackendKind::kSync;
  bm.io_threads = 4;
  bm.spill_compression = false;
  bm.spill_batch = 0;
  bm.prefetch = true;

  ssagg::HashAggregateConfig &agg = config.aggregate;
  agg.phase1_capacity = 1ULL << 15;
  agg.radix_bits = 5;
  agg.phase2_initial_capacity = 1024;
  agg.use_salt = true;
  agg.reset_fill_ratio = 2.0 / 3.0;
  agg.strategy = ssagg::AggregateStrategy::kAdaptive;
  agg.planner_sample_rows = 32768;
  agg.enable_direct_index = true;
  agg.expected_input_rows = ssagg::kInvalidIndex;
  agg.early_aggregation = ssagg::EarlyAggMode::kAuto;
  agg.early_aggregation_ratio = 0.8;
  agg.early_aggregation_min_rows = 1ULL << 16;

  config.join.radix_bits = 4;
  config.join.build_initial_capacity = 1024;
  return config;
}

ssagg::Json ConfigJson(const RunConfig &config) {
  using ssagg::Json;
  auto u = [](uint64_t v) { return Json(v); };
  Json buffer = Json::Object();
  buffer.Set("memory_limit", u(config.memory_limit));
  buffer.Set("policy", u(static_cast<uint64_t>(config.buffer.policy)));
  buffer.Set("io_backend",
             Json(ssagg::IoBackendKindName(config.buffer.io_backend)));
  buffer.Set("io_threads", u(config.buffer.io_threads));
  buffer.Set("spill_compression", Json(config.buffer.spill_compression));
  buffer.Set("spill_batch", u(config.buffer.spill_batch));
  buffer.Set("prefetch", Json(config.buffer.prefetch));
  const auto &a = config.aggregate;
  Json agg = Json::Object();
  agg.Set("phase1_capacity", u(a.phase1_capacity));
  agg.Set("radix_bits", u(a.radix_bits));
  agg.Set("phase2_initial_capacity", u(a.phase2_initial_capacity));
  agg.Set("use_salt", Json(a.use_salt));
  agg.Set("reset_fill_ratio", Json(a.reset_fill_ratio));
  agg.Set("strategy", Json(ssagg::AggregateStrategyName(a.strategy)));
  agg.Set("planner_sample_rows", u(a.planner_sample_rows));
  agg.Set("enable_direct_index", Json(a.enable_direct_index));
  agg.Set("early_aggregation",
          u(static_cast<uint64_t>(a.early_aggregation)));
  agg.Set("early_aggregation_ratio", Json(a.early_aggregation_ratio));
  agg.Set("early_aggregation_min_rows", u(a.early_aggregation_min_rows));
  Json join = Json::Object();
  join.Set("radix_bits", u(config.join.radix_bits));
  join.Set("build_initial_capacity", u(config.join.build_initial_capacity));
  Json out = Json::Object();
  out.Set("threads", u(kThreads));
  out.Set("scale_factor", Json(kScaleFactor));
  out.Set("buffer_manager", std::move(buffer));
  out.Set("aggregate", std::move(agg));
  out.Set("join", std::move(join));
  return out;
}

Result<std::unique_ptr<Workload>> MakeWorkload(const std::string &name,
                                               const RunConfig &config,
                                               const Reference &reference,
                                               const std::string &dir,
                                               ssagg::FileSystem &fs) {
  SSAGG_RETURN_NOT_OK(fs.CreateDirectories(dir));
  if (name == "groupby_inmem") {
    return std::unique_ptr<Workload>(
        new InmemWorkload(config, reference, dir, fs));
  }
  if (name == "groupby_spill_table") {
    auto workload = std::make_unique<TableWorkload>(config, reference, dir, fs);
    SSAGG_RETURN_NOT_OK(workload->Load());
    return std::unique_ptr<Workload>(std::move(workload));
  }
  if (name == "join_spill") {
    return std::unique_ptr<Workload>(
        new JoinWorkload(config, reference, dir, fs));
  }
  return Status::InvalidArgument("unknown workload " + name);
}

}  // namespace perfbench
