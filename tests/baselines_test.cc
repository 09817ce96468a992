#include "baselines/baselines.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <map>

#include "common/file_system.h"
#include "execution/collectors.h"
#include "execution/range_source.h"

namespace ssagg {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_baselines_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

std::vector<LogicalTypeId> SourceTypes() {
  return {LogicalTypeId::kInt64, LogicalTypeId::kInt64,
          LogicalTypeId::kVarchar};
}

RangeSource MakeSource(idx_t total_rows, idx_t num_groups) {
  return RangeSource(
      SourceTypes(), total_rows,
      [num_groups](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          int64_t key = static_cast<int64_t>((row * 2654435761ULL) %
                                             num_groups);
          chunk.column(0).SetValue<int64_t>(i, key);
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row));
          chunk.column(2).SetString(i,
                                    "group_label_" + std::to_string(key) +
                                        "_long_enough_to_heap");
        }
        return Status::OK();
      });
}

void CheckAggregatedResult(const MaterializedCollector &collector,
                           idx_t total_rows, idx_t num_groups) {
  ASSERT_EQ(collector.RowCount(), num_groups);
  std::map<int64_t, std::pair<int64_t, int64_t>> expected;  // sum, count
  for (idx_t row = 0; row < total_rows; row++) {
    int64_t key = static_cast<int64_t>((row * 2654435761ULL) % num_groups);
    expected[key].first += static_cast<int64_t>(row);
    expected[key].second++;
  }
  for (const auto &row : collector.rows()) {
    int64_t key = row[0].GetInt64();
    auto it = expected.find(key);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(row[1].GetInt64(), it->second.first) << "sum of " << key;
    EXPECT_EQ(row[2].GetInt64(), it->second.second) << "count of " << key;
    EXPECT_EQ(row[3].GetString(),
              "group_label_" + std::to_string(key) + "_long_enough_to_heap");
    expected.erase(it);
  }
  EXPECT_TRUE(expected.empty());
}

std::vector<AggregateRequest> TestAggregates() {
  return {{AggregateKind::kSum, 1},
          {AggregateKind::kCountStar, kInvalidIndex},
          {AggregateKind::kAnyValue, 2}};
}

//===----------------------------------------------------------------------===//
// External sort aggregation
//===----------------------------------------------------------------------===//

TEST_F(BaselinesTest, SortAggregationSingleRun) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(2);
  auto source = MakeSource(20000, 500);
  ExternalSortAggregate::Config config;
  config.temp_directory = temp_dir_;
  auto agg = ExternalSortAggregate::Create(bm, SourceTypes(), {0},
                                           TestAggregates(), config)
                 .MoveValue();
  ASSERT_TRUE(executor.RunPipeline(source, *agg).ok());
  MaterializedCollector collector;
  ASSERT_TRUE(agg->EmitResults(collector, executor).ok());
  CheckAggregatedResult(collector, 20000, 500);
}

TEST_F(BaselinesTest, SortAggregationManyRuns) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(4);
  constexpr idx_t kRows = 150000;
  constexpr idx_t kGroups = 40000;
  auto source = MakeSource(kRows, kGroups);
  ExternalSortAggregate::Config config;
  config.temp_directory = temp_dir_;
  config.run_memory_bytes = 1 << 20;  // tiny runs: force a wide merge
  auto agg = ExternalSortAggregate::Create(bm, SourceTypes(), {0},
                                           TestAggregates(), config)
                 .MoveValue();
  ASSERT_TRUE(executor.RunPipeline(source, *agg).ok());
  EXPECT_GT(agg->RunCount(), 4u);
  MaterializedCollector collector;
  ASSERT_TRUE(agg->EmitResults(collector, executor).ok());
  CheckAggregatedResult(collector, kRows, kGroups);
}

TEST_F(BaselinesTest, SortAggregationNullInputsAcrossMergeBatches) {
  // One run far longer than a merge batch: each source chunk is re-gathered
  // per batch, and a NULL of one batch must not stay NULL in the next.
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(1);
  constexpr idx_t kRows = 8000;
  constexpr idx_t kGroups = 4000;
  RangeSource source(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kRows,
      [](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          auto key = static_cast<int64_t>(row % kGroups);
          chunk.column(0).SetValue<int64_t>(i, key);
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row));
          if (key % 3 == 0) {
            chunk.column(1).validity().SetInvalid(i);
          }
        }
        return Status::OK();
      });
  ExternalSortAggregate::Config config;
  config.temp_directory = temp_dir_;
  auto agg = ExternalSortAggregate::Create(
                 bm, {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, {0},
                 {{AggregateKind::kSum, 1}}, config)
                 .MoveValue();
  ASSERT_TRUE(executor.RunPipeline(source, *agg).ok());
  MaterializedCollector collector;
  ASSERT_TRUE(agg->EmitResults(collector, executor).ok());
  ASSERT_EQ(collector.RowCount(), kGroups);
  idx_t wrong = 0;
  for (const auto &row : collector.rows()) {
    const int64_t key = row[0].GetInt64();
    const int64_t sum = 2 * key + static_cast<int64_t>(kGroups);
    const bool right =
        key % 3 == 0 ? row[1].IsNull()
                     : !row[1].IsNull() && row[1].GetInt64() == sum;
    wrong += right ? 0 : 1;
  }
  EXPECT_EQ(wrong, 0u);
}

TEST_F(BaselinesTest, SortAggregationStringKeys) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(2);
  auto source = MakeSource(30000, 300);
  ExternalSortAggregate::Config config;
  config.temp_directory = temp_dir_;
  config.run_memory_bytes = 1 << 20;
  auto agg = ExternalSortAggregate::Create(
                 bm, SourceTypes(), {2},
                 {{AggregateKind::kCountStar, kInvalidIndex}}, config)
                 .MoveValue();
  ASSERT_TRUE(executor.RunPipeline(source, *agg).ok());
  MaterializedCollector collector;
  ASSERT_TRUE(agg->EmitResults(collector, executor).ok());
  EXPECT_EQ(collector.RowCount(), 300u);
  int64_t total = 0;
  for (const auto &row : collector.rows()) {
    total += row[1].GetInt64();
  }
  EXPECT_EQ(total, 30000);
}

TEST_F(BaselinesTest, SortAggregationThinDistinct) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(2);
  auto source = MakeSource(10000, 123);
  ExternalSortAggregate::Config config;
  config.temp_directory = temp_dir_;
  auto agg = ExternalSortAggregate::Create(bm, SourceTypes(), {0}, {}, config)
                 .MoveValue();
  ASSERT_TRUE(executor.RunPipeline(source, *agg).ok());
  MaterializedCollector collector;
  ASSERT_TRUE(agg->EmitResults(collector, executor).ok());
  EXPECT_EQ(collector.RowCount(), 123u);
}

//===----------------------------------------------------------------------===//
// Umbra-model (in-memory only)
//===----------------------------------------------------------------------===//

TEST_F(BaselinesTest, InMemoryCompletesWithAmpleMemory) {
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  TaskExecutor executor(2);
  auto source = MakeSource(50000, 5000);
  MaterializedCollector collector;
  BaselineOutcome outcome;
  HashAggregateConfig config;
  config.phase1_capacity = 16384;
  Status st = RunInMemoryAggregation(bm, source, {0}, TestAggregates(),
                                     collector, executor, config, &outcome);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(outcome.completed);
  CheckAggregatedResult(collector, 50000, 5000);
  EXPECT_TRUE(bm.spill_temporary());  // flag restored
}

TEST_F(BaselinesTest, InMemoryAbortsPastTheLimit) {
  BufferManager bm(temp_dir_, 40 * kPageSize);  // 10 MiB
  TaskExecutor executor(2);
  constexpr idx_t kRows = 400000;
  auto source = MakeSource(kRows, kRows);  // all unique: huge intermediates
  CountingCollector collector;
  BaselineOutcome outcome;
  HashAggregateConfig config;
  config.phase1_capacity = 4096;
  config.radix_bits = 2;
  Status st = RunInMemoryAggregation(bm, source, {0}, TestAggregates(),
                                     collector, executor, config, &outcome);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_TRUE(outcome.aborted);
  // Nothing was written to temporary storage.
  EXPECT_EQ(bm.Snapshot().temp_writes, 0u);
  EXPECT_TRUE(bm.spill_temporary());
}

//===----------------------------------------------------------------------===//
// HyPer-model (switch to external)
//===----------------------------------------------------------------------===//

TEST_F(BaselinesTest, SwitchStaysInMemoryWhenFits) {
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  TaskExecutor executor(2);
  auto source = MakeSource(50000, 500);
  MaterializedCollector collector;
  BaselineOutcome outcome;
  SwitchExternalConfig config;
  config.in_memory.phase1_capacity = 16384;
  config.sort.temp_directory = temp_dir_;
  Status st = RunSwitchExternalAggregation(bm, source, {0}, TestAggregates(),
                                           collector, executor, config,
                                           &outcome);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(outcome.switched_to_external);
  CheckAggregatedResult(collector, 50000, 500);
}

TEST_F(BaselinesTest, SwitchFallsBackToSortAndIsCorrect) {
  BufferManager bm(temp_dir_, 80 * kPageSize);  // 20 MiB
  TaskExecutor executor(2);
  constexpr idx_t kRows = 200000;
  constexpr idx_t kGroups = 200000;
  auto source = MakeSource(kRows, kGroups);
  MaterializedCollector collector;
  BaselineOutcome outcome;
  SwitchExternalConfig config;
  config.in_memory.phase1_capacity = 4096;
  config.in_memory.radix_bits = 2;
  config.sort.temp_directory = temp_dir_;
  config.sort.run_memory_bytes = 2 << 20;
  Status st = RunSwitchExternalAggregation(bm, source, {0}, TestAggregates(),
                                           collector, executor, config,
                                           &outcome);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(outcome.switched_to_external);
  CheckAggregatedResult(collector, kRows, kGroups);
}

//===----------------------------------------------------------------------===//
// ClickHouse-model (two-level with partition spilling)
//===----------------------------------------------------------------------===//

TEST_F(BaselinesTest, SpillPartitionsCompletesAndIsCorrect) {
  BufferManager bm(temp_dir_, 96 * kPageSize);  // 24 MiB
  TaskExecutor executor(2);
  constexpr idx_t kRows = 200000;
  constexpr idx_t kGroups = 50000;
  auto source = MakeSource(kRows, kGroups);
  MaterializedCollector collector;
  BaselineOutcome outcome;
  TwoLevelSpillAggregate::Config config;
  config.temp_directory = temp_dir_;
  config.spill_threshold_ratio = 0.5;
  Status st = RunSpillPartitionAggregation(bm, source, {0}, TestAggregates(),
                                           collector, executor, config,
                                           &outcome);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(outcome.spilled_partitions);
  CheckAggregatedResult(collector, kRows, kGroups);
  EXPECT_TRUE(bm.spill_temporary());
}

TEST_F(BaselinesTest, SpillPartitionsInMemoryPathWhenSmall) {
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  TaskExecutor executor(2);
  auto source = MakeSource(20000, 200);
  MaterializedCollector collector;
  BaselineOutcome outcome;
  TwoLevelSpillAggregate::Config config;
  config.temp_directory = temp_dir_;
  Status st = RunSpillPartitionAggregation(bm, source, {0}, TestAggregates(),
                                           collector, executor, config,
                                           &outcome);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(outcome.spilled_partitions);
  CheckAggregatedResult(collector, 20000, 200);
}

TEST_F(BaselinesTest, SpillPartitionsAbortsWhenMergeDoesNotFit) {
  BufferManager bm(temp_dir_, 48 * kPageSize);  // 12 MiB
  TaskExecutor executor(1);
  constexpr idx_t kRows = 500000;
  auto source = MakeSource(kRows, kRows);  // all unique: merge cannot fit
  CountingCollector collector;
  BaselineOutcome outcome;
  TwoLevelSpillAggregate::Config config;
  config.temp_directory = temp_dir_;
  config.radix_bits = 1;  // few partitions: a partition's groups won't fit
  config.spill_threshold_ratio = 0.5;
  Status st = RunSpillPartitionAggregation(bm, source, {0}, TestAggregates(),
                                           collector, executor, config,
                                           &outcome);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_TRUE(outcome.aborted);
}

}  // namespace
}  // namespace ssagg
