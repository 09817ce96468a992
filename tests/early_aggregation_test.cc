// Tests for the Section IX extension: adaptive early partition-wise
// aggregation during phase 1 under memory pressure.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "ssagg/ssagg.h"

namespace ssagg {
namespace {

class EarlyAggregationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_early_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

// Uniform random keys recurring at intervals far larger than the phase-1
// table: the regime where groups are materialized many times (paper
// Section V, "Data Distributions") and early aggregation pays off.
constexpr idx_t kRows = 2000000;
constexpr idx_t kKeys = 50000;

RangeSource MakeDupHeavySource() {
  return RangeSource({LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kRows,
                     [](DataChunk &chunk, idx_t start, idx_t count) {
                       for (idx_t i = 0; i < count; i++) {
                         idx_t row = start + i;
                         chunk.column(0).SetValue<int64_t>(
                             i, static_cast<int64_t>(HashUint64(row) % kKeys));
                         chunk.column(1).SetValue<int64_t>(i, 1);
                       }
                       return Status::OK();
                     });
}

struct RunResult {
  HashAggregateStats stats;
  BufferManagerSnapshot snapshot;
  idx_t groups;
  int64_t checksum;
};

RunResult RunQuery(bool early, const std::string &temp_dir) {
  BufferManager bm(temp_dir, 48 * kPageSize);  // 12 MiB: heavy pressure
  TaskExecutor executor(2);
  auto source = MakeDupHeavySource();
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.phase1_capacity = 4096;
  config.radix_bits = 3;
  // Early compaction is a mechanism of the radix materializing path; pin
  // the plan so the on/off comparison exercises it deterministically.
  config.strategy = AggregateStrategy::kRadixMerge;
  config.early_aggregation = early ? EarlyAggMode::kOn : EarlyAggMode::kOff;
  config.early_aggregation_ratio = 0.6;
  auto stats = RunGroupedAggregation(bm, source, {0},
                                     {{AggregateKind::kSum, 1}}, collector,
                                     executor, config);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  RunResult result;
  result.stats = stats.ok() ? stats.value() : HashAggregateStats{};
  result.snapshot = bm.Snapshot();
  result.groups = collector.RowCount();
  result.checksum = 0;
  for (const auto &row : collector.rows()) {
    result.checksum += row[0].GetInt64() * 31 + row[1].GetInt64();
  }
  return result;
}

TEST_F(EarlyAggregationTest, ReducesIntermediatesAndIO) {
  RunResult off = RunQuery(false, temp_dir_);
  RunResult on = RunQuery(true, temp_dir_);

  // Same answer either way.
  EXPECT_EQ(on.groups, off.groups);
  EXPECT_EQ(on.groups, kKeys);
  EXPECT_EQ(on.checksum, off.checksum);

  // Early aggregation actually ran and eliminated duplicated groups.
  EXPECT_EQ(off.stats.early_compactions, 0u);
  EXPECT_GT(on.stats.early_compactions, 0u);
  EXPECT_GT(on.stats.early_compacted_rows, 0u);

  // The intermediates that reached phase 2 are smaller (materialized_rows
  // counts what is handed to phase 2, post-compaction), and so is the
  // temporary-file high-water mark.
  EXPECT_LT(on.stats.materialized_rows, off.stats.materialized_rows);
  EXPECT_LT(on.snapshot.temp_file_peak, off.snapshot.temp_file_peak);
}

// The compactor's counters reach the query's stats. Every phase-1 insert
// materializes a row that is either handed to phase 2 or compacted away,
// and phase 2 inserts each group once, so whatever `ht.inserts` counts
// beyond those is the compactors' work.
TEST_F(EarlyAggregationTest, CompactorCountsReachQueryStats) {
  const HashAggregateStats stats = RunQuery(true, temp_dir_).stats;
  ASSERT_GT(stats.early_compactions, 0u);
  const uint64_t phase1_and_phase2 =
      stats.materialized_rows + stats.early_compacted_rows + kKeys;
  EXPECT_GT(stats.ht.inserts, phase1_and_phase2)
      << "the compactors' inserts are missing";
}

// The early-aggregation compactor re-aggregates a partition in a phase-2
// table and must honour the query's reset_fill_ratio like every other
// table: with a lower ratio it grows its pointer table further before the
// same groups fit. Read from the trace: the largest ht.resize inside an
// early_compact span.
uint64_t LargestCompactorCapacity(double reset_fill_ratio,
                                  const std::string &temp_dir) {
  FlightRecorder &recorder = FlightRecorder::Global();
  const std::string saved_path = recorder.trace_path();
  const std::string path = temp_dir + "/compactor_trace.json";
  recorder.SetTracePath(path);
  {
    BufferManager bm(temp_dir, 48 * kPageSize);
    TaskExecutor executor(1);  // one thread: one trace track
    constexpr idx_t kKeyCount = 20000;
    RangeSource source({LogicalTypeId::kInt64, LogicalTypeId::kInt64}, 600000,
                       [](DataChunk &chunk, idx_t start, idx_t count) {
                         for (idx_t i = 0; i < count; i++) {
                           idx_t row = start + i;
                           chunk.column(0).SetValue<int64_t>(
                               i, static_cast<int64_t>(HashUint64(row) %
                                                       kKeyCount));
                           chunk.column(1).SetValue<int64_t>(i, 1);
                         }
                         return Status::OK();
                       });
    CountingCollector collector;
    HashAggregateConfig config;
    config.phase1_capacity = 4096;
    config.radix_bits = 3;
    config.strategy = AggregateStrategy::kRadixMerge;
    config.early_aggregation = EarlyAggMode::kOn;
    config.early_aggregation_ratio = 0.3;
    config.reset_fill_ratio = reset_fill_ratio;
    auto stats = RunGroupedAggregation(bm, source, {0},
                                       {{AggregateKind::kSum, 1}}, collector,
                                       executor, config);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats.ok() ? stats.value().early_compactions : 0, 0u);
    EXPECT_EQ(collector.TotalRows(), kKeyCount);
  }
  recorder.SetTracePath(saved_path);

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  auto doc = Json::Parse(text.str());
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok() || doc.value().Find("traceEvents") == nullptr) {
    return 0;
  }
  struct Span {
    uint64_t tid, begin, end, arg;
  };
  std::vector<Span> compactions;
  std::vector<Span> resizes;
  for (const Json &event : doc.value().Find("traceEvents")->elements()) {
    if (event.Find("ph")->AsString() != "X") {
      continue;
    }
    const std::string &name = event.Find("name")->AsString();
    if (name != "early_compact" && name != "ht.resize") {
      continue;
    }
    uint64_t ts = event.Find("ts")->AsUint();
    Span span{event.Find("tid")->AsUint(), ts,
              ts + event.Find("dur")->AsUint(),
              event.Find("args")->Find("v")->AsUint()};
    (name == "early_compact" ? compactions : resizes).push_back(span);
  }
  EXPECT_FALSE(compactions.empty());
  uint64_t largest = 0;
  for (const Span &resize : resizes) {
    for (const Span &compaction : compactions) {
      if (resize.tid == compaction.tid && compaction.begin <= resize.begin &&
          resize.end <= compaction.end) {
        largest = std::max(largest, resize.arg);
      }
    }
  }
  return largest;
}

TEST_F(EarlyAggregationTest, CompactorHonoursResetFillRatio) {
  uint64_t at_default = LargestCompactorCapacity(kHashTableResetFillRatio,
                                                 temp_dir_);
  uint64_t at_eighth = LargestCompactorCapacity(0.125, temp_dir_);
  ASSERT_GT(at_default, 0u) << "the compactor was expected to grow";
  // 1/8 instead of 2/3 fill needs about 5x the capacity for the same groups.
  EXPECT_GE(at_eighth, 4 * at_default)
      << "largest compactor table: " << at_default << " entries at 2/3, "
      << at_eighth << " at 1/8";
}

TEST_F(EarlyAggregationTest, NoOpWithAmpleMemory) {
  BufferManager bm(temp_dir_, 2048 * kPageSize);
  TaskExecutor executor(2);
  auto source = MakeDupHeavySource();
  CountingCollector collector;
  HashAggregateConfig config;
  config.phase1_capacity = 4096;
  config.strategy = AggregateStrategy::kRadixMerge;
  config.early_aggregation = EarlyAggMode::kOn;
  auto stats = RunGroupedAggregation(bm, source, {0},
                                     {{AggregateKind::kSum, 1}}, collector,
                                     executor, config);
  ASSERT_TRUE(stats.ok());
  // Below the pressure threshold nothing is compacted.
  EXPECT_EQ(stats.value().early_compactions, 0u);
  EXPECT_EQ(collector.TotalRows(), kKeys);
}

TEST_F(EarlyAggregationTest, WorksWithStringsAndStickyPayloads) {
  BufferManager bm(temp_dir_, 64 * kPageSize);
  TaskExecutor executor(2);
  RangeSource source(
      {LogicalTypeId::kInt64, LogicalTypeId::kVarchar}, 500000,
      [](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          int64_t key = static_cast<int64_t>(HashUint64(row) % 20000);
          chunk.column(0).SetValue<int64_t>(i, key);
          chunk.column(1).SetString(
              i, "payload_string_for_" + std::to_string(key));
        }
        return Status::OK();
      });
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.phase1_capacity = 4096;
  config.radix_bits = 3;
  config.strategy = AggregateStrategy::kRadixMerge;
  config.early_aggregation = EarlyAggMode::kOn;
  config.early_aggregation_ratio = 0.5;
  auto stats = RunGroupedAggregation(bm, source, {0},
                                     {{AggregateKind::kAnyValue, 1}},
                                     collector, executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(collector.RowCount(), 20000u);
  EXPECT_GT(stats.value().early_compactions, 0u);
  for (const auto &row : collector.rows()) {
    EXPECT_EQ(row[1].GetString(),
              "payload_string_for_" + std::to_string(row[0].GetInt64()));
  }
}

}  // namespace
}  // namespace ssagg
