#include "storage/data_table.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <set>

#include "common/file_system.h"
#include "compression/codec.h"
#include "core/run_aggregation.h"
#include "execution/collectors.h"
#include "tpch/lineitem.h"

namespace ssagg {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_storage_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

//===----------------------------------------------------------------------===//
// Codecs
//===----------------------------------------------------------------------===//

TEST_F(StorageTest, CodecRoundTripPlainDoubles) {
  Vector v(LogicalTypeId::kDouble);
  for (idx_t i = 0; i < 100; i++) {
    v.SetValue<double>(i, i * 1.5);
  }
  v.validity().SetInvalid(7);
  std::vector<data_t> bytes;
  ASSERT_TRUE(CompressSegment(v, 100, bytes).ok());
  Vector out(LogicalTypeId::kDouble);
  idx_t count = 0;
  ASSERT_TRUE(DecodeSegment(bytes.data(), bytes.size(), out, &count).ok());
  ASSERT_EQ(count, 100u);
  for (idx_t i = 0; i < 100; i++) {
    if (i == 7) {
      EXPECT_FALSE(out.validity().RowIsValid(i));
    } else {
      EXPECT_EQ(out.GetValue<double>(i), i * 1.5);
    }
  }
}

TEST_F(StorageTest, CodecPicksBitpackForSmallRangeIntegers) {
  Vector v(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < 2048; i++) {
    v.SetValue<int64_t>(i, 1000000 + static_cast<int64_t>(i % 16));
  }
  std::vector<data_t> bytes;
  ASSERT_TRUE(CompressSegment(v, 2048, bytes).ok());
  EXPECT_EQ(static_cast<Codec>(bytes[0]), Codec::kForBitpack);
  // 4 bits per value instead of 64.
  EXPECT_LT(bytes.size(), 2048 * 2);
  Vector out(LogicalTypeId::kInt64);
  idx_t count = 0;
  ASSERT_TRUE(DecodeSegment(bytes.data(), bytes.size(), out, &count).ok());
  ASSERT_EQ(count, 2048u);
  for (idx_t i = 0; i < 2048; i++) {
    ASSERT_EQ(out.GetValue<int64_t>(i),
              1000000 + static_cast<int64_t>(i % 16));
  }
}

TEST_F(StorageTest, CodecPicksRleForRuns) {
  Vector v(LogicalTypeId::kInt32);
  for (idx_t i = 0; i < 2048; i++) {
    v.SetValue<int32_t>(i, static_cast<int32_t>(i / 512) * 7919);
  }
  std::vector<data_t> bytes;
  ASSERT_TRUE(CompressSegment(v, 2048, bytes).ok());
  EXPECT_EQ(static_cast<Codec>(bytes[0]), Codec::kRle);
  EXPECT_LT(bytes.size(), 300u);
  Vector out(LogicalTypeId::kInt32);
  idx_t count = 0;
  ASSERT_TRUE(DecodeSegment(bytes.data(), bytes.size(), out, &count).ok());
  ASSERT_EQ(count, 2048u);
  for (idx_t i = 0; i < 2048; i++) {
    ASSERT_EQ(out.GetValue<int32_t>(i), static_cast<int32_t>(i / 512) * 7919);
  }
}

TEST_F(StorageTest, CodecRoundTripStrings) {
  Vector v(LogicalTypeId::kVarchar);
  for (idx_t i = 0; i < 500; i++) {
    v.SetString(i, i % 5 == 0 ? "x" : "a longer string value #" +
                                          std::to_string(i));
  }
  v.validity().SetInvalid(3);
  std::vector<data_t> bytes;
  ASSERT_TRUE(CompressSegment(v, 500, bytes).ok());
  EXPECT_EQ(static_cast<Codec>(bytes[0]), Codec::kStringPlain);
  Vector out(LogicalTypeId::kVarchar);
  idx_t count = 0;
  ASSERT_TRUE(DecodeSegment(bytes.data(), bytes.size(), out, &count).ok());
  ASSERT_EQ(count, 500u);
  for (idx_t i = 0; i < 500; i++) {
    if (i == 3) {
      EXPECT_FALSE(out.validity().RowIsValid(i));
      continue;
    }
    std::string expected = i % 5 == 0 ? "x" : "a longer string value #" +
                                                  std::to_string(i);
    ASSERT_EQ(out.GetString(i).ToString(), expected);
  }
}

//===----------------------------------------------------------------------===//
// DataTable
//===----------------------------------------------------------------------===//

TEST_F(StorageTest, WriteAndScanTable) {
  auto block_mgr = FileBlockManager::Create(temp_dir_ + "/t1.db").MoveValue();
  BufferManager bm(temp_dir_, 256 * kPageSize);
  Schema schema = {{"id", LogicalTypeId::kInt64},
                   {"name", LogicalTypeId::kVarchar},
                   {"score", LogicalTypeId::kDouble}};
  DataTable table(*block_mgr, schema);

  DataChunk chunk({LogicalTypeId::kInt64, LogicalTypeId::kVarchar,
                   LogicalTypeId::kDouble});
  constexpr idx_t kRows = 10000;
  idx_t written = 0;
  while (written < kRows) {
    idx_t n = std::min<idx_t>(1000, kRows - written);  // odd chunk sizes
    for (idx_t i = 0; i < n; i++) {
      chunk.column(0).SetValue<int64_t>(i, static_cast<int64_t>(written + i));
      chunk.column(1).SetString(
          i, "row_" + std::to_string(written + i) + "_payload_string");
      chunk.column(2).SetValue<double>(i, (written + i) * 0.25);
    }
    chunk.SetCount(n);
    ASSERT_TRUE(table.Append(chunk).ok());
    chunk.Reset();
    written += n;
  }
  ASSERT_TRUE(table.FinalizeAppend().ok());
  EXPECT_EQ(table.RowCount(), kRows);
  EXPECT_GT(table.BlockCount(), 0u);

  auto source = table.MakeScanSource(bm, {0, 1, 2});
  TaskExecutor executor(2);
  MaterializedCollector collector;
  // Identity "aggregation" scan: group by id.
  auto stats = RunGroupedAggregation(bm, *source, {0},
                                     {{AggregateKind::kAnyValue, 1},
                                      {AggregateKind::kSum, 2}},
                                     collector, executor,
                                     HashAggregateConfig{});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(collector.RowCount(), kRows);
  std::set<int64_t> seen;
  for (const auto &row : collector.rows()) {
    int64_t id = row[0].GetInt64();
    EXPECT_TRUE(seen.insert(id).second);
    EXPECT_EQ(row[1].GetString(),
              "row_" + std::to_string(id) + "_payload_string");
    EXPECT_DOUBLE_EQ(row[2].GetDouble(), id * 0.25);
  }
}

TEST_F(StorageTest, ScanWithTinyPoolEvictsPersistentPagesForFree) {
  auto block_mgr = FileBlockManager::Create(temp_dir_ + "/t2.db").MoveValue();
  // A pool far smaller than table + intermediates: persistent pages must
  // be evicted (for free) to make room.
  BufferManager bm(temp_dir_, 40 * kPageSize);
  Schema schema = {{"id", LogicalTypeId::kInt64},
                   {"payload", LogicalTypeId::kVarchar}};
  DataTable table(*block_mgr, schema);
  DataChunk chunk({LogicalTypeId::kInt64, LogicalTypeId::kVarchar});
  constexpr idx_t kRows = 300000;
  for (idx_t start = 0; start < kRows; start += kVectorSize) {
    idx_t n = std::min(kVectorSize, kRows - start);
    for (idx_t i = 0; i < n; i++) {
      chunk.column(0).SetValue<int64_t>(i, static_cast<int64_t>(start + i));
      chunk.column(1).SetString(i, "some longer payload value #" +
                                       std::to_string((start + i) % 100));
    }
    chunk.SetCount(n);
    ASSERT_TRUE(table.Append(chunk).ok());
    chunk.Reset();
  }
  ASSERT_TRUE(table.FinalizeAppend().ok());
  EXPECT_GT(table.BlockCount(), 40u);  // more blocks than the pool holds

  // Scan twice: pages are loaded, evicted (for free), and reloaded.
  for (int round = 0; round < 2; round++) {
    auto source = table.MakeScanSource(bm, {0});
    TaskExecutor executor(2);
    CountingCollector collector;
    auto stats = RunGroupedAggregation(
        bm, *source, {0}, {}, collector, executor, HashAggregateConfig{
            /*phase1_capacity=*/1024, /*radix_bits=*/2});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(collector.TotalRows(), kRows);
  }
  auto snap = bm.Snapshot();
  EXPECT_GT(snap.evicted_persistent_count, 0u);
}

TEST_F(StorageTest, ScanPreservesNullsAcrossRowGroupsAndEvictions) {
  // Six row groups with different NULL shapes, scanned in order through a
  // two-page pool so blocks are evicted and re-pinned between and during
  // scans. The chunk is never reset between GetData calls: validity and
  // strings of one row group must not leak into the next.
  enum class Nulls { kNone, kAll, kMixed };
  const Nulls shapes[] = {Nulls::kNone,  Nulls::kAll,   Nulls::kMixed,
                          Nulls::kNone,  Nulls::kMixed, Nulls::kNone};
  constexpr idx_t kGroups = 6;
  constexpr idx_t kLastGroupRows = 1000;  // a partial final row group
  const std::vector<LogicalTypeId> types = {
      LogicalTypeId::kInt32, LogicalTypeId::kInt64, LogicalTypeId::kDate,
      LogicalTypeId::kDouble, LogicalTypeId::kVarchar};
  auto is_null = [&](idx_t row, idx_t column) {
    switch (shapes[row / kVectorSize]) {
      case Nulls::kNone:
        return false;
      case Nulls::kAll:
        return true;
      case Nulls::kMixed:
        return (row + column) % 3 == 0;
    }
    return false;
  };
  auto i32 = [](idx_t row) { return static_cast<int32_t>(row * 7) - 5000; };
  auto i64 = [](idx_t row) { return static_cast<int64_t>(row) << 40; };
  auto date = [](idx_t row) { return 9000 + static_cast<int32_t>(row / 500); };
  auto dbl = [](idx_t row) { return static_cast<double>(row) * 0.25; };
  auto text = [](idx_t row) {
    return row % 4 == 0 ? std::to_string(row % 100) + "s"
                        : "a string too long to inline, long enough to spread "
                          "the table over more blocks than the pool holds #" +
                              std::to_string(row);
  };

  auto block_mgr =
      FileBlockManager::Create(temp_dir_ + "/nulls.db").MoveValue();
  BufferManager bm(temp_dir_, 2 * kPageSize);
  DataTable table(*block_mgr, {{"i32", types[0]},
                               {"i64", types[1]},
                               {"date", types[2]},
                               {"dbl", types[3]},
                               {"str", types[4]}});
  const idx_t rows = (kGroups - 1) * kVectorSize + kLastGroupRows;
  DataChunk chunk(types);
  for (idx_t start = 0; start < rows; start += kVectorSize) {
    idx_t n = std::min(kVectorSize, rows - start);
    for (idx_t i = 0; i < n; i++) {
      idx_t row = start + i;
      chunk.column(0).SetValue<int32_t>(i, i32(row));
      chunk.column(1).SetValue<int64_t>(i, i64(row));
      chunk.column(2).SetValue<int32_t>(i, date(row));
      chunk.column(3).SetValue<double>(i, dbl(row));
      chunk.column(4).SetString(i, text(row));
      for (idx_t c = 0; c < types.size(); c++) {
        if (is_null(row, c)) {
          chunk.column(c).validity().SetInvalid(i);
        }
      }
    }
    chunk.SetCount(n);
    ASSERT_TRUE(table.Append(chunk).ok());
    chunk.Reset();
  }
  ASSERT_TRUE(table.FinalizeAppend().ok());
  ASSERT_GT(table.BlockCount(), 2u);  // more blocks than the pool holds

  for (int round = 0; round < 2; round++) {
    auto source = table.MakeScanSource(bm, {0, 1, 2, 3, 4});
    auto local = source->InitLocal();
    ASSERT_TRUE(local.ok());
    DataChunk out(types);
    idx_t row = 0;
    while (true) {
      auto more = source->GetData(out, *local.value());
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!more.value()) {
        break;
      }
      ASSERT_EQ(out.size(), std::min(kVectorSize, rows - row));
      for (idx_t i = 0; i < out.size(); i++, row++) {
        for (idx_t c = 0; c < types.size(); c++) {
          ASSERT_EQ(out.column(c).validity().RowIsValid(i), !is_null(row, c))
              << "row " << row << " column " << c;
        }
        if (!is_null(row, 0)) {
          ASSERT_EQ(out.column(0).GetValue<int32_t>(i), i32(row));
        }
        if (!is_null(row, 1)) {
          ASSERT_EQ(out.column(1).GetValue<int64_t>(i), i64(row));
        }
        if (!is_null(row, 2)) {
          ASSERT_EQ(out.column(2).GetValue<int32_t>(i), date(row));
        }
        if (!is_null(row, 3)) {
          ASSERT_EQ(out.column(3).GetValue<double>(i), dbl(row));
        }
        if (!is_null(row, 4)) {
          ASSERT_EQ(out.column(4).GetString(i).View(), text(row));
        }
      }
    }
    ASSERT_EQ(row, rows);
  }
  EXPECT_GT(bm.Snapshot().evicted_persistent_count, 0u);
}

TEST_F(StorageTest, LineitemThroughStorageMatchesGenerator) {
  auto block_mgr = FileBlockManager::Create(temp_dir_ + "/li.db").MoveValue();
  BufferManager bm(temp_dir_, 512 * kPageSize);
  tpch::LineitemGenerator gen(0.1);
  DataTable table(*block_mgr, tpch::LineitemSchema());

  std::vector<idx_t> all_cols;
  for (idx_t c = 0; c < tpch::kColumnCount; c++) {
    all_cols.push_back(c);
  }
  DataChunk chunk(tpch::LineitemGenerator::ColumnTypes(all_cols));
  for (idx_t start = 0; start < gen.RowCount(); start += kVectorSize) {
    idx_t n = std::min(kVectorSize, gen.RowCount() - start);
    ASSERT_TRUE(gen.FillChunk(chunk, all_cols, start, n).ok());
    ASSERT_TRUE(table.Append(chunk).ok());
    chunk.Reset();
  }
  ASSERT_TRUE(table.FinalizeAppend().ok());
  EXPECT_EQ(table.RowCount(), gen.RowCount());
  // Lightweight compression beats the plain row size.
  idx_t plain_bytes = 0;
  for (auto c : all_cols) {
    plain_bytes += gen.RowCount() * TypeWidth(tpch::LineitemSchema()[c].type);
  }
  EXPECT_LT(table.CompressedBytes(), plain_bytes);

  // Aggregating from storage gives the same group count as generating.
  auto query = BuildGroupingQuery(tpch::TableIGroupings()[4], false);
  auto table_source = table.MakeScanSource(bm, query.projection);
  auto gen_source = gen.MakeSource(query.projection);
  TaskExecutor executor(2);
  CountingCollector from_table, from_gen;
  ASSERT_TRUE(RunGroupedAggregation(bm, *table_source, query.group_columns,
                                    query.aggregates, from_table, executor,
                                    HashAggregateConfig{})
                  .ok());
  ASSERT_TRUE(RunGroupedAggregation(bm, *gen_source, query.group_columns,
                                    query.aggregates, from_gen, executor,
                                    HashAggregateConfig{})
                  .ok());
  EXPECT_EQ(from_table.TotalRows(), from_gen.TotalRows());
  EXPECT_GT(from_table.TotalRows(), 0u);
}

}  // namespace
}  // namespace ssagg
