#include "layout/tuple_data_collection.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "common/file_system.h"
#include "common/random.h"
#include "layout/partitioned_tuple_data.h"
#include "layout/row_kernels.h"

namespace ssagg {
namespace {

class TupleDataTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_tdc_test_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

std::string MakeString(idx_t i) {
  // Mix of inlined (short) and non-inlined (long) strings.
  std::string s = "value_" + std::to_string(i);
  if (i % 3 == 0) {
    s += "_padded_with_a_long_suffix_to_exceed_inline";
  }
  return s;
}

void FillChunk(DataChunk &chunk, idx_t start, idx_t count) {
  for (idx_t i = 0; i < count; i++) {
    chunk.column(0).SetValue<int64_t>(i, static_cast<int64_t>(start + i));
    chunk.column(1).SetString(i, MakeString(start + i));
    chunk.column(2).SetValue<double>(i, static_cast<double>(start + i) * 0.5);
  }
  chunk.SetCount(count);
}

std::vector<LogicalTypeId> TestTypes() {
  return {LogicalTypeId::kInt64, LogicalTypeId::kVarchar,
          LogicalTypeId::kDouble};
}

TEST_F(TupleDataTest, LayoutOffsets) {
  TupleDataLayout layout;
  layout.Initialize(TestTypes(), /*aggregate_state_width=*/24);
  // 1 validity byte, then 8 + 16 + 8 bytes of columns; the aggregate-state
  // area is 8-byte aligned (states are accessed as typed structs), so
  // offset 33 rounds up to 40.
  EXPECT_EQ(layout.ValidityBytes(), 1u);
  EXPECT_EQ(layout.ColumnOffset(0), 1u);
  EXPECT_EQ(layout.ColumnOffset(1), 9u);
  EXPECT_EQ(layout.ColumnOffset(2), 25u);
  EXPECT_EQ(layout.AggregateOffset(), 40u);
  EXPECT_EQ(layout.RowWidth(), 64u);
  EXPECT_FALSE(layout.AllConstantSize());
  ASSERT_EQ(layout.VarSizeColumns().size(), 1u);
  EXPECT_EQ(layout.VarSizeColumns()[0], 1u);
}

TEST_F(TupleDataTest, AppendAndScanInMemory) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(TestTypes());
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;

  DataChunk chunk(TestTypes());
  constexpr idx_t kRows = 5000;
  for (idx_t start = 0; start < kRows; start += kVectorSize) {
    idx_t n = std::min(kVectorSize, kRows - start);
    FillChunk(chunk, start, n);
    std::vector<data_ptr_t> ptrs(n);
    ASSERT_TRUE(data.AppendRows(append, chunk, nullptr, n, ptrs.data()).ok());
  }
  EXPECT_EQ(data.Count(), kRows);
  append.Release();

  TupleDataScanState scan;
  data.InitScan(scan);
  DataChunk out(TestTypes());
  idx_t seen = 0;
  while (true) {
    auto more = data.Scan(scan, out);
    ASSERT_TRUE(more.ok());
    if (!more.value()) {
      break;
    }
    for (idx_t i = 0; i < out.size(); i++) {
      idx_t id = static_cast<idx_t>(out.column(0).GetValue<int64_t>(i));
      EXPECT_EQ(out.column(1).GetString(i).ToString(), MakeString(id));
      EXPECT_EQ(out.column(2).GetValue<double>(i), id * 0.5);
      seen++;
    }
  }
  EXPECT_EQ(seen, kRows);
}

TEST_F(TupleDataTest, SpillReloadRecomputesStringPointers) {
  // Pool of 6 pages; the collection will need more, forcing spills of both
  // row and heap pages between append and scan.
  BufferManager bm(temp_dir_, 6 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(TestTypes());
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;

  DataChunk chunk(TestTypes());
  constexpr idx_t kRows = 60000;  // several row pages, several heap pages
  for (idx_t start = 0; start < kRows; start += kVectorSize) {
    idx_t n = std::min(kVectorSize, kRows - start);
    FillChunk(chunk, start, n);
    ASSERT_TRUE(data.AppendRows(append, chunk, nullptr, n, nullptr).ok());
    // Unpin after every chunk so pages can spill mid-append.
    append.Release();
  }
  EXPECT_GT(bm.Snapshot().temp_writes, 0u) << "expected spilling";

  TupleDataScanState scan;
  data.InitScan(scan);
  DataChunk out(TestTypes());
  idx_t seen = 0;
  while (true) {
    auto more = data.Scan(scan, out);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) {
      break;
    }
    for (idx_t i = 0; i < out.size(); i++) {
      idx_t id = static_cast<idx_t>(out.column(0).GetValue<int64_t>(i));
      ASSERT_EQ(out.column(1).GetString(i).ToString(), MakeString(id))
          << "row " << seen + i;
      seen++;
    }
  }
  EXPECT_EQ(seen, kRows);
}

TEST_F(TupleDataTest, ScanTwiceAfterRepeatedSpills) {
  // Every scan can force the other pages out; pointers must survive
  // arbitrary spill/reload cycles because recomputation updates old_base.
  BufferManager bm(temp_dir_, 4 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(TestTypes());
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;
  DataChunk chunk(TestTypes());
  constexpr idx_t kRows = 30000;
  for (idx_t start = 0; start < kRows; start += kVectorSize) {
    idx_t n = std::min(kVectorSize, kRows - start);
    FillChunk(chunk, start, n);
    ASSERT_TRUE(data.AppendRows(append, chunk, nullptr, n, nullptr).ok());
    append.Release();
  }
  DataChunk out(TestTypes());
  for (int round = 0; round < 3; round++) {
    TupleDataScanState scan;
    data.InitScan(scan);
    idx_t seen = 0;
    while (true) {
      auto more = data.Scan(scan, out);
      ASSERT_TRUE(more.ok());
      if (!more.value()) {
        break;
      }
      for (idx_t i = 0; i < out.size(); i++) {
        idx_t id = static_cast<idx_t>(out.column(0).GetValue<int64_t>(i));
        ASSERT_EQ(out.column(1).GetString(i).ToString(), MakeString(id));
        seen++;
      }
    }
    EXPECT_EQ(seen, kRows) << "round " << round;
  }
}

TEST_F(TupleDataTest, DestroyAfterScanFreesPages) {
  BufferManager bm(temp_dir_, 64 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(TestTypes());
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;
  DataChunk chunk(TestTypes());
  constexpr idx_t kRows = 30000;
  for (idx_t start = 0; start < kRows; start += kVectorSize) {
    idx_t n = std::min(kVectorSize, kRows - start);
    FillChunk(chunk, start, n);
    ASSERT_TRUE(data.AppendRows(append, chunk, nullptr, n, nullptr).ok());
  }
  append.Release();
  idx_t before = bm.memory_used();
  EXPECT_GT(before, 0u);
  TupleDataScanState scan;
  data.InitScan(scan, /*destroy_after_scan=*/true);
  DataChunk out(TestTypes());
  idx_t seen = 0;
  while (true) {
    auto more = data.Scan(scan, out);
    ASSERT_TRUE(more.ok());
    if (!more.value()) {
      break;
    }
    seen += out.size();
  }
  EXPECT_EQ(seen, kRows);
  EXPECT_EQ(bm.memory_used(), 0u);
}

TEST_F(TupleDataTest, NullsRoundTrip) {
  BufferManager bm(temp_dir_, 64 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(TestTypes());
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;
  DataChunk chunk(TestTypes());
  FillChunk(chunk, 0, 100);
  for (idx_t i = 0; i < 100; i += 7) {
    chunk.column(1).validity().SetInvalid(i);
  }
  for (idx_t i = 0; i < 100; i += 11) {
    chunk.column(2).validity().SetInvalid(i);
  }
  ASSERT_TRUE(data.AppendRows(append, chunk, nullptr, 100, nullptr).ok());
  append.Release();
  TupleDataScanState scan;
  data.InitScan(scan);
  DataChunk out(TestTypes());
  auto more = data.Scan(scan, out);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(more.value());
  ASSERT_EQ(out.size(), 100u);
  for (idx_t i = 0; i < 100; i++) {
    EXPECT_EQ(out.column(1).validity().RowIsValid(i), i % 7 != 0) << i;
    EXPECT_EQ(out.column(2).validity().RowIsValid(i), i % 11 != 0) << i;
    EXPECT_TRUE(out.column(0).validity().RowIsValid(i));
  }
}

TEST_F(TupleDataTest, SelectionVectorAppend) {
  BufferManager bm(temp_dir_, 64 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(TestTypes());
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;
  DataChunk chunk(TestTypes());
  FillChunk(chunk, 0, 100);
  idx_t sel[3] = {5, 50, 99};
  data_ptr_t ptrs[3];
  ASSERT_TRUE(data.AppendRows(append, chunk, sel, 3, ptrs).ok());
  EXPECT_EQ(data.Count(), 3u);
  // Row pointers are immediately dereferenceable while pins are held.
  for (int i = 0; i < 3; i++) {
    int64_t v;
    std::memcpy(&v, ptrs[i] + layout.ColumnOffset(0), sizeof(v));
    EXPECT_EQ(v, static_cast<int64_t>(sel[i]));
  }
}

TEST_F(TupleDataTest, CombineMovesPages) {
  BufferManager bm(temp_dir_, 64 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(TestTypes());
  TupleDataCollection a(bm, layout);
  TupleDataCollection b(bm, layout);
  TupleDataAppendState sa, sb;
  DataChunk chunk(TestTypes());
  FillChunk(chunk, 0, 100);
  ASSERT_TRUE(a.AppendRows(sa, chunk, nullptr, 100, nullptr).ok());
  FillChunk(chunk, 100, 100);
  ASSERT_TRUE(b.AppendRows(sb, chunk, nullptr, 100, nullptr).ok());
  sa.Release();
  sb.Release();
  a.Combine(b);
  EXPECT_EQ(a.Count(), 200u);
  EXPECT_EQ(b.Count(), 0u);
  TupleDataScanState scan;
  a.InitScan(scan);
  DataChunk out(TestTypes());
  idx_t seen = 0;
  std::vector<bool> found(200, false);
  while (true) {
    auto more = a.Scan(scan, out);
    ASSERT_TRUE(more.ok());
    if (!more.value()) {
      break;
    }
    for (idx_t i = 0; i < out.size(); i++) {
      idx_t id = static_cast<idx_t>(out.column(0).GetValue<int64_t>(i));
      ASSERT_LT(id, 200u);
      EXPECT_FALSE(found[id]);
      found[id] = true;
      EXPECT_EQ(out.column(1).GetString(i).ToString(), MakeString(id));
      seen++;
    }
  }
  EXPECT_EQ(seen, 200u);
}

TEST_F(TupleDataTest, PartitionedAppendRoutesByRadix) {
  BufferManager bm(temp_dir_, 128 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(TestTypes());
  constexpr idx_t kRadixBits = 3;
  PartitionedTupleData parts(bm, layout, kRadixBits);
  EXPECT_EQ(parts.PartitionCount(), 8u);

  DataChunk chunk(TestTypes());
  RandomEngine rng(42);
  std::vector<hash_t> hashes(kVectorSize);
  idx_t total = 0;
  for (int c = 0; c < 10; c++) {
    FillChunk(chunk, c * kVectorSize, kVectorSize);
    for (idx_t i = 0; i < kVectorSize; i++) {
      hashes[i] = rng.NextUint64();
    }
    std::vector<data_ptr_t> ptrs(kVectorSize);
    ASSERT_TRUE(parts.Append(chunk, hashes.data(), nullptr, kVectorSize,
                             ptrs.data()).ok());
    total += kVectorSize;
  }
  EXPECT_EQ(parts.Count(), total);
  // With uniform random hashes all partitions should be populated and
  // roughly equal ("partitions are of roughly equal size", Section V).
  idx_t min_count = total, max_count = 0;
  for (idx_t p = 0; p < parts.PartitionCount(); p++) {
    min_count = std::min(min_count, parts.partition(p).Count());
    max_count = std::max(max_count, parts.partition(p).Count());
  }
  EXPECT_GT(min_count, 0u);
  EXPECT_LT(max_count, 2 * total / parts.PartitionCount());
  parts.ReleaseAppendPins();
}

TEST_F(TupleDataTest, VisitRowsSeesAllRows) {
  BufferManager bm(temp_dir_, 64 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize({LogicalTypeId::kInt64});
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;
  DataChunk chunk({LogicalTypeId::kInt64});
  constexpr idx_t kRows = 40000;  // multiple pages
  for (idx_t start = 0; start < kRows; start += kVectorSize) {
    idx_t n = std::min(kVectorSize, kRows - start);
    for (idx_t i = 0; i < n; i++) {
      chunk.column(0).SetValue<int64_t>(i, static_cast<int64_t>(start + i));
    }
    chunk.SetCount(n);
    ASSERT_TRUE(data.AppendRows(append, chunk, nullptr, n, nullptr).ok());
  }
  int64_t sum = 0;
  idx_t visited = 0;
  ASSERT_TRUE(data.VisitRows(append, [&](data_ptr_t row) {
    int64_t v;
    std::memcpy(&v, row + layout.ColumnOffset(0), sizeof(v));
    sum += v;
    visited++;
  }).ok());
  EXPECT_EQ(visited, kRows);
  EXPECT_EQ(sum, static_cast<int64_t>(kRows) * (kRows - 1) / 2);
  append.Release();
}

TEST_F(TupleDataTest, OversizedStringGetsVariablePage) {
  BufferManager bm(temp_dir_, 64 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize({LogicalTypeId::kVarchar});
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;
  DataChunk chunk({LogicalTypeId::kVarchar});
  std::string huge(kPageSize + 100, 'x');
  huge[0] = 'y';
  huge[huge.size() - 1] = 'z';
  chunk.column(0).SetString(0, huge);
  chunk.SetCount(1);
  ASSERT_TRUE(data.AppendRows(append, chunk, nullptr, 1, nullptr).ok());
  append.Release();
  TupleDataScanState scan;
  data.InitScan(scan);
  DataChunk out({LogicalTypeId::kVarchar});
  auto more = data.Scan(scan, out);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(more.value());
  EXPECT_EQ(out.column(0).GetString(0).ToString(), huge);
}

//===----------------------------------------------------------------------===//
// Typed scatter/gather kernels
//===----------------------------------------------------------------------===//

/// One column per type width: 1 (boolean), 4 (int32, date), 8 (int64,
/// double) and 16 (varchar) bytes.
std::vector<LogicalTypeId> AllWidthTypes() {
  return {LogicalTypeId::kBoolean, LogicalTypeId::kInt32,
          LogicalTypeId::kDate,    LogicalTypeId::kInt64,
          LogicalTypeId::kDouble,  LogicalTypeId::kVarchar};
}

enum class NullDensity { kNone, kMixed, kAll };

/// Random values in every column; NULL slots get garbage bytes (a kernel
/// must never read them as values).
void FillRandom(DataChunk &chunk, idx_t count, NullDensity nulls,
                RandomEngine &rng) {
  chunk.Reset();
  for (idx_t c = 0; c < chunk.ColumnCount(); c++) {
    Vector &vec = chunk.column(c);
    for (idx_t i = 0; i < count; i++) {
      const bool is_null = nulls == NullDensity::kAll ||
                           (nulls == NullDensity::kMixed && rng.NextRange(3) == 0);
      if (is_null) {
        vec.validity().SetInvalid(i);
        std::memset(vec.data() + i * vec.width(), 0xAB, vec.width());
        continue;
      }
      if (vec.type() == LogicalTypeId::kVarchar) {
        // Inlined (<= 12 chars) and heap strings.
        std::string str(rng.NextRange(40), 'a');
        for (auto &ch : str) {
          ch = static_cast<char>('a' + rng.NextRange(26));
        }
        vec.SetString(i, str);
      } else if (vec.type() == LogicalTypeId::kBoolean) {
        vec.data()[i] = static_cast<data_t>(rng.NextRange(2));
      } else {
        uint64_t bits = rng.NextUint64();
        std::memcpy(vec.data() + i * vec.width(), &bits, vec.width());
      }
    }
  }
  chunk.SetCount(count);
}

/// Per-row reference check of one scattered column: the validity bit, and
/// either zero bytes (NULL) or the input value.
void ExpectRowMatchesInput(const TupleDataLayout &layout, idx_t col,
                           const_data_ptr_t row, const Vector &vec, idx_t r) {
  const idx_t width = vec.width();
  const const_data_ptr_t slot = row + layout.ColumnOffset(col);
  if (!vec.validity().RowIsValid(r)) {
    EXPECT_FALSE(layout.RowIsColumnValid(row, col));
    std::vector<data_t> zeros(width, 0);
    EXPECT_EQ(std::memcmp(slot, zeros.data(), width), 0);
    return;
  }
  EXPECT_TRUE(layout.RowIsColumnValid(row, col));
  if (vec.type() == LogicalTypeId::kVarchar) {
    string_t stored;
    std::memcpy(&stored, slot, sizeof(stored));
    EXPECT_EQ(stored.View(), vec.GetString(r).View());
  } else {
    EXPECT_EQ(std::memcmp(slot, vec.data() + r * width, width), 0);
  }
}

TEST_F(TupleDataTest, TypedScatterGatherMatchesPerRowReference) {
  const auto types = AllWidthTypes();
  TupleDataLayout layout;
  layout.Initialize(types, /*aggregate_state_width=*/8);
  RandomEngine rng(7);
  constexpr idx_t kRows = 300;
  DataChunk input(types);
  DataChunk out(types);
  for (NullDensity nulls :
       {NullDensity::kNone, NullDensity::kMixed, NullDensity::kAll}) {
    for (bool use_sel : {false, true}) {
      SCOPED_TRACE("nulls=" + std::to_string(static_cast<int>(nulls)) +
                   " sel=" + std::to_string(use_sel));
      FillRandom(input, kRows, nulls, rng);
      // A shuffled subset: every other input row, back to front.
      std::vector<idx_t> sel;
      for (idx_t r = kRows; r-- > 0;) {
        if (r % 2 == 1) {
          sel.push_back(r);
        }
      }
      const idx_t count = use_sel ? sel.size() : kRows;
      const idx_t *sel_ptr = use_sel ? sel.data() : nullptr;

      std::vector<data_t> row_bytes(count * layout.RowWidth());
      std::vector<data_t> heap(count * 64);
      std::vector<data_ptr_t> rows(count);
      std::vector<data_ptr_t> cursors(count);
      for (idx_t i = 0; i < count; i++) {
        rows[i] = row_bytes.data() + i * layout.RowWidth();
        cursors[i] = heap.data() + i * 64;
        std::memset(rows[i], 0xFF, layout.ValidityBytes());
      }
      for (idx_t c = 0; c < types.size(); c++) {
        ScatterColumn(layout, c, input.column(c), sel_ptr, count, rows.data(),
                      cursors.data());
      }
      for (idx_t i = 0; i < count; i++) {
        const idx_t r = use_sel ? sel[i] : i;
        for (idx_t c = 0; c < types.size(); c++) {
          ExpectRowMatchesInput(layout, c, rows[i], input.column(c), r);
        }
        // A heap string lives in its row's heap area, not in the input.
        const idx_t vc = types.size() - 1;
        if (layout.RowIsColumnValid(rows[i], vc)) {
          string_t s;
          std::memcpy(&s, rows[i] + layout.ColumnOffset(vc), sizeof(s));
          if (!s.IsInlined()) {
            const auto *p = reinterpret_cast<const data_t *>(s.data());
            EXPECT_GE(p, heap.data() + i * 64);
            EXPECT_LE(p + s.size(), heap.data() + (i + 1) * 64);
          }
        }
      }

      out.Reset();
      for (idx_t c = 0; c < types.size(); c++) {
        GatherColumn(layout, c, rows.data(), count, out.column(c));
      }
      for (idx_t i = 0; i < count; i++) {
        const idx_t r = use_sel ? sel[i] : i;
        for (idx_t c = 0; c < types.size(); c++) {
          const Vector &in_vec = input.column(c);
          const Vector &out_vec = out.column(c);
          ASSERT_EQ(out_vec.validity().RowIsValid(i),
                    in_vec.validity().RowIsValid(r))
              << "row " << i << " col " << c;
          if (!in_vec.validity().RowIsValid(r)) {
            continue;
          }
          if (in_vec.type() == LogicalTypeId::kVarchar) {
            EXPECT_EQ(out_vec.GetString(i).View(), in_vec.GetString(r).View());
          } else {
            EXPECT_EQ(std::memcmp(out_vec.data() + i * out_vec.width(),
                                  in_vec.data() + r * in_vec.width(),
                                  in_vec.width()),
                      0);
          }
        }
      }
    }
  }
}

TEST_F(TupleDataTest, ScanGathersOnlyTheRequestedColumns) {
  BufferManager bm(temp_dir_, 64 * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(TestTypes());
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;
  DataChunk chunk(TestTypes());
  constexpr idx_t kRows = 3000;
  for (idx_t start = 0; start < kRows; start += kVectorSize) {
    idx_t n = std::min(kVectorSize, kRows - start);
    FillChunk(chunk, start, n);
    ASSERT_TRUE(data.AppendRows(append, chunk, nullptr, n, nullptr).ok());
  }
  append.Release();

  DataChunk out(TestTypes());
  // Sentinel in the column the scan must leave alone.
  std::memset(out.column(1).data(), 0x5A, kVectorSize * sizeof(string_t));
  std::vector<data_ptr_t> ptrs(kVectorSize);
  TupleDataScanState scan;
  data.InitScan(scan);
  idx_t seen = 0;
  while (true) {
    auto more = data.Scan(scan, {2, 0}, out, ptrs.data());
    ASSERT_TRUE(more.ok());
    if (!more.value()) {
      break;
    }
    for (idx_t i = 0; i < out.size(); i++) {
      idx_t id = static_cast<idx_t>(out.column(0).GetValue<int64_t>(i));
      EXPECT_EQ(id, seen + i);
      EXPECT_EQ(out.column(2).GetValue<double>(i), id * 0.5);
      int64_t stored;
      std::memcpy(&stored, ptrs[i] + layout.ColumnOffset(0), sizeof(stored));
      EXPECT_EQ(stored, static_cast<int64_t>(id));
      for (idx_t b = 0; b < sizeof(string_t); b++) {
        ASSERT_EQ(out.column(1).data()[i * sizeof(string_t) + b], 0x5A);
      }
    }
    seen += out.size();
  }
  EXPECT_EQ(seen, kRows);

  // No columns at all: the scan only positions the rows.
  DataChunk rows;
  data.InitScan(scan);
  auto more = data.Scan(scan, {}, rows, ptrs.data());
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(more.value());
  EXPECT_EQ(rows.size(), kVectorSize);
}

/// Long strings (about 90 per heap page) so a batch of rows spreads over
/// several heap pages; every 500th row holds one larger than a page.
std::string CopyTestString(idx_t id) {
  idx_t len = id % 500 == 7 ? kPageSize + 123 : 2500 + id % 700;
  std::string s(len, static_cast<char>('a' + id % 26));
  std::string tag = std::to_string(id);
  std::memcpy(s.data(), tag.data(), tag.size());
  s.back() = '#';
  return s;
}

TEST_F(TupleDataTest, RowCopiesSurviveSpillReloadAndSpillAgain) {
  // A pool far smaller than either collection: source pages are spilled
  // before the copy reads them back, and the copies spill again before
  // they are scanned.
  BufferManager bm(temp_dir_, 12 * kPageSize);
  const std::vector<LogicalTypeId> types = {
      LogicalTypeId::kInt64, LogicalTypeId::kVarchar, LogicalTypeId::kVarchar};
  // A wide state area keeps row pages short (~120 rows), so scanning one
  // row page pins only the few heap pages its rows reference.
  TupleDataLayout layout;
  layout.Initialize(types, /*aggregate_state_width=*/2000);
  TupleDataCollection source(bm, layout);
  TupleDataAppendState append;
  DataChunk chunk(types);
  constexpr idx_t kRows = 3000;
  // Small appends: one append's heap pages stay pinned until it returns.
  constexpr idx_t kBatch = 200;
  for (idx_t start = 0; start < kRows; start += kBatch) {
    idx_t n = std::min(kBatch, kRows - start);
    chunk.Reset();
    for (idx_t i = 0; i < n; i++) {
      idx_t id = start + i;
      chunk.column(0).SetValue<int64_t>(i, static_cast<int64_t>(id));
      chunk.column(1).SetString(i, CopyTestString(id));
      if (id % 5 == 0) {
        chunk.column(2).validity().SetInvalid(i);
      } else {
        chunk.column(2).SetString(i, id % 2 ? "short" : CopyTestString(id + 1));
      }
    }
    chunk.SetCount(n);
    ASSERT_TRUE(source.AppendRows(append, chunk, nullptr, n, nullptr).ok());
    append.Release();
  }
  EXPECT_GT(source.HeapPageCount(), 20u);
  const idx_t reads_before = bm.Snapshot().temp_reads;

  // Copy every third row, in reverse order within each chunk.
  TupleDataCollection target(bm, layout);
  TupleDataAppendState target_append;
  DataChunk scanned(types);
  std::vector<data_ptr_t> src_rows(kVectorSize);
  TupleDataScanState scan;
  source.InitScan(scan);
  idx_t copied = 0;
  std::vector<bool> copied_ids(kRows, false);
  while (true) {
    auto more = source.Scan(scan, {}, scanned, src_rows.data());
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) {
      break;
    }
    // Give every source row a state the copy must carry over.
    for (idx_t i = 0; i < scanned.size(); i++) {
      int64_t id;
      std::memcpy(&id, src_rows[i] + layout.ColumnOffset(0), sizeof(id));
      int64_t state = id * 7 + 1;
      std::memcpy(src_rows[i] + layout.AggregateOffset(), &state,
                  sizeof(state));
    }
    std::vector<idx_t> sel;
    for (idx_t i = scanned.size(); i-- > 0;) {
      if (i % 3 == 0) {
        sel.push_back(i);
      }
    }
    std::vector<data_ptr_t> copies(sel.size());
    ASSERT_TRUE(target
                    .AppendRowCopies(target_append, src_rows.data(), sel.data(),
                                     sel.size(), copies.data())
                    .ok());
    for (idx_t i = 0; i < sel.size(); i++) {
      ASSERT_EQ(std::memcmp(copies[i], src_rows[sel[i]],
                            layout.ColumnOffset(1)),
                0);
      int64_t id;
      std::memcpy(&id, copies[i] + layout.ColumnOffset(0), sizeof(id));
      copied_ids[id] = true;
    }
    copied += sel.size();
    target_append.Release();
  }
  EXPECT_GT(bm.Snapshot().temp_reads, reads_before)
      << "source pages were expected to be reloaded";
  // The copies own their strings: the source can go.
  source.Reset();
  EXPECT_EQ(target.Count(), copied);
  EXPECT_GT(target.SizeInBytes(), bm.memory_limit())
      << "the copies were expected to spill";

  // Scan the copies back, twice, each pass forcing the other's pages out.
  for (int pass = 0; pass < 2; pass++) {
    TupleDataScanState tscan;
    target.InitScan(tscan);
    idx_t seen = 0;
    std::vector<bool> seen_ids(kRows, false);
    while (true) {
      auto more = target.Scan(tscan, scanned, src_rows.data());
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!more.value()) {
        break;
      }
      for (idx_t i = 0; i < scanned.size(); i++) {
        auto id = static_cast<idx_t>(scanned.column(0).GetValue<int64_t>(i));
        ASSERT_LT(id, kRows);
        ASSERT_TRUE(copied_ids[id]);
        ASSERT_FALSE(seen_ids[id]);
        seen_ids[id] = true;
        ASSERT_EQ(scanned.column(1).GetString(i).ToString(), CopyTestString(id))
            << "pass " << pass << " id " << id;
        if (id % 5 == 0) {
          EXPECT_FALSE(scanned.column(2).validity().RowIsValid(i));
        } else {
          EXPECT_EQ(scanned.column(2).GetString(i).ToString(),
                    id % 2 ? "short" : CopyTestString(id + 1));
        }
        int64_t state;
        std::memcpy(&state, src_rows[i] + layout.AggregateOffset(),
                    sizeof(state));
        EXPECT_EQ(state, static_cast<int64_t>(id * 7 + 1));
      }
      seen += scanned.size();
    }
    EXPECT_EQ(seen, copied);
  }
}

}  // namespace
}  // namespace ssagg
