#include "core/physical_hash_join.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "ssagg/ssagg.h"

namespace ssagg {
namespace {

class HashJoinTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_join_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  idx_t Threads() const { return static_cast<idx_t>(GetParam()); }
  std::string temp_dir_;
};

// Build side: dimension table (id, name). Probe side: fact table
// (fk, amount).
RangeSource MakeDim(idx_t rows) {
  return RangeSource({LogicalTypeId::kInt64, LogicalTypeId::kVarchar}, rows,
                     [](DataChunk &chunk, idx_t start, idx_t count) {
                       for (idx_t i = 0; i < count; i++) {
                         idx_t row = start + i;
                         chunk.column(0).SetValue<int64_t>(
                             i, static_cast<int64_t>(row));
                         chunk.column(1).SetString(
                             i, "dimension_name_" + std::to_string(row));
                       }
                       return Status::OK();
                     });
}

RangeSource MakeFact(idx_t rows, idx_t fk_domain) {
  return RangeSource({LogicalTypeId::kInt64, LogicalTypeId::kInt64}, rows,
                     [fk_domain](DataChunk &chunk, idx_t start, idx_t count) {
                       for (idx_t i = 0; i < count; i++) {
                         idx_t row = start + i;
                         chunk.column(0).SetValue<int64_t>(
                             i, static_cast<int64_t>(HashUint64(row) %
                                                     fk_domain));
                         chunk.column(1).SetValue<int64_t>(
                             i, static_cast<int64_t>(row));
                       }
                       return Status::OK();
                     });
}

TEST_P(HashJoinTest, InnerJoinFactToDimension) {
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  TaskExecutor executor(Threads());
  constexpr idx_t kDim = 5000;
  constexpr idx_t kFact = 100000;
  auto join = PhysicalHashJoin::Create(
                  bm,
                  /*build=*/{LogicalTypeId::kInt64, LogicalTypeId::kVarchar},
                  {0},
                  /*probe=*/{LogicalTypeId::kInt64, LogicalTypeId::kInt64},
                  {0})
                  .MoveValue();
  auto dim = MakeDim(kDim);
  auto fact = MakeFact(kFact, kDim);  // every fact row matches exactly once
  ASSERT_TRUE(executor.RunPipeline(dim, join->build_sink()).ok());
  ASSERT_TRUE(executor.RunPipeline(fact, join->probe_sink()).ok());
  EXPECT_EQ(join->BuildRowCount(), kDim);
  EXPECT_EQ(join->ProbeRowCount(), kFact);
  MaterializedCollector collector;
  ASSERT_TRUE(join->EmitResults(collector, executor).ok());
  ASSERT_EQ(collector.RowCount(), kFact);
  // Output: [fk, amount, id, name]; check the join predicate and payloads.
  std::set<int64_t> amounts;
  for (const auto &row : collector.rows()) {
    EXPECT_EQ(row[0].GetInt64(), row[2].GetInt64());
    EXPECT_EQ(row[3].GetString(),
              "dimension_name_" + std::to_string(row[2].GetInt64()));
    amounts.insert(row[1].GetInt64());
  }
  EXPECT_EQ(amounts.size(), kFact);  // every fact row appears exactly once
}

TEST_P(HashJoinTest, DuplicateBuildKeysMultiplyMatches) {
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  TaskExecutor executor(Threads());
  // Build: keys 0..9, each appearing 3 times. Probe: keys 0..19 once each.
  RangeSource build({LogicalTypeId::kInt64, LogicalTypeId::kInt64}, 30,
                    [](DataChunk &chunk, idx_t start, idx_t count) {
                      for (idx_t i = 0; i < count; i++) {
                        chunk.column(0).SetValue<int64_t>(
                            i, static_cast<int64_t>((start + i) % 10));
                        chunk.column(1).SetValue<int64_t>(
                            i, static_cast<int64_t>(start + i));
                      }
                      return Status::OK();
                    });
  RangeSource probe({LogicalTypeId::kInt64}, 20,
                    [](DataChunk &chunk, idx_t start, idx_t count) {
                      for (idx_t i = 0; i < count; i++) {
                        chunk.column(0).SetValue<int64_t>(
                            i, static_cast<int64_t>(start + i));
                      }
                      return Status::OK();
                    });
  auto join = PhysicalHashJoin::Create(
                  bm, {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, {0},
                  {LogicalTypeId::kInt64}, {0})
                  .MoveValue();
  ASSERT_TRUE(executor.RunPipeline(build, join->build_sink()).ok());
  ASSERT_TRUE(executor.RunPipeline(probe, join->probe_sink()).ok());
  MaterializedCollector collector;
  ASSERT_TRUE(join->EmitResults(collector, executor).ok());
  // Probe keys 0..9 match 3 build rows each; keys 10..19 match none.
  EXPECT_EQ(collector.RowCount(), 30u);
  std::map<int64_t, int> matches;
  for (const auto &row : collector.rows()) {
    matches[row[0].GetInt64()]++;
  }
  for (int64_t k = 0; k < 10; k++) {
    EXPECT_EQ(matches[k], 3) << "key " << k;
  }
  EXPECT_EQ(matches.count(15), 0u);
}

TEST_P(HashJoinTest, NullKeysNeverMatch) {
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  TaskExecutor executor(1);
  RangeSource build({LogicalTypeId::kInt64}, 4,
                    [](DataChunk &chunk, idx_t start, idx_t count) {
                      for (idx_t i = 0; i < count; i++) {
                        chunk.column(0).SetValue<int64_t>(
                            i, static_cast<int64_t>(start + i));
                        if ((start + i) % 2 == 0) {
                          chunk.column(0).validity().SetInvalid(i);
                        }
                      }
                      return Status::OK();
                    });
  RangeSource probe({LogicalTypeId::kInt64}, 4,
                    [](DataChunk &chunk, idx_t start, idx_t count) {
                      for (idx_t i = 0; i < count; i++) {
                        chunk.column(0).SetValue<int64_t>(
                            i, static_cast<int64_t>(start + i));
                        if ((start + i) % 2 == 0) {
                          chunk.column(0).validity().SetInvalid(i);
                        }
                      }
                      return Status::OK();
                    });
  auto join = PhysicalHashJoin::Create(bm, {LogicalTypeId::kInt64}, {0},
                                       {LogicalTypeId::kInt64}, {0})
                  .MoveValue();
  ASSERT_TRUE(executor.RunPipeline(build, join->build_sink()).ok());
  ASSERT_TRUE(executor.RunPipeline(probe, join->probe_sink()).ok());
  MaterializedCollector collector;
  ASSERT_TRUE(join->EmitResults(collector, executor).ok());
  // Only the non-NULL keys 1 and 3 match (each once).
  EXPECT_EQ(collector.RowCount(), 2u);
}

TEST_P(HashJoinTest, StringKeysAndLargerThanMemoryJoin) {
  // Both sides exceed the pool: materialization spills, partitions reload,
  // string keys survive via pointer recomputation. The limit respects the
  // materialization pin floor (threads x partitions x 2 build pages).
  BufferManager bm(temp_dir_, 224 * kPageSize);  // 56 MiB
  TaskExecutor executor(Threads());
  constexpr idx_t kDim = 400000;
  constexpr idx_t kFact = 800000;
  RangeSource build({LogicalTypeId::kVarchar, LogicalTypeId::kInt64}, kDim,
                    [](DataChunk &chunk, idx_t start, idx_t count) {
                      for (idx_t i = 0; i < count; i++) {
                        idx_t row = start + i;
                        chunk.column(0).SetString(
                            i, "join_key_string_" + std::to_string(row));
                        chunk.column(1).SetValue<int64_t>(
                            i, static_cast<int64_t>(row * 2));
                      }
                      return Status::OK();
                    });
  RangeSource probe({LogicalTypeId::kVarchar}, kFact,
                    [](DataChunk &chunk, idx_t start, idx_t count) {
                      for (idx_t i = 0; i < count; i++) {
                        idx_t row = start + i;
                        chunk.column(0).SetString(
                            i, "join_key_string_" +
                                   std::to_string(HashUint64(row) % kDim));
                      }
                      return Status::OK();
                    });
  HashJoinConfig config;
  config.radix_bits = 5;
  auto join = PhysicalHashJoin::Create(
                  bm, {LogicalTypeId::kVarchar, LogicalTypeId::kInt64}, {0},
                  {LogicalTypeId::kVarchar}, {0}, config)
                  .MoveValue();
  ASSERT_TRUE(executor.RunPipeline(build, join->build_sink()).ok());
  ASSERT_TRUE(executor.RunPipeline(probe, join->probe_sink()).ok());
  EXPECT_GT(bm.Snapshot().temp_writes, 0u) << "expected spilling";
  CountingCollector collector;
  ASSERT_TRUE(join->EmitResults(collector, executor).ok());
  EXPECT_EQ(collector.TotalRows(), kFact);  // every probe row matches once
  EXPECT_EQ(bm.memory_used(), 0u);
  EXPECT_EQ(bm.Snapshot().temp_file_size, 0u);
}

//===----------------------------------------------------------------------===//
// Oracle: the exact multiset of joined rows against a nested-map reference
//===----------------------------------------------------------------------===//

// Keys of both inlined (<= 12 bytes) and non-inlined strings.
std::string KeyString(int64_t v) {
  return v % 2 != 0 ? "k" + std::to_string(v)
                    : "join_key_long_" + std::to_string(v);
}

// Build: (k1 BIGINT, k2 VARCHAR, payload VARCHAR, id BIGINT). Keys repeat
// a random number of times (0 to several); every column has NULLs but id.
struct OracleBuild {
  idx_t domain;
  std::vector<LogicalTypeId> Types() const {
    return {LogicalTypeId::kInt64, LogicalTypeId::kVarchar,
            LogicalTypeId::kVarchar, LogicalTypeId::kInt64};
  }
  std::vector<Value> Row(idx_t i) const {
    const auto v = static_cast<int64_t>(HashUint64(i) % domain);
    return {i % 17 == 3 ? Value::Null(LogicalTypeId::kInt64) : Value::Int64(v),
            i % 23 == 5 ? Value::Null(LogicalTypeId::kVarchar)
                        : Value::String(KeyString(v)),
            i % 11 == 0 ? Value::Null(LogicalTypeId::kVarchar)
                        : Value::String("build_payload_" + std::to_string(i) +
                                        "_not_inlined"),
            Value::Int64(static_cast<int64_t>(i))};
  }
};

// Probe: (payload VARCHAR, k1 BIGINT, k2 VARCHAR), keys drawn from twice
// the build's domain (about half match nothing); every fifth k2 is off by
// one so two-column keys miss where k1 alone would match.
struct OracleProbe {
  idx_t domain;
  std::vector<LogicalTypeId> Types() const {
    return {LogicalTypeId::kVarchar, LogicalTypeId::kInt64,
            LogicalTypeId::kVarchar};
  }
  std::vector<Value> Row(idx_t j) const {
    const auto v = static_cast<int64_t>(HashUint64(j + 1000003) % (2 * domain));
    return {j % 13 == 0 ? Value::Null(LogicalTypeId::kVarchar)
                        : Value::String("probe_payload_" + std::to_string(j) +
                                        "_not_inlined"),
            j % 19 == 7 ? Value::Null(LogicalTypeId::kInt64) : Value::Int64(v),
            j % 29 == 4 ? Value::Null(LogicalTypeId::kVarchar)
                        : Value::String(KeyString(j % 5 == 0 ? v + 1 : v))};
  }
};

template <typename Side>
RangeSource OracleSource(Side side, idx_t rows) {
  return RangeSource(side.Types(), rows,
                     [side](DataChunk &chunk, idx_t start, idx_t count) {
                       for (idx_t i = 0; i < count; i++) {
                         const auto row = side.Row(start + i);
                         for (idx_t c = 0; c < row.size(); c++) {
                           Vector &vec = chunk.column(c);
                           if (row[c].IsNull()) {
                             vec.validity().SetInvalid(i);
                           } else if (vec.type() == LogicalTypeId::kVarchar) {
                             vec.SetString(i, row[c].GetString());
                           } else {
                             vec.SetValue<int64_t>(i, row[c].GetInt64());
                           }
                         }
                       }
                       return Status::OK();
                     });
}

std::string Flatten(const std::vector<Value> &values) {
  std::string flat;
  for (const auto &value : values) {
    flat += value.ToString();
    flat += '|';
  }
  return flat;
}

// The key of `row` as one string, or nothing if any key column is NULL.
bool KeyOf(const std::vector<Value> &row, const std::vector<idx_t> &keys,
           std::string *key) {
  key->clear();
  for (idx_t k : keys) {
    if (row[k].IsNull()) {
      return false;
    }
    *key += row[k].ToString();
    *key += '|';
  }
  return true;
}

/// Sorted flattened rows of probe ⋈ build on the given keys.
std::vector<std::string> ReferenceJoin(const OracleBuild &build,
                                       idx_t build_rows,
                                       const std::vector<idx_t> &build_keys,
                                       const OracleProbe &probe,
                                       idx_t probe_rows,
                                       const std::vector<idx_t> &probe_keys) {
  std::unordered_multimap<std::string, std::string> table;
  std::string key;
  for (idx_t i = 0; i < build_rows; i++) {
    const auto row = build.Row(i);
    if (KeyOf(row, build_keys, &key)) {
      table.emplace(key, Flatten(row));
    }
  }
  std::vector<std::string> out;
  for (idx_t j = 0; j < probe_rows; j++) {
    const auto row = probe.Row(j);
    if (!KeyOf(row, probe_keys, &key)) {
      continue;
    }
    auto [begin, end] = table.equal_range(key);
    for (auto it = begin; it != end; ++it) {
      out.push_back(Flatten(row) + it->second);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct OracleCase {
  const char *name;
  std::vector<idx_t> build_keys;
  std::vector<idx_t> probe_keys;
};

std::vector<OracleCase> OracleCases() {
  return {{"int64", {0}, {1}},
          {"string", {1}, {2}},
          {"int64+string", {0, 1}, {1, 2}}};
}

/// Runs the join and checks its output rows against the reference.
void CheckAgainstOracle(BufferManager &bm, TaskExecutor &executor,
                        const OracleCase &c, idx_t build_rows,
                        idx_t probe_rows, HashJoinConfig config) {
  SCOPED_TRACE(c.name);
  const OracleBuild build{build_rows / 2};
  const OracleProbe probe{build_rows / 2};
  auto join = PhysicalHashJoin::Create(bm, build.Types(), c.build_keys,
                                       probe.Types(), c.probe_keys, config);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  auto build_source = OracleSource(build, build_rows);
  auto probe_source = OracleSource(probe, probe_rows);
  ASSERT_TRUE(
      executor.RunPipeline(build_source, join.value()->build_sink()).ok());
  ASSERT_TRUE(
      executor.RunPipeline(probe_source, join.value()->probe_sink()).ok());
  MaterializedCollector collector;
  Status status = join.value()->EmitResults(collector, executor);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<std::string> got;
  for (const auto &row : collector.rows()) {
    got.push_back(Flatten(row));
  }
  std::sort(got.begin(), got.end());
  const auto expected = ReferenceJoin(build, build_rows, c.build_keys, probe,
                                      probe_rows, c.probe_keys);
  ASSERT_GT(expected.size(), 0u);
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected) << "joined rows differ from the reference";
}

TEST_P(HashJoinTest, MatchesReferenceOracle) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  TaskExecutor executor(Threads());
  for (const OracleCase &c : OracleCases()) {
    CheckAgainstOracle(bm, executor, c, 6000, 9000, HashJoinConfig{});
    EXPECT_EQ(bm.memory_used(), 0u);
  }
}

TEST_P(HashJoinTest, MatchesReferenceOracleWhileSpilling) {
  // About 15 MiB of rows through a 10 MiB pool.
  BufferManager bm(temp_dir_, 40 * kPageSize);
  TaskExecutor executor(Threads());
  HashJoinConfig config;
  config.radix_bits = 2;
  CheckAgainstOracle(bm, executor, OracleCases()[2], 40000, 100000, config);
  EXPECT_GT(bm.Snapshot().temp_writes, 0u) << "expected spilling";
  EXPECT_EQ(bm.memory_used(), 0u);
  EXPECT_EQ(bm.Snapshot().temp_file_size, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, HashJoinTest, ::testing::Values(1, 3));

}  // namespace
}  // namespace ssagg
