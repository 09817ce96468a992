// Runtime lock-rank enforcement (DESIGN.md section 14). Active only in
// builds with SSAGG_LOCK_RANK_CHECKS (sanitizer / Debug); elsewhere every
// test skips so the suite stays green in release CI legs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/file_system.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "execution/collectors.h"
#include "execution/range_source.h"
#include "service/query_service.h"

namespace ssagg {
namespace {

#if defined(SSAGG_LOCK_RANK_CHECKS)

/// Counts violations without dying, restoring abort-on-violation on exit so
/// a failure here cannot defuse the checker for the rest of the process.
class ViolationProbe {
 public:
  ViolationProbe() : baseline_(lock_rank::ViolationCount()) {
    lock_rank::SetAbortOnViolation(false);
  }
  ~ViolationProbe() { lock_rank::SetAbortOnViolation(true); }
  std::uint64_t NewViolations() const {
    return lock_rank::ViolationCount() - baseline_;
  }

 private:
  std::uint64_t baseline_;
};

TEST(LockRankTest, OutOfHierarchyAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex queue_rank{LockRank::kEvictionQueue, "test_queue"};
  Mutex block_rank{LockRank::kBlockHandle, "test_block"};
  EXPECT_DEATH(
      {
        ScopedLock outer(queue_rank);
        ScopedLock inner(block_rank);  // 50 held, blocking on 30: inverted.
      },
      "lock-rank violation.*\"test_block\".*rank 30.*\"test_queue\".*rank 50");
}

TEST(LockRankTest, IncreasingRanksAreClean) {
  ViolationProbe probe;
  Mutex block_rank{LockRank::kBlockHandle, "test_block"};
  Mutex queue_rank{LockRank::kEvictionQueue, "test_queue"};
  Mutex tfm_rank{LockRank::kTempFileManager, "test_tfm"};
  {
    ScopedLock a(block_rank);
    ScopedLock b(queue_rank);
    ScopedLock c(tfm_rank);
  }
  EXPECT_EQ(probe.NewViolations(), 0u);
}

TEST(LockRankTest, TryLockAgainstTheHierarchyIsExempt) {
  ViolationProbe probe;
  Mutex queue_rank{LockRank::kEvictionQueue, "test_queue"};
  Mutex block_rank{LockRank::kBlockHandle, "test_block"};
  ScopedLock outer(queue_rank);
  // The eviction escape hatch: try_lock cannot deadlock, so acquiring
  // downward with it is legal.
  ASSERT_TRUE(block_rank.try_lock());
  EXPECT_EQ(probe.NewViolations(), 0u);
  // But the try-locked mutex still counts as held: blocking on an equal or
  // lower rank now is a violation.
  Mutex other_block{LockRank::kBlockHandle, "test_block2"};
  other_block.lock();
  EXPECT_EQ(probe.NewViolations(), 1u);
  other_block.unlock();
  block_rank.unlock();
}

TEST(LockRankTest, NonLifoReleaseStaysBalanced) {
  ViolationProbe probe;
  Mutex block_rank{LockRank::kBlockHandle, "test_block"};
  Mutex queue_rank{LockRank::kEvictionQueue, "test_queue"};
  block_rank.lock();
  queue_rank.lock();
  // EvictBlocks drops its batch in arbitrary order; release the older lock
  // first and make sure the held stack stays consistent.
  block_rank.unlock();
  queue_rank.unlock();
  block_rank.lock();  // must not see a stale "queue held" entry
  block_rank.unlock();
  EXPECT_EQ(probe.NewViolations(), 0u);
}

TEST(LockRankTest, UnrankedLocksOptOut) {
  ViolationProbe probe;
  Mutex queue_rank{LockRank::kEvictionQueue, "test_queue"};
  Mutex plain;  // kUnranked: short-lived test/bench locks skip the check
  ScopedLock outer(queue_rank);
  plain.lock();
  plain.unlock();
  EXPECT_EQ(probe.NewViolations(), 0u);
}

TEST(LockRankTest, SharedMutexRanksBothModes) {
  ViolationProbe probe;
  SharedMutex table{LockRank::kDataTableHandles, "test_table"};
  Mutex block_rank{LockRank::kBlockHandle, "test_block"};
  {
    SharedLock read(table);
    ScopedLock inner(block_rank);  // 12 -> 30: fine in shared mode
  }
  EXPECT_EQ(probe.NewViolations(), 0u);
  // A fresh SharedMutex for the violating half: with aborts off the inverted
  // acquisition really happens, and TSan's own lock-order detector must not
  // observe a cycle on the same mutex pair as the clean half above.
  SharedMutex table2{LockRank::kDataTableHandles, "test_table2"};
  {
    ScopedLock held(block_rank);
    ExclusiveLock write(table2);  // 30 held, blocking on 12: inverted
  }
  EXPECT_EQ(probe.NewViolations(), 1u);
}

/// The documented real flows must run violation-free end to end.
class LockRankFlowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ =
        ::testing::TempDir() + "ssagg_lock_rank_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

TEST_F(LockRankFlowTest, EvictionScanAndSpillWriteRunClean) {
  ViolationProbe probe;
  // Capacity for two pages: the third allocation forces an eviction scan
  // (BlockHandle -> queue -> TemporaryFileManager) and a spill write.
  BufferManager bm(temp_dir_, 2 * kPageSize);
  std::vector<std::shared_ptr<BlockHandle>> blocks(2);
  for (auto &block : blocks) {
    auto h = bm.Allocate(kPageSize, &block).MoveValue();
  }
  std::shared_ptr<BlockHandle> extra;
  ASSERT_TRUE(bm.Allocate(kPageSize, &extra).ok());
  EXPECT_GE(bm.Snapshot().evicted_temporary_count, 1u);
  // Reloading an evicted page exercises the spill-read side too.
  for (auto &block : blocks) {
    auto pin = bm.Pin(block);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  }
  EXPECT_EQ(probe.NewViolations(), 0u);
}

TEST_F(LockRankFlowTest, ServiceSessionRunsClean) {
  ViolationProbe probe;
  // Admission (QueryService::lock_) hands the session to its executor,
  // whose workers spill through the shared pool: every rank from 10 to the
  // temporary-file manager's is taken on one run.
  BufferManager bm(temp_dir_, 24 * kPageSize);
  QueryService service(bm);
  RangeSource source({LogicalTypeId::kInt64, LogicalTypeId::kInt64}, 250000,
                     [](DataChunk &chunk, idx_t start, idx_t count) {
                       for (idx_t i = 0; i < count; i++) {
                         auto row = static_cast<int64_t>(start + i);
                         chunk.column(0).SetValue<int64_t>(i, row);
                         chunk.column(1).SetValue<int64_t>(i, row);
                       }
                       return Status::OK();
                     });
  CountingCollector collector;
  QuerySpec spec;
  spec.source = &source;
  spec.group_columns = {0};
  spec.aggregates = {{AggregateKind::kSum, 1}};
  spec.output = &collector;
  spec.config.phase1_capacity = 512;
  spec.config.radix_bits = 3;
  spec.threads = 1;
  auto stats = service.Execute(spec);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(collector.TotalRows(), 250000u);
  EXPECT_GT(bm.Snapshot().temp_writes, 0u) << "the session never spilled";
  EXPECT_EQ(probe.NewViolations(), 0u);
}

#else  // !SSAGG_LOCK_RANK_CHECKS

TEST(LockRankTest, ChecksCompiledOut) {
  GTEST_SKIP() << "SSAGG_LOCK_RANK_CHECKS is not enabled in this build "
                  "(sanitizer / Debug only)";
}

#endif  // SSAGG_LOCK_RANK_CHECKS

}  // namespace
}  // namespace ssagg
