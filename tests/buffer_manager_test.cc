#include "buffer/buffer_manager.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/file_system.h"

namespace ssagg {
namespace {

constexpr idx_t kMiB = 1024 * 1024;

class BufferManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_bm_test_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

void FillPage(BufferHandle &handle, uint8_t seed) {
  std::memset(handle.Ptr(), seed, kPageSize);
}

bool CheckPage(BufferHandle &handle, uint8_t seed) {
  for (idx_t i = 0; i < kPageSize; i++) {
    if (handle.Ptr()[i] != seed) {
      return false;
    }
  }
  return true;
}

TEST_F(BufferManagerTest, AllocateAndPinFixedPage) {
  BufferManager bm(temp_dir_, 16 * kMiB);
  std::shared_ptr<BlockHandle> block;
  auto res = bm.Allocate(kPageSize, &block);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto handle = res.MoveValue();
  EXPECT_EQ(block->kind(), BlockKind::kTemporaryFixed);
  EXPECT_EQ(bm.memory_used(), kPageSize);
  FillPage(handle, 0xAB);
  handle.Reset();  // unpin; stays resident (ample memory)
  auto pin = bm.Pin(block);
  ASSERT_TRUE(pin.ok());
  auto h2 = pin.MoveValue();
  EXPECT_TRUE(CheckPage(h2, 0xAB));
  // No spill happened: memory was ample.
  EXPECT_EQ(bm.Snapshot().temp_writes, 0u);
}

TEST_F(BufferManagerTest, VariableSizeAllocation) {
  BufferManager bm(temp_dir_, 16 * kMiB);
  std::shared_ptr<BlockHandle> block;
  auto res = bm.Allocate(3 * kPageSize + 123, &block);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(block->kind(), BlockKind::kTemporaryVariable);
  EXPECT_EQ(bm.memory_used(), 3 * kPageSize + 123);
}

TEST_F(BufferManagerTest, EvictionSpillsAndReloads) {
  // Room for 4 pages; allocate 8, then read all back.
  BufferManager bm(temp_dir_, 4 * kPageSize);
  std::vector<std::shared_ptr<BlockHandle>> blocks(8);
  for (idx_t i = 0; i < 8; i++) {
    auto res = bm.Allocate(kPageSize, &blocks[i]);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    auto handle = res.MoveValue();
    FillPage(handle, static_cast<uint8_t>(i));
  }
  EXPECT_LE(bm.memory_used(), 4 * kPageSize);
  auto snap = bm.Snapshot();
  EXPECT_GE(snap.evicted_temporary_count, 4u);
  EXPECT_GT(snap.temp_writes, 0u);
  for (idx_t i = 0; i < 8; i++) {
    auto pin = bm.Pin(blocks[i]);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    auto handle = pin.MoveValue();
    EXPECT_TRUE(CheckPage(handle, static_cast<uint8_t>(i))) << "page " << i;
  }
}

TEST_F(BufferManagerTest, PinnedPagesCannotBeEvicted) {
  BufferManager bm(temp_dir_, 2 * kPageSize);
  std::shared_ptr<BlockHandle> b0, b1, b2;
  auto h0 = bm.Allocate(kPageSize, &b0).MoveValue();
  auto h1 = bm.Allocate(kPageSize, &b1).MoveValue();
  // Both pages pinned: a third allocation must fail.
  auto res = bm.Allocate(kPageSize, &b2);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsOutOfMemory());
  // After unpinning one, the allocation succeeds.
  h0.Reset();
  auto res2 = bm.Allocate(kPageSize, &b2);
  ASSERT_TRUE(res2.ok()) << res2.status().ToString();
}

TEST_F(BufferManagerTest, OutOfMemoryNamesWhatHoldsThePool) {
  // A 4-page pool held entirely by pins: two temporary pages, one
  // persistent page and half a page of non-paged memory. The rejected
  // reservation's Status must say who holds it, in the manager's own
  // numbers.
  auto block_mgr = FileBlockManager::Create(temp_dir_ + "/oom.db").MoveValue();
  block_id_t id = block_mgr->AllocateBlock();
  FileBuffer buf(kPageSize);
  std::memset(buf.data(), 7, kPageSize);
  ASSERT_TRUE(block_mgr->WriteBlock(id, buf).ok());

  BufferManager bm(temp_dir_, 4 * kPageSize);
  std::shared_ptr<BlockHandle> t0, t1;
  auto h0 = bm.Allocate(kPageSize, &t0).MoveValue();
  auto h1 = bm.Allocate(kPageSize, &t1).MoveValue();
  auto persistent = bm.RegisterPersistentBlock(*block_mgr, id);
  auto h2 = bm.Pin(persistent).MoveValue();
  auto non_paged = bm.AllocateNonPaged(kPageSize / 2).MoveValue();

  std::shared_ptr<BlockHandle> extra;
  auto res = bm.Allocate(kPageSize, &extra);
  ASSERT_FALSE(res.ok());
  ASSERT_TRUE(res.status().IsOutOfMemory());
  const std::string message = res.status().message();
  std::smatch m;
  ASSERT_TRUE(std::regex_search(
      message, m,
      std::regex("cannot reserve ([0-9]+) bytes: limit ([0-9]+), used "
                 "([0-9]+) \\(persistent ([0-9]+), temporary ([0-9]+), "
                 "non-paged ([0-9]+)\\), ([0-9]+) pinned buffers")))
      << message;
  auto number = [&](int i) { return std::stoull(m[i].str()); };
  BufferManagerSnapshot snap = bm.Snapshot();
  EXPECT_EQ(number(1), kPageSize);
  EXPECT_EQ(number(2), snap.memory_limit);
  EXPECT_EQ(number(3), snap.memory_used);
  EXPECT_EQ(number(4), snap.persistent_bytes_in_memory);
  EXPECT_EQ(number(5), snap.temporary_bytes_in_memory);
  EXPECT_EQ(number(6), snap.non_paged_bytes);
  EXPECT_EQ(number(7), snap.pinned_buffers);
  // And the numbers are the ones this test put there.
  EXPECT_EQ(snap.memory_used, 3 * kPageSize + kPageSize / 2);
  EXPECT_EQ(snap.persistent_bytes_in_memory, kPageSize);
  EXPECT_EQ(snap.temporary_bytes_in_memory, 2 * kPageSize);
  EXPECT_EQ(snap.non_paged_bytes, kPageSize / 2);
  EXPECT_EQ(snap.pinned_buffers, 3u);
  EXPECT_EQ(snap.oom_rejections, 1u);
}

TEST_F(BufferManagerTest, BufferReuseOnSameSizeAllocation) {
  BufferManager bm(temp_dir_, 2 * kPageSize);
  std::shared_ptr<BlockHandle> b0;
  {
    auto h = bm.Allocate(kPageSize, &b0).MoveValue();
    FillPage(h, 1);
  }
  std::shared_ptr<BlockHandle> b1;
  {
    auto h = bm.Allocate(kPageSize, &b1).MoveValue();
    FillPage(h, 2);
  }
  // Third allocation evicts one of the unpinned pages and reuses the buffer.
  std::shared_ptr<BlockHandle> b2;
  auto h2 = bm.Allocate(kPageSize, &b2).MoveValue();
  EXPECT_GE(bm.Snapshot().reused_buffers, 1u);
}

TEST_F(BufferManagerTest, DestroyBlockFreesMemory) {
  BufferManager bm(temp_dir_, 16 * kMiB);
  std::shared_ptr<BlockHandle> block;
  { auto h = bm.Allocate(kPageSize, &block).MoveValue(); }
  EXPECT_EQ(bm.memory_used(), kPageSize);
  bm.DestroyBlock(block);
  EXPECT_EQ(bm.memory_used(), 0u);
  auto pin = bm.Pin(block);
  EXPECT_FALSE(pin.ok());
}

TEST_F(BufferManagerTest, DestroySpilledBlockFreesTempSpace) {
  BufferManager bm(temp_dir_, 2 * kPageSize);
  std::vector<std::shared_ptr<BlockHandle>> blocks(4);
  for (idx_t i = 0; i < 4; i++) {
    auto h = bm.Allocate(kPageSize, &blocks[i]).MoveValue();
  }
  EXPECT_GT(bm.Snapshot().temp_file_size, 0u);
  for (auto &b : blocks) {
    bm.DestroyBlock(b);
  }
  EXPECT_EQ(bm.Snapshot().temp_file_size, 0u);
}

TEST_F(BufferManagerTest, DroppingHandleReleasesEverything) {
  BufferManager bm(temp_dir_, 2 * kPageSize);
  {
    std::vector<std::shared_ptr<BlockHandle>> blocks(4);
    for (idx_t i = 0; i < 4; i++) {
      auto h = bm.Allocate(kPageSize, &blocks[i]).MoveValue();
    }
  }  // all handles dropped
  EXPECT_EQ(bm.memory_used(), 0u);
  EXPECT_EQ(bm.Snapshot().temp_file_size, 0u);
}

TEST_F(BufferManagerTest, CanDestroyBlocksAreDroppedNotSpilled) {
  BufferManager bm(temp_dir_, 2 * kPageSize);
  std::vector<std::shared_ptr<BlockHandle>> blocks(4);
  for (idx_t i = 0; i < 4; i++) {
    auto res = bm.Allocate(kPageSize, &blocks[i], /*can_destroy=*/true);
    ASSERT_TRUE(res.ok());
  }
  EXPECT_EQ(bm.Snapshot().temp_writes, 0u);
  // The evicted blocks cannot be pinned again.
  int destroyed = 0;
  for (auto &b : blocks) {
    if (!bm.Pin(b).ok()) {
      destroyed++;
    }
  }
  EXPECT_GE(destroyed, 2);
}

TEST_F(BufferManagerTest, NonPagedAllocationCountsAndEvicts) {
  BufferManager bm(temp_dir_, 4 * kPageSize);
  std::vector<std::shared_ptr<BlockHandle>> blocks(4);
  for (idx_t i = 0; i < 4; i++) {
    auto h = bm.Allocate(kPageSize, &blocks[i]).MoveValue();
    FillPage(h, static_cast<uint8_t>(i));
  }
  // Memory is full of unpinned pages; a non-paged allocation evicts them.
  auto res = bm.AllocateNonPaged(2 * kPageSize);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto alloc = res.MoveValue();
  EXPECT_EQ(alloc.size(), 2 * kPageSize);
  EXPECT_LE(bm.memory_used(), 4 * kPageSize);
  EXPECT_GE(bm.Snapshot().evicted_temporary_count, 2u);
  // Contents of evicted blocks survive.
  auto pin = bm.Pin(blocks[0]);
  ASSERT_TRUE(pin.ok());
  auto h = pin.MoveValue();
  EXPECT_TRUE(CheckPage(h, 0));
}

TEST_F(BufferManagerTest, NonPagedAllocationTooLargeFails) {
  BufferManager bm(temp_dir_, kPageSize);
  auto res = bm.AllocateNonPaged(2 * kPageSize);
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsOutOfMemory());
  EXPECT_EQ(bm.memory_used(), 0u);
}

TEST_F(BufferManagerTest, PersistentBlocksEvictForFree) {
  std::string db_path = temp_dir_ + "/test.db";
  auto bm_res = FileBlockManager::Create(db_path);
  ASSERT_TRUE(bm_res.ok());
  auto block_mgr = bm_res.MoveValue();
  BufferManager bm(temp_dir_, 2 * kPageSize);

  // Write 4 persistent blocks directly.
  std::vector<block_id_t> ids;
  FileBuffer buf(kPageSize);
  for (idx_t i = 0; i < 4; i++) {
    block_id_t id = block_mgr->AllocateBlock();
    std::memset(buf.data(), static_cast<int>(i + 10), kPageSize);
    ASSERT_TRUE(block_mgr->WriteBlock(id, buf).ok());
    ids.push_back(id);
  }
  // Register + pin all 4 through a 2-page pool: persistent pages get
  // evicted without temp-file writes.
  std::vector<std::shared_ptr<BlockHandle>> handles;
  for (auto id : ids) {
    handles.push_back(bm.RegisterPersistentBlock(*block_mgr, id));
  }
  for (idx_t i = 0; i < 4; i++) {
    auto pin = bm.Pin(handles[i]);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    auto h = pin.MoveValue();
    EXPECT_EQ(h.Ptr()[0], static_cast<uint8_t>(i + 10));
  }
  auto snap = bm.Snapshot();
  EXPECT_GE(snap.evicted_persistent_count, 2u);
  EXPECT_EQ(snap.temp_writes, 0u);
  // Re-pinning reloads from the database file.
  auto pin = bm.Pin(handles[0]);
  ASSERT_TRUE(pin.ok());
  auto h = pin.MoveValue();
  EXPECT_EQ(h.Ptr()[0], 10);
}

TEST_F(BufferManagerTest, TemporaryFirstSparesPersistentPages) {
  std::string db_path = temp_dir_ + "/policy.db";
  auto block_mgr = FileBlockManager::Create(db_path).MoveValue();
  FileBuffer buf(kPageSize);
  std::vector<block_id_t> ids;
  for (idx_t i = 0; i < 2; i++) {
    block_id_t id = block_mgr->AllocateBlock();
    std::memset(buf.data(), 7, kPageSize);
    ASSERT_TRUE(block_mgr->WriteBlock(id, buf).ok());
    ids.push_back(id);
  }

  BufferManager bm(temp_dir_, 4 * kPageSize, EvictionPolicy::kTemporaryFirst);
  // Load 2 persistent + 2 temporary pages (pool now full), then allocate:
  // the temporary pages must be evicted first.
  std::vector<std::shared_ptr<BlockHandle>> persistent;
  for (auto id : ids) {
    persistent.push_back(bm.RegisterPersistentBlock(*block_mgr, id));
    auto pin = bm.Pin(persistent.back());
    ASSERT_TRUE(pin.ok());
  }
  std::vector<std::shared_ptr<BlockHandle>> temps(2);
  for (idx_t i = 0; i < 2; i++) {
    auto h = bm.Allocate(kPageSize, &temps[i]).MoveValue();
  }
  std::shared_ptr<BlockHandle> extra;
  auto h = bm.Allocate(kPageSize, &extra).MoveValue();
  auto snap = bm.Snapshot();
  EXPECT_GE(snap.evicted_temporary_count, 1u);
  EXPECT_EQ(snap.evicted_persistent_count, 0u);
}

TEST_F(BufferManagerTest, PersistentFirstSparesTemporaryPages) {
  std::string db_path = temp_dir_ + "/policy2.db";
  auto block_mgr = FileBlockManager::Create(db_path).MoveValue();
  FileBuffer buf(kPageSize);
  std::vector<block_id_t> ids;
  for (idx_t i = 0; i < 2; i++) {
    block_id_t id = block_mgr->AllocateBlock();
    std::memset(buf.data(), 7, kPageSize);
    ASSERT_TRUE(block_mgr->WriteBlock(id, buf).ok());
    ids.push_back(id);
  }
  BufferManager bm(temp_dir_, 4 * kPageSize,
                   EvictionPolicy::kPersistentFirst);
  std::vector<std::shared_ptr<BlockHandle>> persistent;
  for (auto id : ids) {
    persistent.push_back(bm.RegisterPersistentBlock(*block_mgr, id));
    auto pin = bm.Pin(persistent.back());
    ASSERT_TRUE(pin.ok());
  }
  std::vector<std::shared_ptr<BlockHandle>> temps(2);
  for (idx_t i = 0; i < 2; i++) {
    auto h = bm.Allocate(kPageSize, &temps[i]).MoveValue();
  }
  std::shared_ptr<BlockHandle> extra;
  auto h = bm.Allocate(kPageSize, &extra).MoveValue();
  auto snap = bm.Snapshot();
  EXPECT_GE(snap.evicted_persistent_count, 1u);
  EXPECT_EQ(snap.evicted_temporary_count, 0u);
  EXPECT_EQ(snap.temp_writes, 0u);
}

TEST_F(BufferManagerTest, ConcurrentAllocatePinStress) {
  BufferManager bm(temp_dir_, 8 * kPageSize);
  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&bm, &failures, t]() {
      std::vector<std::shared_ptr<BlockHandle>> blocks(kPagesPerThread);
      for (int i = 0; i < kPagesPerThread; i++) {
        auto res = bm.Allocate(kPageSize, &blocks[i]);
        if (!res.ok()) {
          failures++;
          return;
        }
        auto handle = res.MoveValue();
        std::memset(handle.Ptr(), t * kPagesPerThread + i, kPageSize);
      }
      for (int round = 0; round < 3; round++) {
        for (int i = 0; i < kPagesPerThread; i++) {
          auto pin = bm.Pin(blocks[i]);
          if (!pin.ok()) {
            failures++;
            return;
          }
          auto handle = pin.MoveValue();
          uint8_t expected = static_cast<uint8_t>(t * kPagesPerThread + i);
          if (handle.Ptr()[0] != expected ||
              handle.Ptr()[kPageSize - 1] != expected) {
            failures++;
            return;
          }
        }
      }
    });
  }
  for (auto &th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(bm.memory_used(), 8 * kPageSize);
}

TEST_F(BufferManagerTest, SnapshotTracksLoadedKinds) {
  BufferManager bm(temp_dir_, 16 * kMiB);
  std::shared_ptr<BlockHandle> block;
  auto h = bm.Allocate(kPageSize, &block).MoveValue();
  auto snap = bm.Snapshot();
  EXPECT_EQ(snap.temporary_bytes_in_memory, kPageSize);
  EXPECT_EQ(snap.persistent_bytes_in_memory, 0u);
}

}  // namespace
}  // namespace ssagg
