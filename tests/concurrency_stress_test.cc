// Thread-interleaving stress for the shared subsystems this PR annotated:
// the buffer manager (pin/unpin/evict/destroy churn with concurrent
// eviction-policy flips) and whole grouped-aggregation queries sharing one
// pool and the global metrics registry. The tests assert functional
// invariants, but their real job is to give TSan (and the capability
// analysis' runtime counterpart, lock contention) something to chew on:
// under -DSSAGG_SANITIZE=thread every race here is a hard failure.
//
// Kept deliberately small (seconds, not minutes) so the TSan CI leg stays
// fast; the iteration counts are tuned for ~1s per test without sanitizers.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/mutex.h"
#include "core/run_aggregation.h"
#include "execution/collectors.h"
#include "execution/range_source.h"
#include "observe/metrics.h"
#include "observe/progress.h"
#include "service/query_service.h"

namespace ssagg {
namespace {

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ssagg_conc_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    (void)FileSystem::Default().CreateDirectories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

//===----------------------------------------------------------------------===//
// Pin/unpin/evict churn
//===----------------------------------------------------------------------===//

// N threads hammer one small pool: allocate, re-pin, verify contents,
// destroy — while another thread flips the eviction policy. The pool is
// sized so reservations constantly force evictions (and spills) of other
// threads' unpinned blocks, which exercises the try-lock eviction path,
// SpillBlock, and the policy-under-queue-lock fix concurrently.
TEST_F(ConcurrencyStressTest, PinEvictChurn) {
  constexpr idx_t kThreads = 4;
  constexpr idx_t kBlocksPerThread = 8;
  constexpr idx_t kRounds = 60;
  // Room for roughly half the working set: every round someone must evict.
  BufferManager bm(dir_, (kThreads * kBlocksPerThread / 2) * kPageSize);

  std::atomic<bool> stop{false};
  std::thread policy_flipper([&]() {
    const EvictionPolicy policies[] = {EvictionPolicy::kMixed,
                                       EvictionPolicy::kTemporaryFirst,
                                       EvictionPolicy::kPersistentFirst};
    idx_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      bm.SetEvictionPolicy(policies[i++ % 3]);
      std::this_thread::yield();
    }
  });

  std::atomic<idx_t> failures{0};
  auto worker = [&](idx_t tid) {
    std::vector<std::shared_ptr<BlockHandle>> handles(kBlocksPerThread);
    // Allocate the working set, stamping each page with an owner pattern.
    for (idx_t b = 0; b < kBlocksPerThread; b++) {
      auto buf = bm.Allocate(kPageSize, &handles[b]);
      if (!buf.ok()) {
        failures.fetch_add(1);
        return;
      }
      std::memset(buf.value().Ptr(), static_cast<int>(tid * 16 + b),
                  kPageSize);
    }
    for (idx_t round = 0; round < kRounds; round++) {
      idx_t b = (round * 7 + tid) % kBlocksPerThread;
      auto buf = bm.Pin(handles[b]);
      if (!buf.ok()) {
        failures.fetch_add(1);
        return;
      }
      // The page must round-trip through eviction+reload intact.
      if (buf.value().Ptr()[round % kPageSize] !=
          static_cast<data_t>(tid * 16 + b)) {
        failures.fetch_add(1);
        return;
      }
      if (round % 16 == 15) {
        // Recycle one block entirely.
        bm.DestroyBlock(handles[b]);
        auto fresh = bm.Allocate(kPageSize, &handles[b]);
        if (!fresh.ok()) {
          failures.fetch_add(1);
          return;
        }
        std::memset(fresh.value().Ptr(), static_cast<int>(tid * 16 + b),
                    kPageSize);
      }
    }
    for (auto &handle : handles) {
      bm.DestroyBlock(handle);
    }
  };

  std::vector<std::thread> threads;
  for (idx_t t = 0; t < kThreads; t++) {
    threads.emplace_back(worker, t);
  }
  for (auto &th : threads) {
    th.join();
  }
  stop.store(true);
  policy_flipper.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(bm.PinnedBufferCount(), 0u) << "leaked pins";
  EXPECT_EQ(bm.temp_files().UsedSlots(), 0u) << "leaked temp slots";
}

//===----------------------------------------------------------------------===//
// Concurrent queries on a shared pool + shared metrics registry
//===----------------------------------------------------------------------===//

// Several complete grouped aggregations run at once against one
// memory-limited BufferManager (so they contend for pages and evict each
// other's) while all recording into the global MetricsRegistry. Each query
// independently verifies its result, and concurrent metric reads must see
// monotonically consistent sums.
//
// Pool sizing: every phase-1 worker keeps one pinned append page per radix
// partition until its table is combined, so the pool must cover that pinned
// floor — kQueries * 2 workers * 2^radix_bits pages — or a fully
// overlapped schedule (guaranteed under TSan) legitimately reports
// OutOfMemory. radix_bits = 2 keeps the floor at 24 of 48 pages, leaving
// the rest to fight over.
TEST_F(ConcurrencyStressTest, ConcurrentAggregationsSharedPool) {
  constexpr idx_t kQueries = 3;
  constexpr idx_t kRows = 40000;
  constexpr idx_t kGroups = 512;
  BufferManager bm(dir_, 48 * kPageSize);

  // Live introspection handles, polled from a foreign thread while the
  // queries run: phase and row counts must only ever move forward.
  std::array<QueryProgress, kQueries> progress;

  std::atomic<bool> stop{false};
  std::thread metrics_reader([&]() {
    MetricsRegistry &registry = MetricsRegistry::Global();
    uint64_t last = 0;
    std::array<uint64_t, kQueries> last_rows{};
    std::array<uint8_t, kQueries> last_phase{};
    while (!stop.load(std::memory_order_relaxed)) {
      auto snapshot = registry.Snapshot();
      uint64_t rows = snapshot.count("exec.rows") ? snapshot["exec.rows"] : 0;
      // Counters are monotonic; a backwards step means a torn read.
      EXPECT_GE(rows, last);
      last = rows;
      for (idx_t q = 0; q < kQueries; q++) {
        QueryProgress::Snapshot snap = progress[q].Poll();
        EXPECT_GE(snap.rows_consumed, last_rows[q]);
        EXPECT_GE(static_cast<uint8_t>(snap.phase), last_phase[q]);
        last_rows[q] = snap.rows_consumed;
        last_phase[q] = static_cast<uint8_t>(snap.phase);
      }
      std::this_thread::yield();
    }
  });

  std::atomic<idx_t> failures{0};
  std::array<std::string, kQueries> errors;
  auto query = [&](idx_t qid) {
    RangeSource source(
        {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kRows,
        [](DataChunk &chunk, idx_t start, idx_t count) {
          for (idx_t i = 0; i < count; i++) {
            idx_t row = start + i;
            chunk.column(0).SetValue<int64_t>(
                i, static_cast<int64_t>(row % kGroups));
            chunk.column(1).SetValue<int64_t>(i, 1);
          }
          return Status::OK();
        });
    TaskExecutor executor(2);
    CountingCollector collector;
    std::vector<AggregateRequest> aggregates = {
        {AggregateKind::kSum, 1}, {AggregateKind::kCountStar, kInvalidIndex}};
    HashAggregateConfig config;
    config.radix_bits = 2;
    auto stats = RunGroupedAggregation(bm, source, {0}, aggregates, collector,
                                       executor, config, /*profile=*/nullptr,
                                       &progress[qid]);
    if (!stats.ok() || collector.TotalRows() != kGroups ||
        stats.value().unique_groups != kGroups) {
      failures.fetch_add(1);
      errors[qid] = !stats.ok() ? stats.status().ToString()
                                : "wrong result (rows=" +
                                      std::to_string(collector.TotalRows()) +
                                      ")";
    }
  };

  std::vector<std::thread> threads;
  for (idx_t q = 0; q < kQueries; q++) {
    threads.emplace_back(query, q);
  }
  for (auto &th : threads) {
    th.join();
  }
  stop.store(true);
  metrics_reader.join();

  EXPECT_EQ(failures.load(), 0u)
      << errors[0] << " | " << errors[1] << " | " << errors[2];
  EXPECT_EQ(bm.PinnedBufferCount(), 0u) << "leaked pins";
  EXPECT_EQ(bm.temp_files().UsedSlots(), 0u) << "leaked temp slots";
  for (idx_t q = 0; q < kQueries; q++) {
    QueryProgress::Snapshot snap = progress[q].Poll();
    EXPECT_EQ(snap.phase, QueryProgress::Phase::kDone);
    EXPECT_EQ(snap.rows_consumed, kRows);
  }
}

//===----------------------------------------------------------------------===//
// Admission churn through the QueryService
//===----------------------------------------------------------------------===//

// The multi-tenant variant of the shared-pool test: more submitters than
// the concurrency cap, so sessions continuously queue, take a slot, evict
// each other's pages under memory pressure, finish, and hand the slot on —
// while a foreign thread polls the service's live session registry and a
// policy flipper churns eviction order underneath. TSan-facing like
// everything in this file; functionally every query must produce the
// correct result and the pool must quiesce with nothing leaked.
TEST_F(ConcurrencyStressTest, GrantedAggregationsAdmissionChurn) {
  constexpr idx_t kSubmitters = 6;
  constexpr idx_t kQueriesEach = 3;
  constexpr idx_t kRows = 30000;
  constexpr idx_t kGroups = 512;
  BufferManager bm(dir_, 48 * kPageSize);
  QueryServiceOptions options;
  options.max_concurrent = 3;
  options.max_queue_depth = kSubmitters;  // deep enough: nothing sheds
  options.admission_timeout_seconds = 60.0;
  options.threads = 2;
  QueryService service(bm, options);

  std::atomic<bool> stop{false};
  std::thread policy_flipper([&]() {
    const EvictionPolicy policies[] = {EvictionPolicy::kMixed,
                                       EvictionPolicy::kTemporaryFirst,
                                       EvictionPolicy::kPersistentFirst};
    idx_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      bm.SetEvictionPolicy(policies[i++ % 3]);
      std::this_thread::yield();
    }
  });
  std::thread session_poller([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      // Sessions in every state (queued / running) must poll cleanly from
      // a foreign thread; admission must never run more than its cap.
      for (const auto &session : service.Sessions()) {
        (void)session.progress.Fraction();
      }
      EXPECT_LE(service.stats().active, options.max_concurrent);
      std::this_thread::yield();
    }
  });

  std::atomic<idx_t> failures{0};
  std::array<std::string, kSubmitters> errors;
  auto submitter = [&](idx_t tid) {
    for (idx_t i = 0; i < kQueriesEach; i++) {
      RangeSource source(
          {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kRows,
          [](DataChunk &chunk, idx_t start, idx_t count) {
            for (idx_t r = 0; r < count; r++) {
              idx_t row = start + r;
              chunk.column(0).SetValue<int64_t>(
                  r, static_cast<int64_t>(row % kGroups));
              chunk.column(1).SetValue<int64_t>(r, 1);
            }
            return Status::OK();
          });
      CountingCollector collector;
      QuerySpec spec;
      spec.source = &source;
      spec.group_columns = {0};
      spec.aggregates = {{AggregateKind::kSum, 1},
                         {AggregateKind::kCountStar, kInvalidIndex}};
      spec.output = &collector;
      spec.config.radix_bits = 2;
      auto stats = service.Execute(spec);
      if (!stats.ok() || collector.TotalRows() != kGroups ||
          stats.value().unique_groups != kGroups) {
        failures.fetch_add(1);
        errors[tid] = !stats.ok() ? stats.status().ToString()
                                  : "wrong result (rows=" +
                                        std::to_string(collector.TotalRows()) +
                                        ")";
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  for (idx_t t = 0; t < kSubmitters; t++) {
    threads.emplace_back(submitter, t);
  }
  for (auto &th : threads) {
    th.join();
  }
  stop.store(true);
  policy_flipper.join();
  session_poller.join();

  std::string all_errors;
  for (const auto &e : errors) {
    if (!e.empty()) {
      all_errors += e + " | ";
    }
  }
  EXPECT_EQ(failures.load(), 0u) << all_errors;
  QueryServiceStats svc = service.stats();
  EXPECT_EQ(svc.completed, kSubmitters * kQueriesEach);
  EXPECT_GT(svc.queued, 0u) << "6 submitters vs cap 3 never queued";
  EXPECT_EQ(bm.PinnedBufferCount(), 0u) << "leaked pins";
  EXPECT_EQ(bm.temp_files().UsedSlots(), 0u) << "leaked temp slots";
  EXPECT_EQ(bm.memory_used(), 0u) << "leaked memory charge";
  EXPECT_TRUE(service.Sessions().empty()) << "leaked sessions";
}

//===----------------------------------------------------------------------===//
// CondVar wiring
//===----------------------------------------------------------------------===//

// The annotated CondVar wrapper must deliver wakeups with the Mutex wrapper
// (condition_variable_any over our BasicLockable). A tiny bounded queue is
// the classic shape; GUARDED_BY only applies to members, hence the struct.
struct BoundedQueue {
  static constexpr idx_t kCapacity = 8;

  Mutex lock;
  CondVar not_full;
  CondVar not_empty;
  std::vector<idx_t> items SSAGG_GUARDED_BY(lock);
  bool done SSAGG_GUARDED_BY(lock) = false;

  void Push(idx_t value) {
    ScopedLock guard(lock);
    while (items.size() >= kCapacity) {
      not_full.Wait(lock);
    }
    items.push_back(value);
    not_empty.NotifyOne();
  }

  void Close() {
    ScopedLock guard(lock);
    done = true;
    not_empty.NotifyOne();
  }

  /// Drains everything available into `out`; false once closed and empty.
  bool Drain(std::vector<idx_t> &out) {
    ScopedLock guard(lock);
    while (items.empty() && !done) {
      not_empty.Wait(lock);
    }
    out.insert(out.end(), items.begin(), items.end());
    items.clear();
    not_full.NotifyAll();
    return !(done && items.empty());
  }
};

TEST_F(ConcurrencyStressTest, CondVarBoundedQueue) {
  constexpr idx_t kItems = 2000;
  BoundedQueue queue;

  uint64_t checksum = 0;
  idx_t consumed = 0;
  std::thread consumer([&]() {
    while (true) {
      std::vector<idx_t> batch;
      bool more = queue.Drain(batch);
      for (idx_t v : batch) {
        checksum += v;
        consumed++;
      }
      if (!more && batch.empty()) {
        break;
      }
    }
  });

  for (idx_t i = 0; i < kItems; i++) {
    queue.Push(i);
  }
  queue.Close();
  consumer.join();

  EXPECT_EQ(consumed, kItems);
  EXPECT_EQ(checksum, static_cast<uint64_t>(kItems) * (kItems - 1) / 2);
}

}  // namespace
}  // namespace ssagg
