#include "execution/task_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "execution/collectors.h"
#include "execution/range_source.h"

namespace ssagg {
namespace {

RangeSource CountingSource(idx_t rows) {
  return RangeSource({LogicalTypeId::kInt64}, rows,
                     [](DataChunk &chunk, idx_t start, idx_t count) {
                       for (idx_t i = 0; i < count; i++) {
                         chunk.column(0).SetValue<int64_t>(
                             i, static_cast<int64_t>(start + i));
                       }
                       return Status::OK();
                     });
}

TEST(TaskExecutorTest, PipelineDeliversEveryRowOnce) {
  for (idx_t threads : {idx_t(1), idx_t(2), idx_t(4), idx_t(8)}) {
    TaskExecutor executor(threads);
    auto source = CountingSource(500000);
    CountingCollector sink;
    ASSERT_TRUE(executor.RunPipeline(source, sink).ok());
    EXPECT_EQ(sink.TotalRows(), 500000u) << threads << " threads";
  }
}

TEST(TaskExecutorTest, SourceErrorAbortsPipeline) {
  TaskExecutor executor(4);
  RangeSource source({LogicalTypeId::kInt64}, kMorselSize * 16,
                     [](DataChunk &, idx_t start, idx_t) {
                       if (start >= kMorselSize * 4) {
                         return Status::IOError("synthetic read failure");
                       }
                       return Status::OK();
                     });
  CountingCollector sink;
  Status st = executor.RunPipeline(source, sink);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
}

class FailingSink : public DataSink {
 public:
  Result<std::unique_ptr<LocalSinkState>> InitLocal() override {
    struct S : LocalSinkState {};
    return std::unique_ptr<LocalSinkState>(new S());
  }
  Status Sink(DataChunk &, LocalSinkState &) override {
    if (count_.fetch_add(1) >= 3) {
      return Status::Internal("sink gave up");
    }
    return Status::OK();
  }
  Status Combine(LocalSinkState &) override { return Status::OK(); }

 private:
  std::atomic<int> count_{0};
};

TEST(TaskExecutorTest, SinkErrorAbortsPipeline) {
  TaskExecutor executor(2);
  auto source = CountingSource(kMorselSize * 8);
  FailingSink sink;
  Status st = executor.RunPipeline(source, sink);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(TaskExecutorTest, RunTasksExecutesEachOnce) {
  TaskExecutor executor(4);
  std::atomic<int> counters[16] = {};
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 16; i++) {
    tasks.push_back([&counters, i]() {
      counters[i].fetch_add(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(executor.RunTasks(tasks).ok());
  for (int i = 0; i < 16; i++) {
    EXPECT_EQ(counters[i].load(), 1) << "task " << i;
  }
}

// Phase 2 runs through RunTasks: its tasks must show up in the executor's
// time ledger, inside the worker time.
TEST(TaskExecutorTest, RunTasksCountsTaskAndWorkerSeconds) {
  TaskExecutor executor(2);
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 4; i++) {
    tasks.push_back([]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return Status::OK();
    });
  }
  ASSERT_TRUE(executor.RunTasks(tasks).ok());
  ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.tasks, 4u);
  // Four sleeps of at least 20 ms each.
  EXPECT_GE(stats.task_seconds, 0.079);
  EXPECT_GE(stats.worker_seconds, stats.task_seconds);
  EXPECT_EQ(stats.sink_seconds, 0.0);
}

TEST(TaskExecutorTest, RunTasksPropagatesFirstError) {
  TaskExecutor executor(4);
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 8; i++) {
    tasks.push_back([i]() {
      if (i == 5) {
        return Status::InvalidArgument("task 5 failed");
      }
      return Status::OK();
    });
  }
  Status st = executor.RunTasks(tasks);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "task 5 failed");
}

TEST(TaskExecutorTest, DeadlineInterruptsPipeline) {
  TaskExecutor executor(2);
  // A source that never runs dry but is slow per chunk.
  RangeSource source({LogicalTypeId::kInt64}, kMorselSize * 1000,
                     [](DataChunk &, idx_t, idx_t) {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(1));
                       return Status::OK();
                     });
  CountingCollector sink;
  executor.SetDeadline(0.05);
  auto start = std::chrono::steady_clock::now();
  Status st = executor.RunPipeline(source, sink);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTimeout());
  EXPECT_LT(elapsed, 5.0);  // interrupted long before the source ends
}

TEST(TaskExecutorTest, ClearDeadline) {
  TaskExecutor executor(1);
  executor.SetDeadline(0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(executor.CheckDeadline().IsTimeout());
  executor.ClearDeadline();
  EXPECT_TRUE(executor.CheckDeadline().ok());
}

TEST(TaskExecutorTest, RewindAllowsSecondScan) {
  TaskExecutor executor(2);
  auto source = CountingSource(100000);
  CountingCollector sink;
  ASSERT_TRUE(executor.RunPipeline(source, sink).ok());
  ASSERT_TRUE(source.Rewind().ok());
  ASSERT_TRUE(executor.RunPipeline(source, sink).ok());
  EXPECT_EQ(sink.TotalRows(), 200000u);
}

/// Records the id of every thread that runs a sink or a task.
class ThreadIdLog {
 public:
  void Note() {
    ScopedLock guard(lock_);
    ids_.insert(std::this_thread::get_id());
  }
  std::set<std::thread::id> ids() {
    ScopedLock guard(lock_);
    return ids_;
  }

 private:
  Mutex lock_;
  std::set<std::thread::id> ids_ SSAGG_GUARDED_BY(lock_);
};

class ThreadIdSink : public DataSink {
 public:
  explicit ThreadIdSink(ThreadIdLog &log) : log_(log) {}
  Result<std::unique_ptr<LocalSinkState>> InitLocal() override {
    log_.Note();
    struct S : LocalSinkState {};
    return std::unique_ptr<LocalSinkState>(new S());
  }
  Status Sink(DataChunk &, LocalSinkState &) override { return Status::OK(); }
  Status Combine(LocalSinkState &) override { return Status::OK(); }

 private:
  ThreadIdLog &log_;
};

TEST(TaskExecutorTest, WorkersArePersistent) {
  TaskExecutor executor(4);
  ThreadIdLog log;
  for (int run = 0; run < 50; run++) {
    if (run % 2 == 0) {
      auto source = CountingSource(kMorselSize * 8);
      ThreadIdSink sink(log);
      ASSERT_TRUE(executor.RunPipeline(source, sink).ok());
    } else {
      std::vector<std::function<Status()>> tasks(8, [&log]() {
        log.Note();
        return Status::OK();
      });
      ASSERT_TRUE(executor.RunTasks(tasks).ok());
    }
  }
  auto ids = log.ids();
  EXPECT_GE(ids.size(), 2u);
  EXPECT_LE(ids.size(), 4u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u)
      << "a multi-threaded run executed on the calling thread";
}

TEST(TaskExecutorTest, NestedRunExecutesInline) {
  TaskExecutor executor(4);
  std::atomic<int> inner_runs{0};
  std::atomic<int> inline_runs{0};
  std::vector<std::function<Status()>> outer;
  for (int i = 0; i < 4; i++) {
    outer.push_back([&]() {
      const auto outer_thread = std::this_thread::get_id();
      std::vector<std::function<Status()>> inner(3, [&]() {
        inner_runs.fetch_add(1);
        if (std::this_thread::get_id() == outer_thread) {
          inline_runs.fetch_add(1);
        }
        return Status::OK();
      });
      return executor.RunTasks(inner);
    });
  }
  ASSERT_TRUE(executor.RunTasks(outer).ok());
  EXPECT_EQ(inner_runs.load(), 12);
  EXPECT_EQ(inline_runs.load(), 12);
}

/// Counts how often each row value arrives, to check exactly-once delivery.
class RowTallySink : public DataSink {
 public:
  explicit RowTallySink(idx_t rows) : seen_(rows) {}
  Result<std::unique_ptr<LocalSinkState>> InitLocal() override {
    struct S : LocalSinkState {};
    return std::unique_ptr<LocalSinkState>(new S());
  }
  Status Sink(DataChunk &chunk, LocalSinkState &) override {
    for (idx_t i = 0; i < chunk.size(); i++) {
      auto row = static_cast<idx_t>(chunk.column(0).GetValue<int64_t>(i));
      seen_[row].fetch_add(1, std::memory_order_relaxed);
    }
    return Status::OK();
  }
  Status Combine(LocalSinkState &) override { return Status::OK(); }
  idx_t RowsSeenExactlyOnce() const {
    idx_t once = 0;
    for (const auto &count : seen_) {
      once += count.load() == 1 ? 1 : 0;
    }
    return once;
  }

 private:
  std::vector<std::atomic<int>> seen_;
};

TEST(TaskExecutorTest, FailedRunThenCleanRun) {
  TaskExecutor executor(4);
  {
    auto source = CountingSource(kMorselSize * 32);
    FailingSink sink;
    Status st = executor.RunPipeline(source, sink);
    ASSERT_EQ(st.code(), StatusCode::kInternal);
  }
  constexpr idx_t kRows = kMorselSize * 16 + 17;
  auto source = CountingSource(kRows);
  RowTallySink sink(kRows);
  ASSERT_TRUE(executor.RunPipeline(source, sink).ok());
  EXPECT_EQ(sink.RowsSeenExactlyOnce(), kRows);
}

/// Bumps a counter when the thread that touched it exits.
std::atomic<int> exited_workers{0};
struct ExitProbe {
  ~ExitProbe() { exited_workers.fetch_add(1); }
};

TEST(TaskExecutorTest, DestructorJoinsIdleWorkers) {
  exited_workers.store(0);
  auto executor = std::make_unique<TaskExecutor>(4);
  ThreadIdLog log;
  std::vector<std::function<Status()>> tasks(16, [&log]() {
    thread_local ExitProbe probe;
    (void)probe;
    log.Note();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Status::OK();
  });
  ASSERT_TRUE(executor->RunTasks(tasks).ok());
  ASSERT_TRUE(executor->RunTasks(tasks).ok());
  // Parked between runs, not exited.
  EXPECT_EQ(exited_workers.load(), 0);
  executor.reset();
  // Joined: every worker that ran a task has exited.
  EXPECT_EQ(static_cast<size_t>(exited_workers.load()), log.ids().size());
}

}  // namespace
}  // namespace ssagg
