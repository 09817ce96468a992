#include "execution/task_executor.h"

#include <algorithm>
#include <atomic>

#include "observe/flight_recorder.h"
#include "observe/metrics.h"

namespace ssagg {

namespace {

/// Collects the first error from concurrent workers.
class ErrorCollector {
 public:
  void Set(Status status) {
    if (status.ok()) {
      return;
    }
    ScopedLock guard(lock_);
    if (first_error_.ok()) {
      first_error_ = std::move(status);
    }
    failed_.store(true, std::memory_order_relaxed);
  }
  bool Failed() const { return failed_.load(std::memory_order_relaxed); }
  Status Take() {
    ScopedLock guard(lock_);
    return first_error_;
  }

 private:
  Mutex lock_{LockRank::kErrorCollector, "ErrorCollector::lock_"};
  Status first_error_ SSAGG_GUARDED_BY(lock_);
  std::atomic<bool> failed_{false};
};

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The executor whose pool the calling thread belongs to, if any.
thread_local const TaskExecutor *pool_owner = nullptr;

}  // namespace

void ExecutorStats::Merge(const ExecutorStats &other) {
  workers += other.workers;
  chunks += other.chunks;
  rows += other.rows;
  tasks += other.tasks;
  deadline_aborts += other.deadline_aborts;
  worker_seconds += other.worker_seconds;
  source_seconds += other.source_seconds;
  sink_seconds += other.sink_seconds;
  combine_seconds += other.combine_seconds;
  task_seconds += other.task_seconds;
}

TaskExecutor::TaskExecutor(idx_t num_threads) : num_threads_(num_threads) {
  MetricsRegistry &registry = MetricsRegistry::Global();
  key_chunks_ = registry.KeyId("exec.chunks");
  key_rows_ = registry.KeyId("exec.rows");
  key_tasks_ = registry.KeyId("exec.tasks");
  key_deadline_aborts_ = registry.KeyId("exec.deadline_aborts");
  key_source_ns_ = registry.KeyId("exec.source_ns");
  key_sink_ns_ = registry.KeyId("exec.sink_ns");
  key_combine_ns_ = registry.KeyId("exec.combine_ns");
  key_task_ns_ = registry.KeyId("exec.task_ns");
  hist_morsel_sink_ = registry.HistogramId("exec.morsel_sink_ns");
}

TaskExecutor::~TaskExecutor() {
  std::vector<std::thread> workers;
  {
    ScopedLock guard(pool_lock_);
    SSAGG_DASSERT(job_ == nullptr);
    shutdown_ = true;
    workers.swap(workers_);
  }
  work_cv_.NotifyAll();
  for (auto &worker : workers) {
    worker.join();
  }
}

void TaskExecutor::RunOnWorkers(idx_t n, const std::function<void()> &body) {
  if (n <= 1 || pool_owner == this) {
    body();
    return;
  }
  SSAGG_DASSERT(n <= num_threads_);
  ScopedLock guard(pool_lock_);
  // Runs are serialized: wait for a run in flight to finish.
  done_cv_.Wait(pool_lock_, [this]() SSAGG_REQUIRES(pool_lock_) {
    return job_ == nullptr;
  });
  while (workers_.size() < num_threads_) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
  job_ = &body;
  job_generation_++;
  unclaimed_ = n;
  running_ = n;
  work_cv_.NotifyAll();
  done_cv_.Wait(pool_lock_, [this]() SSAGG_REQUIRES(pool_lock_) {
    return running_ == 0;
  });
  job_ = nullptr;
  // Wakes a caller queued behind this run.
  done_cv_.NotifyAll();
}

void TaskExecutor::WorkerLoop() {
  pool_owner = this;
  uint64_t last_generation = 0;
  while (true) {
    const std::function<void()> *job;
    {
      ScopedLock guard(pool_lock_);
      work_cv_.Wait(pool_lock_, [&]() SSAGG_REQUIRES(pool_lock_) {
        return shutdown_ ||
               (unclaimed_ > 0 && job_generation_ != last_generation);
      });
      if (shutdown_) {
        return;
      }
      unclaimed_--;
      last_generation = job_generation_;
      job = job_;
    }
    (*job)();
    ScopedLock guard(pool_lock_);
    if (--running_ == 0) {
      done_cv_.NotifyAll();
    }
  }
}

void TaskExecutor::SetDeadline(double seconds_from_now) {
  has_deadline_ = true;
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds_from_now));
}

Status TaskExecutor::CheckDeadline() const {
  if (has_deadline_ && std::chrono::steady_clock::now() > deadline_) {
    return Status::Timeout("query exceeded its deadline");
  }
  return Status::OK();
}

ExecutorStats TaskExecutor::stats() const {
  ScopedLock guard(stats_lock_);
  return stats_;
}

void TaskExecutor::ResetStats() {
  ScopedLock guard(stats_lock_);
  stats_ = ExecutorStats{};
}

void TaskExecutor::AccumulateWorker(const ExecutorStats &local) {
  {
    ScopedLock guard(stats_lock_);
    stats_.Merge(local);
  }
  MetricsRegistry &registry = MetricsRegistry::Global();
  registry.Add(key_chunks_, local.chunks);
  registry.Add(key_rows_, local.rows);
  registry.Add(key_tasks_, local.tasks);
  registry.Add(key_deadline_aborts_, local.deadline_aborts);
  registry.Add(key_source_ns_,
               static_cast<uint64_t>(local.source_seconds * 1e9));
  registry.Add(key_sink_ns_, static_cast<uint64_t>(local.sink_seconds * 1e9));
  registry.Add(key_combine_ns_,
               static_cast<uint64_t>(local.combine_seconds * 1e9));
  registry.Add(key_task_ns_, static_cast<uint64_t>(local.task_seconds * 1e9));
}

Status TaskExecutor::RunPipeline(DataSource &source, DataSink &sink,
                                 QueryProgress *progress) {
  TraceSpan pipeline_span("pipeline", "exec");
  ErrorCollector errors;
  std::function<void()> worker = [&]() {
    TraceSpan worker_span("worker", "exec");
    ExecutorStats local;
    local.workers = 1;
    auto worker_start = Clock::now();
    auto lsource = source.InitLocal();
    if (!lsource.ok()) {
      errors.Set(lsource.status());
      return;
    }
    auto lsink = sink.InitLocal();
    if (!lsink.ok()) {
      errors.Set(lsink.status());
      return;
    }
    DataChunk chunk(source.Types());
    idx_t chunks_since_check = 0;
    while (!errors.Failed()) {
      if (++chunks_since_check >= 16) {
        chunks_since_check = 0;
        Status deadline = CheckDeadline();
        if (!deadline.ok()) {
          local.deadline_aborts++;
          errors.Set(std::move(deadline));
          break;
        }
      }
      chunk.Reset();
      auto source_start = Clock::now();
      auto more = source.GetData(chunk, *lsource.value());
      local.source_seconds += SecondsSince(source_start);
      if (!more.ok()) {
        errors.Set(more.status());
        break;
      }
      if (!more.value()) {
        break;
      }
      if (chunk.size() == 0) {
        continue;
      }
      local.chunks++;
      local.rows += chunk.size();
      auto sink_start = Clock::now();
      Status st = sink.Sink(chunk, *lsink.value());
      auto sink_elapsed = Clock::now() - sink_start;
      local.sink_seconds += std::chrono::duration<double>(sink_elapsed).count();
      MetricsRegistry::Global().Record(
          hist_morsel_sink_,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  sink_elapsed)
                  .count()));
      if (progress != nullptr) {
        progress->AddRows(chunk.size());
      }
      if (!st.ok()) {
        errors.Set(st);
        break;
      }
    }
    if (!errors.Failed()) {
      TraceSpan combine_span("combine", "exec");
      auto combine_start = Clock::now();
      errors.Set(sink.Combine(*lsink.value()));
      local.combine_seconds += SecondsSince(combine_start);
    }
    local.worker_seconds = SecondsSince(worker_start);
    AccumulateWorker(local);
  };

  RunOnWorkers(num_threads_, worker);
  return errors.Take();
}

Status TaskExecutor::RunTasks(const std::vector<std::function<Status()>> &tasks) {
  ErrorCollector errors;
  std::atomic<idx_t> next{0};
  std::function<void()> worker = [&]() {
    ExecutorStats local;
    auto worker_start = Clock::now();
    while (!errors.Failed()) {
      Status deadline = CheckDeadline();
      if (!deadline.ok()) {
        local.deadline_aborts++;
        errors.Set(std::move(deadline));
        break;
      }
      idx_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) {
        break;
      }
      TraceSpan task_span("task", "exec", i);
      local.tasks++;
      auto task_start = Clock::now();
      errors.Set(tasks[i]());
      local.task_seconds += SecondsSince(task_start);
    }
    local.worker_seconds = SecondsSince(worker_start);
    AccumulateWorker(local);
  };
  RunOnWorkers(std::min<idx_t>(num_threads_, tasks.size()), worker);
  return errors.Take();
}

}  // namespace ssagg
