#ifndef SSAGG_EXECUTION_TASK_EXECUTOR_H_
#define SSAGG_EXECUTION_TASK_EXECUTOR_H_

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "execution/operator.h"
#include "observe/progress.h"

namespace ssagg {

/// Per-run observability counters of the executor, summed over workers.
/// Seconds are cumulative thread time, so with N workers busy the whole
/// run, source+sink+combine+task approaches N x wall clock; the gap between
/// worker_seconds and (source+sink+combine+task) is time lost to
/// skew/idling. worker_seconds covers both pipeline workers and RunTasks
/// workers (phase 2); a RunTasks started from inside a task runs inline and
/// is counted again, by its own worker.
struct ExecutorStats {
  idx_t workers = 0;
  idx_t chunks = 0;           // morsel chunks pushed into the sink
  idx_t rows = 0;             // rows those chunks carried
  idx_t tasks = 0;            // RunTasks tasks executed
  idx_t deadline_aborts = 0;  // runs aborted by the wall-clock deadline
  double worker_seconds = 0;   // total worker wall clock
  double source_seconds = 0;   // inside DataSource::GetData
  double sink_seconds = 0;     // inside DataSink::Sink ("busy")
  double combine_seconds = 0;  // inside DataSink::Combine
  double task_seconds = 0;     // inside RunTasks task bodies

  void Merge(const ExecutorStats &other);
};

/// Runs morsel-driven pipelines and parallel task sets on a fixed set of
/// worker threads (paper Section V, "Parallelism"). The executor owns
/// num_threads workers: they start on the first multi-threaded run, park
/// between runs, and are joined by the destructor. A pipeline run hands the
/// worker body to every worker, which drives source -> sink until the
/// source is dry and calls Combine once; the caller waits for all of them.
/// The first error aborts the run.
///
/// Runs on one executor are serialized: a second caller waits until the
/// pool is idle. A run started from one of the executor's own workers (a
/// task that itself calls RunTasks) executes inline on that worker, as a
/// single-threaded run always does.
class TaskExecutor {
 public:
  explicit TaskExecutor(idx_t num_threads);
  /// Joins the workers; no run may be in flight.
  ~TaskExecutor();

  TaskExecutor(const TaskExecutor &) = delete;
  TaskExecutor &operator=(const TaskExecutor &) = delete;

  [[nodiscard]] idx_t num_threads() const { return num_threads_; }

  /// Arms a wall-clock deadline (the benchmark harness' query timeout).
  /// Pipelines abort with Status::Timeout once it passes; long-running
  /// operators may also poll CheckDeadline() from their inner loops.
  void SetDeadline(double seconds_from_now);
  void ClearDeadline() { has_deadline_ = false; }
  Status CheckDeadline() const;

  /// Executes one pipeline: every worker repeatedly pulls a chunk from the
  /// source and pushes it into the sink, then combines its local state.
  /// When `progress` is given, each worker publishes its consumed rows into
  /// it per chunk (one relaxed fetch_add — pollable live from any thread).
  Status RunPipeline(DataSource &source, DataSink &sink,
                     QueryProgress *progress = nullptr);

  /// Runs independent tasks in parallel, each at most once; tasks are
  /// claimed through an atomic counter (used for partition-wise phase 2).
  Status RunTasks(const std::vector<std::function<Status()>> &tasks);

  /// Counters accumulated since construction (or the last ResetStats).
  /// Returns a copy taken under the stats lock, so it is safe to call while
  /// a run is in flight (you get a consistent snapshot of the workers that
  /// finished so far).
  [[nodiscard]] ExecutorStats stats() const;
  void ResetStats();

 private:
  /// Folds one worker's local counters into stats_ and the global metrics
  /// registry.
  void AccumulateWorker(const ExecutorStats &local);

  /// Runs `body` once on each of `n` (<= num_threads_) distinct workers and
  /// returns when all n are done; runs it inline when n <= 1 or when called
  /// from one of this executor's workers.
  void RunOnWorkers(idx_t n, const std::function<void()> &body);
  /// A worker thread's life: wait for a job slot, run it, repeat until
  /// shutdown. The pool lock is never held while a job runs.
  void WorkerLoop();

  idx_t num_threads_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};

  mutable Mutex stats_lock_{LockRank::kExecutorStats,
                            "TaskExecutor::stats_lock_"};
  ExecutorStats stats_ SSAGG_GUARDED_BY(stats_lock_);

  // Cached global-registry key ids ("exec.*").
  idx_t key_chunks_;
  idx_t key_rows_;
  idx_t key_tasks_;
  idx_t key_deadline_aborts_;
  idx_t key_source_ns_;
  idx_t key_sink_ns_;
  idx_t key_combine_ns_;
  idx_t key_task_ns_;
  /// Per-morsel Sink() duration histogram ("exec.morsel_sink_ns").
  idx_t hist_morsel_sink_;

  // The worker pool. Declared last: the workers use every member above.
  Mutex pool_lock_{LockRank::kExecutorPool, "TaskExecutor::pool_lock_"};
  /// Workers wait here for a job slot or shutdown.
  CondVar work_cv_;
  /// Callers wait here for their job to finish or for the pool to go idle.
  CondVar done_cv_;
  /// The posted job, nullptr while the pool is idle.
  const std::function<void()> *job_ SSAGG_GUARDED_BY(pool_lock_) = nullptr;
  /// Bumped per job, so a worker takes at most one slot of each.
  uint64_t job_generation_ SSAGG_GUARDED_BY(pool_lock_) = 0;
  idx_t unclaimed_ SSAGG_GUARDED_BY(pool_lock_) = 0;
  idx_t running_ SSAGG_GUARDED_BY(pool_lock_) = 0;
  bool shutdown_ SSAGG_GUARDED_BY(pool_lock_) = false;
  std::vector<std::thread> workers_ SSAGG_GUARDED_BY(pool_lock_);
};

}  // namespace ssagg

#endif  // SSAGG_EXECUTION_TASK_EXECUTOR_H_
