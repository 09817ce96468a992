#ifndef SSAGG_SERVICE_QUERY_SERVICE_H_
#define SSAGG_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/mutex.h"
#include "common/status.h"
#include "core/run_aggregation.h"
#include "execution/operator.h"
#include "observe/profile.h"
#include "observe/progress.h"

namespace ssagg {

/// Tuning knobs of a QueryService (DESIGN.md section 13). Execute rejects
/// out-of-range values with InvalidArgument.
struct QueryServiceOptions {
  /// Sessions running concurrently (at least 1); arrivals past this wait in
  /// the admission queue.
  idx_t max_concurrent = 4;
  /// Waiting sessions past which new arrivals are shed immediately with
  /// kAborted ("admission queue full").
  idx_t max_queue_depth = 16;
  /// Longest a session may wait for admission before it is shed with
  /// kTimeout. Finite and non-negative.
  double admission_timeout_seconds = 30.0;
  /// Default worker threads per session (QuerySpec::threads overrides).
  idx_t threads = 2;
};

/// One grouped-aggregation request handed to QueryService::Execute. The
/// source and output must stay alive for the duration of the call and are
/// not shared with other sessions.
struct QuerySpec {
  DataSource *source = nullptr;
  std::vector<idx_t> group_columns;
  std::vector<AggregateRequest> aggregates;
  DataSink *output = nullptr;
  HashAggregateConfig config;
  /// 0 = service default.
  idx_t threads = 0;
};

/// Cumulative service counters plus the live queue picture.
struct QueryServiceStats {
  idx_t submitted = 0;
  idx_t admitted = 0;
  idx_t queued = 0;  // sessions that had to wait (subset of admitted+shed)
  idx_t shed_queue_full = 0;
  idx_t shed_timeout = 0;
  idx_t completed = 0;
  idx_t failed = 0;
  idx_t active = 0;   // running right now
  idx_t waiting = 0;  // queued right now
};

/// Live introspection record of one admitted-or-waiting session.
struct QuerySessionSnapshot {
  uint64_t id = 0;
  QueryProgress::Snapshot progress;
};

/// Multi-tenant front end over one shared BufferManager: accepts many
/// concurrent RunGroupedAggregation sessions and bounds how many run at
/// once.
///
/// Admission is FIFO with a hard concurrency cap: a session past the cap
/// waits in a bounded queue (kQueued phase on its QueryProgress) until a
/// running session finishes, sheds with kAborted when the queue is full,
/// and with kTimeout when it waits longer than the admission timeout — all
/// clean Statuses, never a crash or a hung caller. Each admitted session
/// runs with its own TaskExecutor and allocates from the shared
/// BufferManager like any other caller: one memory limit and one eviction
/// queue for every session's pages (DESIGN.md section 13).
///
/// Thread-safe: Execute may be called from any number of threads.
class QueryService {
 public:
  explicit QueryService(BufferManager &buffer_manager,
                        QueryServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService &) = delete;
  QueryService &operator=(const QueryService &) = delete;

  /// Runs one grouped aggregation to completion (synchronous; callers
  /// provide their own threads for concurrency). Returns the operator stats
  /// on success; invalid options, admission shed/timeout and execution
  /// failures come back as the clean Status.
  Result<HashAggregateStats> Execute(const QuerySpec &spec,
                                     QueryProfile *profile = nullptr,
                                     QueryProgress *progress = nullptr);

  [[nodiscard]] QueryServiceStats stats() const;
  /// Progress snapshots of every waiting and running session, in admission
  /// order (what a /sessions endpoint would serve).
  [[nodiscard]] std::vector<QuerySessionSnapshot> Sessions() const;

  [[nodiscard]] BufferManager &buffer_manager() { return buffer_manager_; }
  [[nodiscard]] const QueryServiceOptions &options() const { return options_; }

 private:
  struct Session {
    uint64_t id = 0;
    QueryProgress *progress = nullptr;  // caller's or `owned`
    std::unique_ptr<QueryProgress> owned;
  };

  /// Blocks until the session takes a running slot (OK) or is shed.
  Status Admit(QueryProgress *progress);
  void RemoveSession(uint64_t id);

  BufferManager &buffer_manager_;
  const QueryServiceOptions options_;

  mutable Mutex lock_{LockRank::kQueryService, "QueryService::lock_"};
  CondVar admit_cv_;
  /// FIFO admission order: tickets of sessions waiting for a slot.
  std::deque<uint64_t> queue_ SSAGG_GUARDED_BY(lock_);
  idx_t active_ SSAGG_GUARDED_BY(lock_) = 0;
  uint64_t next_ticket_ SSAGG_GUARDED_BY(lock_) = 1;
  std::atomic<uint64_t> next_session_id_{1};
  /// Waiting + running sessions, in admission order.
  std::vector<Session> sessions_ SSAGG_GUARDED_BY(lock_);

  std::atomic<idx_t> submitted_{0};
  std::atomic<idx_t> admitted_{0};
  std::atomic<idx_t> queued_{0};
  std::atomic<idx_t> shed_queue_full_{0};
  std::atomic<idx_t> shed_timeout_{0};
  std::atomic<idx_t> completed_{0};
  std::atomic<idx_t> failed_{0};

  /// Cached global-registry ids ("svc.*").
  idx_t key_submitted_;
  idx_t key_admitted_;
  idx_t key_queued_;
  idx_t key_shed_queue_full_;
  idx_t key_shed_timeout_;
  idx_t key_completed_;
  idx_t key_failed_;
  idx_t hist_queue_wait_;
};

}  // namespace ssagg

#endif  // SSAGG_SERVICE_QUERY_SERVICE_H_
