#include "service/query_service.h"

#include <algorithm>
#include <chrono>

#include "execution/task_executor.h"
#include "observe/metrics.h"

namespace ssagg {

namespace {
using Clock = std::chrono::steady_clock;

/// Options a session cannot be admitted under: with no running slot every
/// caller would wait out its whole timeout, and a timeout that is NaN,
/// negative, infinite or too large for `now + timeout` to fit the clock has
/// no defined deadline.
Status ValidateOptions(const QueryServiceOptions &options) {
  if (options.max_concurrent == 0) {
    return Status::InvalidArgument("QueryServiceOptions::max_concurrent is 0");
  }
  const double max_timeout =
      std::chrono::duration<double>(Clock::duration::max()).count() / 2;
  const double timeout = options.admission_timeout_seconds;
  if (!(timeout >= 0 && timeout <= max_timeout)) {
    return Status::InvalidArgument(
        "QueryServiceOptions::admission_timeout_seconds out of range: " +
        std::to_string(timeout));
  }
  return Status::OK();
}
}  // namespace

QueryService::QueryService(BufferManager &buffer_manager,
                           QueryServiceOptions options)
    : buffer_manager_(buffer_manager), options_(options) {
  MetricsRegistry &registry = MetricsRegistry::Global();
  key_submitted_ = registry.KeyId("svc.submitted");
  key_admitted_ = registry.KeyId("svc.admitted");
  key_queued_ = registry.KeyId("svc.queued");
  key_shed_queue_full_ = registry.KeyId("svc.shed_queue_full");
  key_shed_timeout_ = registry.KeyId("svc.shed_timeout");
  key_completed_ = registry.KeyId("svc.completed");
  key_failed_ = registry.KeyId("svc.failed");
  hist_queue_wait_ = registry.HistogramId("svc.queue_wait_ns");
}

QueryService::~QueryService() {
  // Callers own the threads driving Execute and must join them first; by
  // then every session has left (shed or finished).
  ScopedLock guard(lock_);
  SSAGG_DASSERT(active_ == 0 && queue_.empty() && sessions_.empty());
}

Status QueryService::Admit(QueryProgress *progress) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.admission_timeout_seconds));
  MetricsRegistry &registry = MetricsRegistry::Global();

  ScopedLock guard(lock_);
  // Fast path: nobody in line and a free slot.
  if (queue_.empty() && active_ < options_.max_concurrent) {
    active_++;
    return Status::OK();
  }
  if (queue_.size() >= options_.max_queue_depth) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    registry.Add(key_shed_queue_full_, 1);
    return Status::Aborted("admission queue full (" +
                           std::to_string(queue_.size()) + " waiting, cap " +
                           std::to_string(options_.max_queue_depth) + ")");
  }
  const uint64_t ticket = next_ticket_++;
  queue_.push_back(ticket);
  queued_.fetch_add(1, std::memory_order_relaxed);
  registry.Add(key_queued_, 1);
  if (progress != nullptr) {
    progress->AdvancePhase(QueryProgress::Phase::kQueued);
  }
  while (true) {
    // FIFO: only the head of the line may take a freed slot.
    if (queue_.front() == ticket && active_ < options_.max_concurrent) {
      queue_.pop_front();
      active_++;
      // The next waiter may be admittable too (several sessions can
      // finish while the head sleeps).
      admit_cv_.NotifyAll();
      return Status::OK();
    }
    const auto now = Clock::now();
    if (now >= deadline) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), ticket));
      shed_timeout_.fetch_add(1, std::memory_order_relaxed);
      registry.Add(key_shed_timeout_, 1);
      // Our departure may move another waiter to the head of the line.
      admit_cv_.NotifyAll();
      return Status::Timeout(
          "admission timed out after " +
          std::to_string(options_.admission_timeout_seconds) + "s");
    }
    admit_cv_.WaitFor(lock_, deadline - now);
  }
}

void QueryService::RemoveSession(uint64_t id) {
  ScopedLock guard(lock_);
  sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                 [&](const Session &s) { return s.id == id; }),
                  sessions_.end());
}

Result<HashAggregateStats> QueryService::Execute(const QuerySpec &spec,
                                                 QueryProfile *profile,
                                                 QueryProgress *progress) {
  if (spec.source == nullptr || spec.output == nullptr) {
    return Status::InvalidArgument("QuerySpec needs a source and an output");
  }
  SSAGG_RETURN_NOT_OK(ValidateOptions(options_));
  MetricsRegistry &registry = MetricsRegistry::Global();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  registry.Add(key_submitted_, 1);
  const auto t_submit = Clock::now();

  // Register the session before admission so a poller sees it (kQueued)
  // while it waits. When the caller brought no progress handle, the service
  // owns one for the session's lifetime — Sessions() always has live data.
  const uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  QueryProgress *prog = progress;
  {
    ScopedLock guard(lock_);
    Session session;
    session.id = id;
    if (prog == nullptr) {
      session.owned = std::make_unique<QueryProgress>();
      prog = session.owned.get();
    }
    session.progress = prog;
    sessions_.push_back(std::move(session));
  }

  Status admitted = Admit(prog);
  if (!admitted.ok()) {
    prog->Finish(/*ok=*/false);
    RemoveSession(id);
    return admitted;
  }
  const auto wait_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           t_submit)
          .count());
  registry.Record(hist_queue_wait_, wait_ns);
  prog->SetQueueWait(wait_ns);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  registry.Add(key_admitted_, 1);

  const idx_t threads = spec.threads != 0 ? spec.threads : options_.threads;
  TaskExecutor executor(threads);
  auto result = RunGroupedAggregation(
      buffer_manager_, *spec.source, spec.group_columns, spec.aggregates,
      *spec.output, executor, spec.config, profile, prog);
  {
    ScopedLock guard(lock_);
    SSAGG_DASSERT(active_ > 0);
    active_--;
  }
  admit_cv_.NotifyAll();
  RemoveSession(id);
  if (result.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    registry.Add(key_completed_, 1);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    registry.Add(key_failed_, 1);
  }
  return result;
}

QueryServiceStats QueryService::stats() const {
  QueryServiceStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.queued = queued_.load(std::memory_order_relaxed);
  out.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  out.shed_timeout = shed_timeout_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  ScopedLock guard(lock_);
  out.active = active_;
  out.waiting = queue_.size();
  return out;
}

std::vector<QuerySessionSnapshot> QueryService::Sessions() const {
  std::vector<QuerySessionSnapshot> out;
  ScopedLock guard(lock_);
  out.reserve(sessions_.size());
  for (const Session &session : sessions_) {
    out.push_back({session.id, session.progress->Poll()});
  }
  return out;
}

}  // namespace ssagg
