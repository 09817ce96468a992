#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each ssagg layer, from outside the library. A span carries its
// name, start, end, parent span and query id; spans are kept in memory and
// written out when the run ends. A layer's self time is its spans' duration
// minus the part covered by their child spans.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ssagg/ssagg.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char *name = nullptr;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: none (only the query root span)
  uint64_t query = 0;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;  // payload of file-system spans, 0 elsewhere
};

/// Process-wide span store. Recording is off unless enabled; a disabled
/// ScopedSpan costs one relaxed load.
class SpanRecorder {
 public:
  static SpanRecorder &Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Spans opened on a thread with no open span of its own (the executor's
  /// workers) become children of the current query's root span.
  void SetQuery(uint64_t query, uint64_t root_span) {
    query_.store(query, std::memory_order_relaxed);
    root_.store(root_span, std::memory_order_relaxed);
  }
  uint64_t query() const { return query_.load(std::memory_order_relaxed); }
  uint64_t root() const { return root_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// The calling thread's span buffer, registered on first use.
  std::vector<Span> &ThreadBuffer(uint32_t *thread_index);

  /// All recorded spans, in no particular order. Call only while no thread
  /// records.
  std::vector<Span> Collect() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> query_{0};
  std::atomic<uint64_t> root_{0};
  std::atomic<uint64_t> next_id_{0};
  mutable ssagg::Mutex lock_{ssagg::LockRank::kUnranked, "SpanRecorder::lock_"};
  std::deque<std::vector<Span>> buffers_ SSAGG_GUARDED_BY(lock_);
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char *name, uint64_t bytes = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint64_t id() const { return span_.id; }

 private:
  bool active_ = false;
  Span span_;
};

/// Forwards every DataSource call, timing GetData as `name` spans. Types,
/// EstimatedRowCount and Rewind are forwarded because the aggregate
/// planner reads the row estimate.
class TimingSource : public ssagg::DataSource {
 public:
  TimingSource(ssagg::DataSource &inner, const char *name)
      : inner_(inner), name_(name) {}

  std::vector<ssagg::LogicalTypeId> Types() const override {
    return inner_.Types();
  }
  ssagg::Result<std::unique_ptr<ssagg::LocalSourceState>> InitLocal()
      override {
    return inner_.InitLocal();
  }
  ssagg::Result<bool> GetData(ssagg::DataChunk &chunk,
                              ssagg::LocalSourceState &state) override {
    ScopedSpan span(name_);
    return inner_.GetData(chunk, state);
  }
  ssagg::Status Rewind() override { return inner_.Rewind(); }
  [[nodiscard]] ssagg::idx_t EstimatedRowCount() const override {
    return inner_.EstimatedRowCount();
  }

 private:
  ssagg::DataSource &inner_;
  const char *name_;
};

/// Forwards every DataSink call, timing Sink as `name` spans.
class TimingSink : public ssagg::DataSink {
 public:
  TimingSink(ssagg::DataSink &inner, const char *name)
      : inner_(inner), name_(name) {}

  ssagg::Result<std::unique_ptr<ssagg::LocalSinkState>> InitLocal() override {
    return inner_.InitLocal();
  }
  ssagg::Status Sink(ssagg::DataChunk &chunk,
                     ssagg::LocalSinkState &state) override {
    ScopedSpan span(name_);
    return inner_.Sink(chunk, state);
  }
  ssagg::Status Combine(ssagg::LocalSinkState &state) override {
    return inner_.Combine(state);
  }
  ssagg::Status Reset() override { return inner_.Reset(); }

 private:
  ssagg::DataSink &inner_;
  const char *name_;
};

/// A FileSystem decorator whose handles time Read, Write and Sync as
/// fs.read / fs.write / fs.sync spans carrying the bytes moved.
class TimingFileSystem : public ssagg::FileSystem {
 public:
  explicit TimingFileSystem(ssagg::FileSystem &inner) : inner_(inner) {}

  ssagg::Result<std::unique_ptr<ssagg::FileHandle>> Open(
      const std::string &path, ssagg::FileOpenFlags flags) override;
  ssagg::Status RemoveFile(const std::string &path) override {
    return inner_.RemoveFile(path);
  }
  bool FileExists(const std::string &path) override {
    return inner_.FileExists(path);
  }
  ssagg::Status CreateDirectories(const std::string &path) override {
    return inner_.CreateDirectories(path);
  }
  ssagg::Result<ssagg::idx_t> GetFileSize(const std::string &path) override {
    return inner_.GetFileSize(path);
  }

 private:
  ssagg::FileSystem &inner_;
};

/// Per-name totals derived from a set of spans.
struct LayerTime {
  uint64_t calls = 0;
  double self_seconds = 0;
  uint64_t bytes = 0;
};

/// Self time, call count and bytes per span name.
std::vector<std::pair<std::string, LayerTime>> SelfTimes(
    const std::vector<Span> &spans);

/// Writes spans as CSV (id,parent,query,thread,name,start_ns,end_ns,bytes).
ssagg::Status WriteSpans(const std::vector<Span> &spans,
                         const std::string &path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
