#ifndef SSAGG_OBSERVE_FLIGHT_RECORDER_H_
#define SSAGG_OBSERVE_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/mutex.h"
#include "common/status.h"
#include "observe/json.h"
#include "observe/thread_slots.h"

namespace ssagg {

/// The one event recorder: a per-thread bounded ring of the most recent
/// timeline events (spans, instants), always on, so the last moments before
/// any failure are recoverable after the fact. Two readers consume the
/// rings: anomaly dumps snapshot them, and the trace file drains them.
///
/// Hot-path contract: Record touches only the calling thread's ring — a
/// fixed block of atomic words plus one release store on the ring head. No
/// locks, no allocation (a thread takes its ring on first use), no enabled
/// check. Spans and instants are emitted at morsel/phase/spill granularity,
/// never from per-row loops. Name and category must be string literals (the
/// ring stores the pointers).
///
/// Rings are recycled: an exiting thread hands its ring back (events
/// intact) and the next new thread appends to it, so the ring count is
/// bounded by the peak number of concurrently live threads
/// (observe/thread_slots.h). A ring's "tid" in dumps and in the trace file
/// is therefore its slot number, shared by the threads that used it in turn
/// — one live thread at a time, so each track's spans stay laminar.
///
/// Readers walk the rings while writers may still be appending. A ring has
/// one slot more than it retains, the one its writer may be filling; after
/// copying, a reader re-reads the head and keeps only the events still
/// inside the retained window, so it never reports an event whose slot was
/// reused mid-copy.
///
/// Anomaly dumps are written as Chrome-trace JSON files into the directory
/// given by SSAGG_FLIGHT_DUMP (or SetDumpDirectory); with no directory
/// configured, DumpAnomaly is a cheap no-op, so instrumented anomaly sites
/// (query error Status, planner demotion, injected fault, SIGUSR1) can call
/// it unconditionally.
///
/// The trace file (SSAGG_TRACE=<path>, or SetTracePath) is a drain of the
/// rings: each FlushTrace appends exactly the events recorded since the
/// previous flush and leaves one valid Chrome-trace document (loadable in
/// chrome://tracing and Perfetto) whose "droppedEvents" counts the events a
/// ring overwrote before they could be drained. RunGroupedAggregation
/// flushes after every query, and process exit flushes once more.
class FlightRecorder {
 public:
  /// Events retained per thread.
  static constexpr idx_t kRingEvents = 8192;
  /// Dump files are capped so a crash loop cannot fill the disk.
  static constexpr idx_t kMaxDumps = 64;

  FlightRecorder();

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// The recorder instrumented code records into. Reads SSAGG_FLIGHT_DUMP
  /// (installing the SIGUSR1 dump handler) and SSAGG_TRACE (flushing the
  /// trace at process exit) once.
  static FlightRecorder &Global();

  /// Microseconds since the recorder was constructed: the events' clock.
  [[nodiscard]] uint64_t NowMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Appends one event to the calling thread's ring. `phase` is the Chrome
  /// phase character ('X' complete span, 'i' instant); `arg` uses
  /// kInvalidIndex for absent.
  void Record(const char *name, const char *category, char phase,
              uint64_t ts_us, uint64_t dur_us, uint64_t arg);

  /// Where DumpAnomaly writes; empty disables dumping (the default unless
  /// SSAGG_FLIGHT_DUMP is set).
  void SetDumpDirectory(std::string dir);
  [[nodiscard]] std::string dump_directory() const;

  /// Starts a new trace file at `path`, to be filled by FlushTrace with the
  /// events recorded from now on; empty stops tracing (the default unless
  /// SSAGG_TRACE is set).
  void SetTracePath(std::string path);
  [[nodiscard]] std::string trace_path() const;
  /// Appends the events recorded since the previous flush to the trace file
  /// and rewrites its trailer. A no-op without a trace path.
  Status FlushTrace();

  /// Writes the ring contents as `<dir>/ssagg_flight_<reason>_<seq>.json`
  /// and returns the path; returns "" when no dump directory is configured
  /// or the dump cap is reached. Safe to call from any thread, including
  /// concurrently with writers.
  std::string DumpAnomaly(const char *reason);

  /// The retained events as a Chrome-trace JSON document (DumpAnomaly adds
  /// a "flightReason" member).
  [[nodiscard]] Json ToJson() const;
  /// Total events currently retained across all rings (capped per ring).
  [[nodiscard]] idx_t EventCount() const;
  /// Test hook: forgets all retained events (rings stay registered).
  void Clear();
  /// Rings ever created (live threads' plus free ones).
  [[nodiscard]] idx_t RingCount() const;

  /// Installs a SIGUSR1 handler that dumps the global recorder. The handler
  /// allocates and takes locks, so it is NOT async-signal-safe — it is a
  /// best-effort operator tool for a live, healthy process, not a crash
  /// handler.
  static void InstallSignalHandler();

 private:
  /// One event is kWords consecutive atomic words:
  ///   [0] name pointer  [1] category pointer  [2] ts_us
  ///   [3] dur_us        [4] arg               [5] phase
  static constexpr idx_t kWords = 6;
  /// The retained window plus the slot a writer may be filling.
  static constexpr idx_t kRingSlots = kRingEvents + 1;

  struct Ring {
    /// Total events ever written; slot = head % kRingSlots. Single writer
    /// (the owning thread); release store pairs with readers' acquire.
    std::atomic<uint64_t> head{0};
    /// 1-based creation index, reported as the events' "tid".
    uint32_t slot = 0;
    std::atomic<uint64_t> words[kRingSlots * kWords] = {};
  };

  struct Event {
    const char *name;
    const char *category;
    char phase;
    uint64_t ts_us;
    uint64_t dur_us;
    uint64_t arg;
  };

  /// Index of the oldest event a ring with `head` still retains.
  static uint64_t OldestRetained(uint64_t head) {
    return head > kRingEvents ? head - kRingEvents : 0;
  }

  Ring &LocalRing();
  /// Takes back the ring of an exiting thread (ThreadSlots release hook).
  void ReleaseRing(Ring *ring);
  /// Copies `ring`'s events [from, to), minus those whose slot the writer
  /// reused while they were copied (always the oldest ones).
  static std::vector<Event> ReadRing(const Ring &ring, uint64_t from,
                                     uint64_t to);
  static Json EventJson(const Event &event, uint32_t tid);

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> dump_seq_{0};

  /// Protects ring registration, the free list, the dump directory and the
  /// trace drain. Never taken on the record path after a thread's first
  /// event.
  mutable Mutex lock_{LockRank::kFlightRecorder, "FlightRecorder::lock_"};
  std::vector<std::unique_ptr<Ring>> rings_ SSAGG_GUARDED_BY(lock_);
  /// Per ring (same index as rings_): the head as of the last trace flush.
  std::vector<uint64_t> drained_ SSAGG_GUARDED_BY(lock_);
  /// Rings of exited threads, handed to the next new thread.
  std::vector<Ring *> free_rings_ SSAGG_GUARDED_BY(lock_);
  std::string dump_dir_ SSAGG_GUARDED_BY(lock_);
  std::string trace_path_ SSAGG_GUARDED_BY(lock_);
  /// File offset of the trace trailer; 0 until the first flush writes the
  /// header.
  uint64_t trace_end_ SSAGG_GUARDED_BY(lock_) = 0;
  uint64_t trace_events_ SSAGG_GUARDED_BY(lock_) = 0;
  uint64_t trace_dropped_ SSAGG_GUARDED_BY(lock_) = 0;
  /// Last member, so it is destroyed first (see ThreadSlots); its id keys
  /// the thread-local ring cache (tests may build private instances).
  ThreadSlots slots_;
};

/// RAII span: records one complete event ('X') over its lifetime on the
/// calling thread's ring.
class TraceSpan {
 public:
  TraceSpan(const char *name, const char *category, idx_t arg = kInvalidIndex)
      : recorder_(FlightRecorder::Global()),
        name_(name),
        category_(category),
        arg_(arg),
        start_us_(recorder_.NowMicros()) {}
  ~TraceSpan() {
    recorder_.Record(name_, category_, 'X', start_us_,
                     recorder_.NowMicros() - start_us_, arg_);
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

 private:
  FlightRecorder &recorder_;
  const char *name_;
  const char *category_;
  idx_t arg_;
  uint64_t start_us_;
};

/// Records an instant event ('i'): a point occurrence (HT reset, OOM
/// rejection, planner decision, ...).
inline void TraceInstant(const char *name, const char *category,
                         idx_t arg = kInvalidIndex) {
  FlightRecorder &recorder = FlightRecorder::Global();
  recorder.Record(name, category, 'i', recorder.NowMicros(), 0, arg);
}

}  // namespace ssagg

#endif  // SSAGG_OBSERVE_FLIGHT_RECORDER_H_
