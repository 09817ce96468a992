#ifndef SSAGG_OBSERVE_FLIGHT_RECORDER_H_
#define SSAGG_OBSERVE_FLIGHT_RECORDER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/mutex.h"
#include "observe/json.h"
#include "observe/thread_slots.h"

namespace ssagg {

/// Always-on black box: a per-thread bounded ring of the most recent trace
/// events, recorded even when file tracing (SSAGG_TRACE) is off, so the
/// last moments before any failure are recoverable after the fact.
///
/// Hot-path contract: Record touches only the calling thread's ring — a
/// fixed block of relaxed atomic words plus one release store on the ring
/// head. No locks, no allocation (a thread takes its ring on first use), and
/// instrumentation sites pay a single relaxed load when the recorder is
/// disabled. Event fields mirror TraceRecorder::Event; name and category
/// must be string literals (the ring stores the pointers).
///
/// Rings are recycled: an exiting thread hands its ring back (events
/// intact) and the next new thread appends to it, so the ring count is
/// bounded by the peak number of concurrently live threads
/// (observe/thread_slots.h). A ring's "tid" in the dumped trace is
/// therefore its slot number, shared by the threads that used it in turn.
///
/// Readers (DumpAnomaly / ToJson) walk the rings while writers may still be
/// appending. Every word is individually atomic, so a concurrent overwrite
/// can at worst pair fields from two adjacent generations of the same slot
/// into one reported event — never produce an invalid pointer or torn word.
/// That is the accepted price for a wait-free write path; anomaly dumps are
/// diagnostics, not ground truth.
///
/// Dumps are written as Chrome-trace JSON files into the directory given by
/// SSAGG_FLIGHT_DUMP (or SetDumpDirectory); with no directory configured,
/// DumpAnomaly is a cheap no-op, so instrumented anomaly sites (query error
/// Status, planner demotion, injected fault, SIGUSR1) can call it
/// unconditionally.
class FlightRecorder {
 public:
  /// Events retained per thread; 8 threads keep the issue's ~64k events.
  static constexpr idx_t kRingEvents = 8192;
  /// Dump files are capped so a crash loop cannot fill the disk.
  static constexpr idx_t kMaxDumps = 64;

  FlightRecorder();

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// The recorder TraceRecorder feeds. Reads SSAGG_FLIGHT_DUMP once and
  /// installs the SIGUSR1 dump handler when a dump directory is set.
  static FlightRecorder &Global();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// On by default; tests and overhead measurements may switch it off.
  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends one event to the calling thread's ring. `phase` is the Chrome
  /// phase character ('X', 'i', 'C'); `arg` uses kInvalidIndex for absent.
  void Record(const char *name, const char *category, char phase,
              uint64_t ts_us, uint64_t dur_us, uint64_t arg);

  /// Where DumpAnomaly writes; empty disables dumping (the default unless
  /// SSAGG_FLIGHT_DUMP is set).
  void SetDumpDirectory(std::string dir);
  [[nodiscard]] std::string dump_directory() const;

  /// Writes the ring contents as `<dir>/ssagg_flight_<reason>_<seq>.json`
  /// and returns the path; returns "" when no dump directory is configured
  /// or the dump cap is reached. Safe to call from any thread, including
  /// concurrently with writers.
  std::string DumpAnomaly(const char *reason);

  /// The retained events as a Chrome-trace JSON document (same schema as
  /// TraceRecorder::ToJson, plus a "flightReason" member when dumping).
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

  struct Ring {
    /// Total events ever written; slot = head % kRingEvents. Single writer
    /// (the owning thread); release store pairs with readers' acquire.
    std::atomic<uint64_t> head{0};
    /// 1-based creation index, reported as the events' "tid".
    uint32_t slot = 0;
    std::atomic<uint64_t> words[kRingEvents * kWords] = {};
  };

  Ring &LocalRing();
  /// Takes back the ring of an exiting thread (ThreadSlots release hook).
  void ReleaseRing(Ring *ring);

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> dump_seq_{0};

  /// Protects ring registration, the free list and the dump directory.
  /// Never taken on the record path after a thread's first event.
  mutable Mutex lock_{LockRank::kFlightRecorder, "FlightRecorder::lock_"};
  std::vector<std::unique_ptr<Ring>> rings_ SSAGG_GUARDED_BY(lock_);
  /// Rings of exited threads, handed to the next new thread.
  std::vector<Ring *> free_rings_ SSAGG_GUARDED_BY(lock_);
  std::string dump_dir_ SSAGG_GUARDED_BY(lock_);
  /// Last member, so it is destroyed first (see ThreadSlots); its id keys
  /// the thread-local ring cache (tests may build private instances).
  ThreadSlots slots_;
};

}  // namespace ssagg

#endif  // SSAGG_OBSERVE_FLIGHT_RECORDER_H_
