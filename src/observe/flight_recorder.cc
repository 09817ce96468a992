#include "observe/flight_recorder.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "observe/log.h"

namespace ssagg {

FlightRecorder::FlightRecorder()
    : epoch_(std::chrono::steady_clock::now()),
      slots_([this](void *ring) { ReleaseRing(static_cast<Ring *>(ring)); }) {}

FlightRecorder &FlightRecorder::Global() {
  // Leaked so instrumentation may record during static destruction, same as
  // MetricsRegistry::Global; the atexit flush still sees a live recorder.
  static FlightRecorder *global = []() {
    auto *recorder = new FlightRecorder();
    if (const char *dir = std::getenv("SSAGG_FLIGHT_DUMP")) {
      if (dir[0] != '\0') {
        recorder->SetDumpDirectory(dir);
        InstallSignalHandler();
      }
    }
    if (const char *path = std::getenv("SSAGG_TRACE")) {
      if (path[0] != '\0') {
        recorder->SetTracePath(path);
        std::atexit([]() { (void)FlightRecorder::Global().FlushTrace(); });
      }
    }
    return recorder;
  }();
  return *global;
}

FlightRecorder::Ring &FlightRecorder::LocalRing() {
  // Same shape as MetricsRegistry::LocalShard: a one-entry inline cache in
  // front of a per-thread map, so the common case (Global()) is two loads.
  struct LastUsed {
    uint64_t recorder_id = 0;
    Ring *ring = nullptr;
  };
  thread_local LastUsed last;
  if (last.recorder_id == slots_.id()) {
    return *last.ring;
  }
  auto *ring = static_cast<Ring *>(slots_.Find());
  if (ring == nullptr) {
    {
      ScopedLock guard(lock_);
      if (free_rings_.empty()) {
        rings_.push_back(std::make_unique<Ring>());
        drained_.push_back(0);
        ring = rings_.back().get();
        ring->slot = static_cast<uint32_t>(rings_.size());
      } else {
        ring = free_rings_.back();
        free_rings_.pop_back();
      }
    }
    slots_.Bind(ring);
  }
  last = LastUsed{slots_.id(), ring};
  return *ring;
}

void FlightRecorder::ReleaseRing(Ring *ring) {
  ScopedLock guard(lock_);
  free_rings_.push_back(ring);
}

void FlightRecorder::Record(const char *name, const char *category, char phase,
                            uint64_t ts_us, uint64_t dur_us, uint64_t arg) {
  Ring &ring = LocalRing();
  uint64_t head = ring.head.load(std::memory_order_relaxed);
  idx_t base = static_cast<idx_t>(head % kRingSlots) * kWords;
  // Release stores: a reader whose acquire load sees any of these words is
  // guaranteed to see a head of at least `head` when it re-reads it.
  ring.words[base + 0].store(reinterpret_cast<uint64_t>(name),
                             std::memory_order_release);
  ring.words[base + 1].store(reinterpret_cast<uint64_t>(category),
                             std::memory_order_release);
  ring.words[base + 2].store(ts_us, std::memory_order_release);
  ring.words[base + 3].store(dur_us, std::memory_order_release);
  ring.words[base + 4].store(arg, std::memory_order_release);
  ring.words[base + 5].store(static_cast<uint64_t>(phase),
                             std::memory_order_release);
  // Publishes the slot: readers acquire head and only trust slots below it.
  ring.head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::SetDumpDirectory(std::string dir) {
  ScopedLock guard(lock_);
  dump_dir_ = std::move(dir);
}

std::string FlightRecorder::dump_directory() const {
  ScopedLock guard(lock_);
  return dump_dir_;
}

std::vector<FlightRecorder::Event> FlightRecorder::ReadRing(const Ring &ring,
                                                           uint64_t from,
                                                           uint64_t to) {
  std::vector<Event> events;
  events.reserve(to - from);
  for (uint64_t i = from; i < to; i++) {
    idx_t base = static_cast<idx_t>(i % kRingSlots) * kWords;
    Event event;
    event.name = reinterpret_cast<const char *>(
        ring.words[base + 0].load(std::memory_order_acquire));
    event.category = reinterpret_cast<const char *>(
        ring.words[base + 1].load(std::memory_order_acquire));
    event.ts_us = ring.words[base + 2].load(std::memory_order_acquire);
    event.dur_us = ring.words[base + 3].load(std::memory_order_acquire);
    event.arg = ring.words[base + 4].load(std::memory_order_acquire);
    event.phase = static_cast<char>(
        ring.words[base + 5].load(std::memory_order_acquire));
    events.push_back(event);
  }
  // Event i's slot is next written by event i + kRingSlots, which can have
  // started only once head reached it; so the events still inside the
  // retained window of the re-read head were copied intact.
  uint64_t intact_from =
      OldestRetained(ring.head.load(std::memory_order_acquire));
  if (intact_from > from) {
    auto torn = static_cast<std::ptrdiff_t>(std::min(intact_from, to) - from);
    events.erase(events.begin(), events.begin() + torn);
  }
  return events;
}

Json FlightRecorder::EventJson(const Event &event, uint32_t tid) {
  Json e = Json::Object();
  e.Set("name", event.name);
  e.Set("cat", event.category);
  e.Set("ph", std::string(1, event.phase));
  e.Set("pid", uint64_t(1));
  e.Set("tid", static_cast<uint64_t>(tid));
  e.Set("ts", event.ts_us);
  if (event.phase == 'X') {
    e.Set("dur", event.dur_us);
  }
  if (event.phase == 'i') {
    e.Set("s", "t");  // thread-scoped instant
  }
  if (event.arg != kInvalidIndex) {
    e.Set("args", Json::Object().Set("v", event.arg));
  }
  return e;
}

Json FlightRecorder::ToJson() const {
  Json events = Json::Array();
  ScopedLock guard(lock_);
  for (const auto &ring : rings_) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    for (const Event &event : ReadRing(*ring, OldestRetained(head), head)) {
      events.Push(EventJson(event, ring->slot));
    }
  }
  Json doc = Json::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  return doc;
}

void FlightRecorder::SetTracePath(std::string path) {
  ScopedLock guard(lock_);
  trace_path_ = std::move(path);
  trace_end_ = 0;
  trace_events_ = 0;
  trace_dropped_ = 0;
  for (idx_t r = 0; r < rings_.size(); r++) {
    drained_[r] = rings_[r]->head.load(std::memory_order_acquire);
  }
}

std::string FlightRecorder::trace_path() const {
  ScopedLock guard(lock_);
  return trace_path_;
}

Status FlightRecorder::FlushTrace() {
  ScopedLock guard(lock_);
  if (trace_path_.empty()) {
    return Status::OK();
  }
  // The file is `{"traceEvents":[` + one event per line + a trailer that
  // closes the array and carries the drop count. Each flush overwrites the
  // old trailer with the new events and a new trailer; the file state only
  // advances once the write succeeded, so a failed flush is retried whole.
  const bool fresh = trace_end_ == 0;
  std::string text = fresh ? "{\"traceEvents\":[" : "";
  uint64_t events = trace_events_;
  uint64_t dropped = trace_dropped_;
  std::vector<uint64_t> drained = drained_;
  for (idx_t r = 0; r < rings_.size(); r++) {
    const Ring &ring = *rings_[r];
    uint64_t head = ring.head.load(std::memory_order_acquire);
    std::vector<Event> copied =
        ReadRing(ring, std::max(drained[r], OldestRetained(head)), head);
    dropped += head - drained[r] - copied.size();
    drained[r] = head;
    for (const Event &event : copied) {
      text += events++ == 0 ? "\n" : ",\n";
      text += EventJson(event, ring.slot).Dump();
    }
  }
  uint64_t end = (fresh ? 0 : trace_end_) + text.size();
  text += "\n],\"displayTimeUnit\":\"ms\",\"droppedEvents\":" +
          std::to_string(dropped) + "}\n";

  std::FILE *f = std::fopen(trace_path_.c_str(), fresh ? "w" : "r+");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file " + trace_path_);
  }
  bool ok =
      fresh || std::fseek(f, static_cast<long>(trace_end_), SEEK_SET) == 0;
  ok = ok && std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    return Status::IOError("cannot write trace file " + trace_path_);
  }
  // The trailer never shrinks (the drop count only grows), so no stale
  // bytes remain past it.
  trace_end_ = end;
  trace_events_ = events;
  trace_dropped_ = dropped;
  drained_ = std::move(drained);
  return Status::OK();
}

std::string FlightRecorder::DumpAnomaly(const char *reason) {
  std::string dir = dump_directory();
  if (dir.empty()) {
    return "";
  }
  uint64_t seq = dump_seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq >= kMaxDumps) {
    return "";
  }
  std::string tag;
  for (const char *p = reason; *p != '\0'; p++) {
    char c = *p;
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9');
    tag.push_back(ok ? c : '_');
  }
  Json doc = ToJson();
  doc.Set("flightReason", reason);
  std::string text = doc.Dump(1);
  char path[512];
  std::snprintf(path, sizeof(path), "%s/ssagg_flight_%s_%llu.json",
                dir.c_str(), tag.c_str(),
                static_cast<unsigned long long>(seq));
  std::FILE *f = std::fopen(path, "w");
  if (f == nullptr) {
    SSAGG_LOG_WARN("flight recorder: cannot open dump file %s", path);
    return "";
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    SSAGG_LOG_WARN("flight recorder: short write to dump file %s", path);
    return "";
  }
  SSAGG_LOG_INFO("flight recorder: dumped %s (%llu events) to %s", reason,
                 static_cast<unsigned long long>(EventCount()), path);
  return path;
}

idx_t FlightRecorder::EventCount() const {
  ScopedLock guard(lock_);
  idx_t total = 0;
  for (const auto &ring : rings_) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    total += static_cast<idx_t>(head - OldestRetained(head));
  }
  return total;
}

idx_t FlightRecorder::RingCount() const {
  ScopedLock guard(lock_);
  return rings_.size();
}

void FlightRecorder::Clear() {
  ScopedLock guard(lock_);
  for (const auto &ring : rings_) {
    ring->head.store(0, std::memory_order_release);
  }
  std::fill(drained_.begin(), drained_.end(), 0);
}

void FlightRecorder::InstallSignalHandler() {
#ifndef _WIN32
  std::signal(SIGUSR1, [](int) {
    // Best effort: DumpAnomaly allocates and locks, which is formally
    // undefined from a signal handler; acceptable for an operator poking a
    // live process, and never installed unless dumping was requested.
    (void)FlightRecorder::Global().DumpAnomaly("sigusr1");
  });
#endif
}

}  // namespace ssagg
