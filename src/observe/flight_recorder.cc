#include "observe/flight_recorder.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "observe/log.h"

namespace ssagg {

FlightRecorder::FlightRecorder()
    : slots_([this](void *ring) { ReleaseRing(static_cast<Ring *>(ring)); }) {}

FlightRecorder &FlightRecorder::Global() {
  // Leaked so instrumentation may record during static destruction, same as
  // MetricsRegistry::Global / TraceRecorder::Global.
  static FlightRecorder *global = []() {
    auto *recorder = new FlightRecorder();
    if (const char *dir = std::getenv("SSAGG_FLIGHT_DUMP")) {
      if (dir[0] != '\0') {
        recorder->SetDumpDirectory(dir);
        InstallSignalHandler();
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
  idx_t base = static_cast<idx_t>(head % kRingEvents) * kWords;
  ring.words[base + 0].store(reinterpret_cast<uint64_t>(name),
                             std::memory_order_relaxed);
  ring.words[base + 1].store(reinterpret_cast<uint64_t>(category),
                             std::memory_order_relaxed);
  ring.words[base + 2].store(ts_us, std::memory_order_relaxed);
  ring.words[base + 3].store(dur_us, std::memory_order_relaxed);
  ring.words[base + 4].store(arg, std::memory_order_relaxed);
  ring.words[base + 5].store(static_cast<uint64_t>(phase),
                             std::memory_order_relaxed);
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

Json FlightRecorder::ToJson() const {
  Json events = Json::Array();
  ScopedLock guard(lock_);
  for (const auto &ring : rings_) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t retained = head < kRingEvents ? head : kRingEvents;
    for (uint64_t i = head - retained; i < head; i++) {
      idx_t base = static_cast<idx_t>(i % kRingEvents) * kWords;
      auto name = reinterpret_cast<const char *>(
          ring->words[base + 0].load(std::memory_order_relaxed));
      auto category = reinterpret_cast<const char *>(
          ring->words[base + 1].load(std::memory_order_relaxed));
      uint64_t ts_us = ring->words[base + 2].load(std::memory_order_relaxed);
      uint64_t dur_us = ring->words[base + 3].load(std::memory_order_relaxed);
      uint64_t arg = ring->words[base + 4].load(std::memory_order_relaxed);
      auto phase = static_cast<char>(
          ring->words[base + 5].load(std::memory_order_relaxed));
      if (name == nullptr ||
          (phase != 'X' && phase != 'i' && phase != 'C')) {
        // Slot raced a concurrent writer mid-update; drop it.
        continue;
      }
      Json e = Json::Object();
      e.Set("name", name);
      e.Set("cat", category == nullptr ? "flight" : category);
      e.Set("ph", std::string(1, phase));
      e.Set("pid", uint64_t(1));
      e.Set("tid", static_cast<uint64_t>(ring->slot));
      e.Set("ts", ts_us);
      if (phase == 'X') {
        e.Set("dur", dur_us);
      }
      if (phase == 'i') {
        e.Set("s", "t");
      }
      if (phase == 'C') {
        e.Set("args", Json::Object().Set("value", arg));
      } else if (arg != kInvalidIndex) {
        e.Set("args", Json::Object().Set("v", arg));
      }
      events.Push(std::move(e));
    }
  }
  Json doc = Json::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  return doc;
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
    total += static_cast<idx_t>(head < kRingEvents ? head : kRingEvents);
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
