#include "observe/thread_slots.h"

#include <atomic>
#include <unordered_map>

#include "common/mutex.h"

namespace ssagg {

/// Process-wide table of live slot directories.
class ThreadSlotTable {
 public:
  static ThreadSlotTable &Get() {
    // Leaked: threads may still exit, and hand slots back to the leaked
    // global stores, during static destruction.
    static auto *table = new ThreadSlotTable();
    return *table;
  }

  void Register(ThreadSlots *slots) {
    ScopedLock guard(lock_);
    live_.emplace(slots->id_, slots);
  }

  void Unregister(const ThreadSlots *slots) {
    ScopedLock guard(lock_);
    live_.erase(slots->id_);
  }

  /// Hands an exiting thread's slots back to the stores that are still
  /// alive; slots of destroyed stores died with them.
  void ReleaseAll(const std::unordered_map<uint64_t, void *> &held) {
    ScopedLock guard(lock_);
    for (const auto &[id, slot] : held) {
      auto it = live_.find(id);
      if (it != live_.end()) {
        it->second->release_(slot);
      }
    }
  }

 private:
  Mutex lock_{LockRank::kThreadSlotTable, "ThreadSlotTable::lock_"};
  std::unordered_map<uint64_t, ThreadSlots *> live_ SSAGG_GUARDED_BY(lock_);
};

namespace {

std::atomic<uint64_t> next_directory_id{1};

/// The calling thread's slots, by directory id.
struct HeldSlots {
  std::unordered_map<uint64_t, void *> by_id;
  ~HeldSlots() { ThreadSlotTable::Get().ReleaseAll(by_id); }
};

thread_local HeldSlots held_slots;

}  // namespace

ThreadSlots::ThreadSlots(std::function<void(void *)> release)
    : id_(next_directory_id.fetch_add(1, std::memory_order_relaxed)),
      release_(std::move(release)) {
  ThreadSlotTable::Get().Register(this);
}

ThreadSlots::~ThreadSlots() { ThreadSlotTable::Get().Unregister(this); }

void *ThreadSlots::Find() const {
  auto it = held_slots.by_id.find(id_);
  return it == held_slots.by_id.end() ? nullptr : it->second;
}

void ThreadSlots::Bind(void *slot) { held_slots.by_id.emplace(id_, slot); }

}  // namespace ssagg
