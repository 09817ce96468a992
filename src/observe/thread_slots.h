#ifndef SSAGG_OBSERVE_THREAD_SLOTS_H_
#define SSAGG_OBSERVE_THREAD_SLOTS_H_

#include <cstdint>
#include <functional>

namespace ssagg {

/// The per-thread slot directory of one observability store
/// (MetricsRegistry shards, FlightRecorder rings).
///
/// A store gives each thread a private slot on the thread's first use and
/// owns every slot it created for its own lifetime. When a thread exits,
/// each slot it holds is handed back to its store through the `release`
/// callback, and the store's next new thread reuses it. The number of slots
/// a store creates is therefore its peak number of concurrently live
/// threads, not the number of threads that ever touched it.
///
/// Stores are found through a process-wide table of live directories keyed
/// by a never-reused id. The destructor removes the entry, so a thread that
/// exits after its (non-global) store died finds nothing and touches
/// nothing. Declare the directory as the store's *last* member: it is then
/// destroyed first, and no exiting thread can hand a slot back into a
/// half-destroyed store.
class ThreadSlots {
 public:
  /// `release(slot)` takes back a slot whose thread exited. It runs on the
  /// exiting thread with the live-table lock held (rank
  /// kThreadSlotTable), so the store cannot be destroyed meanwhile; it may
  /// take the store's own lock.
  explicit ThreadSlots(std::function<void(void *)> release);
  ~ThreadSlots();

  ThreadSlots(const ThreadSlots &) = delete;
  ThreadSlots &operator=(const ThreadSlots &) = delete;

  /// Never reused: a cache keyed by it goes stale instead of aliasing a
  /// later store.
  [[nodiscard]] uint64_t id() const { return id_; }

  /// The calling thread's slot in this store, or nullptr before its first
  /// Bind. A per-thread hash lookup; stores keep a one-entry cache in front.
  [[nodiscard]] void *Find() const;
  /// Records `slot` as the calling thread's slot in this store.
  void Bind(void *slot);

 private:
  friend class ThreadSlotTable;

  const uint64_t id_;
  const std::function<void(void *)> release_;
};

}  // namespace ssagg

#endif  // SSAGG_OBSERVE_THREAD_SLOTS_H_
