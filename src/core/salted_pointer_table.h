#ifndef SSAGG_CORE_SALTED_POINTER_TABLE_H_
#define SSAGG_CORE_SALTED_POINTER_TABLE_H_

#include <cstring>

#include "buffer/buffer_manager.h"
#include "layout/radix_partitioning.h"

namespace ssagg {

inline idx_t NextPowerOfTwo(idx_t n) {
  idx_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

/// The linear-probing pointer table of both hash operators (paper Section
/// V): 64-bit entries holding a 48-bit row pointer and, in the upper bits,
/// the row hash's 16-bit salt; 0 is empty. The entry array is charged to
/// the buffer manager but never paged. Each operator runs its own
/// vectorized probe rounds over entries().
class SaltedPointerTable {
 public:
  /// Replaces the entries with `capacity` (a power of two) zeroed ones.
  /// OutOfMemory past 2^kMaxHashTableBits entries (the offset bits would
  /// overlap the radix bits) or when the pool denies the memory; the old
  /// entries stay in place on failure.
  Status Allocate(BufferManager &buffer_manager, idx_t capacity) {
    if (capacity > kMaxCapacity) {
      return Status::OutOfMemory(
          "hash table cannot grow beyond 2^24 entries; increase radix bits");
    }
    SSAGG_ASSIGN_OR_RETURN(alloc_,
                           buffer_manager.AllocateNonPaged(capacity * 8));
    capacity_ = capacity;
    mask_ = capacity - 1;
    Clear();
    return Status::OK();
  }

  void Clear() { std::memset(alloc_.data(), 0, capacity_ * 8); }

  /// Stores `row` in the first empty slot of its probe chain, so equal
  /// hashes take consecutive slots. The table must have a free slot.
  void Insert(const_data_ptr_t row, hash_t hash) {
    uint64_t *table = entries();
    idx_t idx = hash & mask_;
    while (table[idx] != 0) {
      idx = (idx + 1) & mask_;
    }
    table[idx] = MakeEntry(row, ExtractSalt(hash));
  }

  uint64_t *entries() { return reinterpret_cast<uint64_t *>(alloc_.data()); }
  idx_t capacity() const { return capacity_; }
  idx_t mask() const { return mask_; }
  bool AtMaxCapacity() const { return capacity_ >= kMaxCapacity; }

 private:
  static constexpr idx_t kMaxCapacity = idx_t(1) << kMaxHashTableBits;

  NonPagedAllocation alloc_;
  idx_t capacity_ = 0;
  idx_t mask_ = 0;
};

}  // namespace ssagg

#endif  // SSAGG_CORE_SALTED_POINTER_TABLE_H_
