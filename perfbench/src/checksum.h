#ifndef PERFBENCH_CHECKSUM_H_
#define PERFBENCH_CHECKSUM_H_

// Order-independent result checksums. A row's hash is a finalizer over the
// sum of its column hashes (each salted with the column's output position),
// and a result's checksum is the row count plus the wrapping sum of its row
// hashes. Column hashes add, so a reference can assemble a joined row from
// the hashes of its two sides. The functions here are the benchmark's own
// and share nothing with the library's hash table.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "ssagg/ssagg.h"

namespace perfbench {

inline uint64_t Fmix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

inline uint64_t ColumnSalt(ssagg::idx_t column) {
  return (column + 1) * 0x9e3779b97f4a7c15ULL;
}

inline uint64_t HashInt(ssagg::idx_t column, int64_t value) {
  return Fmix(static_cast<uint64_t>(value) ^ ColumnSalt(column));
}

inline uint64_t HashDouble(ssagg::idx_t column, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return Fmix(bits ^ ColumnSalt(column));
}

inline uint64_t HashString(ssagg::idx_t column, std::string_view value) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (char c : value) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return Fmix(h ^ value.size() ^ ColumnSalt(column));
}

/// Hash of one vector cell, placed at output position `column`.
uint64_t HashCell(const ssagg::Vector &vector, ssagg::idx_t row,
                  ssagg::idx_t column);

/// Sum of the cell hashes of columns [0, count) of `chunk`'s row, placed at
/// output positions first_column, first_column + 1, ...
uint64_t RowPartial(const ssagg::DataChunk &chunk, ssagg::idx_t row,
                    ssagg::idx_t first_column = 0);

struct Checksum {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void AddRow(uint64_t partial) {
    rows++;
    sum += Fmix(partial);
  }
  bool operator==(const Checksum &other) const {
    return rows == other.rows && sum == other.sum;
  }
};

/// Result collector that keeps only the row count and checksum.
class ChecksumSink : public ssagg::DataSink {
 public:
  ssagg::Result<std::unique_ptr<ssagg::LocalSinkState>> InitLocal() override;
  ssagg::Status Sink(ssagg::DataChunk &chunk,
                     ssagg::LocalSinkState &state) override;
  ssagg::Status Combine(ssagg::LocalSinkState &state) override;

  Checksum Result() const {
    return {rows_.load(std::memory_order_relaxed),
            sum_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> sum_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKSUM_H_
