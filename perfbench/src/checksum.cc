#include "checksum.h"

namespace perfbench {

namespace {

struct ChecksumState : public ssagg::LocalSinkState {
  Checksum local;
};

}  // namespace

uint64_t HashCell(const ssagg::Vector &vector, ssagg::idx_t row,
                  ssagg::idx_t column) {
  using ssagg::LogicalTypeId;
  if (!vector.validity().RowIsValid(row)) {
    return Fmix(ColumnSalt(column) + 0x5bd1e995ULL);
  }
  switch (vector.type()) {
    case LogicalTypeId::kBoolean:
      return HashInt(column, vector.GetValue<uint8_t>(row));
    case LogicalTypeId::kInt32:
    case LogicalTypeId::kDate:
      return HashInt(column, vector.GetValue<int32_t>(row));
    case LogicalTypeId::kInt64:
      return HashInt(column, vector.GetValue<int64_t>(row));
    case LogicalTypeId::kDouble:
      return HashDouble(column, vector.GetValue<double>(row));
    case LogicalTypeId::kVarchar:
      return HashString(column, vector.GetString(row).View());
  }
  return 0;
}

uint64_t RowPartial(const ssagg::DataChunk &chunk, ssagg::idx_t row,
                    ssagg::idx_t first_column) {
  uint64_t partial = 0;
  for (ssagg::idx_t c = 0; c < chunk.ColumnCount(); c++) {
    partial += HashCell(chunk.column(c), row, first_column + c);
  }
  return partial;
}

ssagg::Result<std::unique_ptr<ssagg::LocalSinkState>>
ChecksumSink::InitLocal() {
  return std::unique_ptr<ssagg::LocalSinkState>(new ChecksumState());
}

ssagg::Status ChecksumSink::Sink(ssagg::DataChunk &chunk,
                                 ssagg::LocalSinkState &state) {
  auto &local = static_cast<ChecksumState &>(state).local;
  for (ssagg::idx_t row = 0; row < chunk.size(); row++) {
    local.AddRow(RowPartial(chunk, row));
  }
  return ssagg::Status::OK();
}

ssagg::Status ChecksumSink::Combine(ssagg::LocalSinkState &state) {
  auto &local = static_cast<ChecksumState &>(state).local;
  rows_.fetch_add(local.rows, std::memory_order_relaxed);
  sum_.fetch_add(local.sum, std::memory_order_relaxed);
  local = {};
  return ssagg::Status::OK();
}

}  // namespace perfbench
