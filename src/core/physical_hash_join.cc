#include "core/physical_hash_join.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/row_matcher.h"
#include "core/salted_pointer_table.h"
#include "layout/row_kernels.h"

namespace ssagg {

namespace {

/// ANY_VALUE requests for every non-key column: reuses the aggregation's
/// row-layout builder to get [keys..., hash, payload...] rows whose string
/// data lives on spillable heap pages.
std::vector<AggregateRequest> PayloadRequests(
    const std::vector<LogicalTypeId> &types, const std::vector<idx_t> &keys) {
  std::vector<AggregateRequest> requests;
  for (idx_t c = 0; c < types.size(); c++) {
    if (std::find(keys.begin(), keys.end(), c) == keys.end()) {
      requests.push_back({AggregateKind::kAnyValue, c});
    }
  }
  return requests;
}

/// Maps each INPUT column to its layout column (keys first, then sticky
/// payloads in input order).
std::vector<idx_t> InputToLayout(const AggregateRowLayout &layout,
                                 idx_t input_columns) {
  std::vector<idx_t> map(input_columns, kInvalidIndex);
  for (idx_t k = 0; k < layout.group_columns.size(); k++) {
    map[layout.group_columns[k]] = k;
  }
  for (const auto &agg : layout.aggregates) {
    map[agg.request.input_column] = agg.layout_column;
  }
  return map;
}

}  // namespace

//===----------------------------------------------------------------------===//
// SideSink: materializes one input into radix-partitioned spillable pages
//===----------------------------------------------------------------------===//

class PhysicalHashJoin::SideSink : public DataSink {
 public:
  SideSink(BufferManager &buffer_manager, const AggregateRowLayout &layout,
           idx_t radix_bits, PartitionedTupleData &global)
      : buffer_manager_(buffer_manager),
        layout_(layout),
        radix_bits_(radix_bits),
        global_(global) {}

  Result<std::unique_ptr<LocalSinkState>> InitLocal() override {
    auto state = std::make_unique<LocalState>();
    state->data = std::make_unique<PartitionedTupleData>(
        buffer_manager_, layout_.layout, radix_bits_);
    state->append_chunk.Initialize(layout_.layout.Types());
    return std::unique_ptr<LocalSinkState>(std::move(state));
  }

  Status Sink(DataChunk &chunk, LocalSinkState &state) override {
    auto &local = static_cast<LocalState &>(state);
    const idx_t count = chunk.size();
    hash_t *hashes = layout_.FillLayoutChunk(chunk, local.append_chunk);
    // A NULL key never matches in an inner join: such rows are not
    // materialized, so neither side's table or probe ever sees one.
    idx_t *keyed = nullptr;
    idx_t kept = count;
    for (idx_t c : layout_.group_columns) {
      const ValidityMask &validity = chunk.column(c).validity();
      if (validity.AllValid()) {
        continue;
      }
      if (keyed == nullptr) {
        local.keyed.InitRange(0, count);
        keyed = local.keyed.data();
      }
      idx_t valid = 0;
      for (idx_t i = 0; i < kept; i++) {
        if (validity.RowIsValid(keyed[i])) {
          keyed[valid++] = keyed[i];
        }
      }
      kept = valid;
    }
    SSAGG_RETURN_NOT_OK(
        local.data->Append(local.append_chunk, hashes, keyed, kept, nullptr));
    // Unpin after every chunk: nothing references the rows until the join
    // phase, so the pages may spill freely (RAM-oblivious materialization).
    local.data->ReleaseAppendPins();
    return Status::OK();
  }

  Status Combine(LocalSinkState &state) override {
    auto &local = static_cast<LocalState &>(state);
    // global_ is a reference to collection state owned by the join operator,
    // so the capability analysis cannot tie it to lock_; the lock still
    // serializes every Combine into it (the only concurrent access).
    ScopedLock guard(lock_);
    global_.Combine(*local.data);
    return Status::OK();
  }

 private:
  struct LocalState : public LocalSinkState {
    std::unique_ptr<PartitionedTupleData> data;
    DataChunk append_chunk;
    SelectionVector keyed;
  };

  BufferManager &buffer_manager_;
  const AggregateRowLayout &layout_;
  idx_t radix_bits_;
  PartitionedTupleData &global_;
  Mutex lock_{LockRank::kJoinBuild, "PhysicalHashJoin::SideSink::lock_"};
};

//===----------------------------------------------------------------------===//
// PhysicalHashJoin
//===----------------------------------------------------------------------===//

PhysicalHashJoin::PhysicalHashJoin(BufferManager &buffer_manager,
                                   HashJoinConfig config)
    : buffer_manager_(buffer_manager), config_(config) {}

PhysicalHashJoin::~PhysicalHashJoin() = default;

DataSink &PhysicalHashJoin::build_sink() { return *build_sink_; }
DataSink &PhysicalHashJoin::probe_sink() { return *probe_sink_; }

Result<std::unique_ptr<PhysicalHashJoin>> PhysicalHashJoin::Create(
    BufferManager &buffer_manager, std::vector<LogicalTypeId> build_types,
    std::vector<idx_t> build_keys, std::vector<LogicalTypeId> probe_types,
    std::vector<idx_t> probe_keys, HashJoinConfig config) {
  if (build_keys.size() != probe_keys.size() || build_keys.empty()) {
    return Status::InvalidArgument("join needs matching key column lists");
  }
  for (idx_t k = 0; k < build_keys.size(); k++) {
    if (build_types[build_keys[k]] != probe_types[probe_keys[k]]) {
      return Status::InvalidArgument("join key types do not match");
    }
  }
  std::unique_ptr<PhysicalHashJoin> join(
      new PhysicalHashJoin(buffer_manager, config));
  join->build_types_ = build_types;
  join->probe_types_ = probe_types;
  SSAGG_ASSIGN_OR_RETURN(
      join->build_layout_,
      AggregateRowLayout::Build(build_types, build_keys,
                                PayloadRequests(build_types, build_keys)));
  SSAGG_ASSIGN_OR_RETURN(
      join->probe_layout_,
      AggregateRowLayout::Build(probe_types, probe_keys,
                                PayloadRequests(probe_types, probe_keys)));
  join->build_data_ = std::make_unique<PartitionedTupleData>(
      buffer_manager, join->build_layout_.layout, config.radix_bits);
  join->probe_data_ = std::make_unique<PartitionedTupleData>(
      buffer_manager, join->probe_layout_.layout, config.radix_bits);
  join->build_sink_ = std::make_unique<SideSink>(
      buffer_manager, join->build_layout_, config.radix_bits,
      *join->build_data_);
  join->probe_sink_ = std::make_unique<SideSink>(
      buffer_manager, join->probe_layout_, config.radix_bits,
      *join->probe_data_);
  return join;
}

std::vector<LogicalTypeId> PhysicalHashJoin::OutputTypes() const {
  std::vector<LogicalTypeId> types = probe_types_;
  types.insert(types.end(), build_types_.begin(), build_types_.end());
  return types;
}

Status PhysicalHashJoin::JoinPartition(idx_t partition_idx, DataSink &output,
                                       TaskExecutor &executor) {
  TupleDataCollection &build = build_data_->partition(partition_idx);
  TupleDataCollection &probe = probe_data_->partition(partition_idx);
  if (probe.Count() == 0 || build.Count() == 0) {
    // No matches possible; release both sides eagerly.
    build_data_->ReleasePartitionPins(partition_idx);
    build.Reset();
    probe_data_->ReleasePartitionPins(partition_idx);
    probe.Reset();
    return Status::OK();
  }
  // The shared salted pointer table over the build partition; duplicate
  // keys take consecutive slots of one probe chain.
  SaltedPointerTable table;
  const idx_t capacity = NextPowerOfTwo(
      std::max<idx_t>(config_.build_initial_capacity, build.Count() * 2));
  SSAGG_RETURN_NOT_OK(table.Allocate(buffer_manager_, capacity));
  // Pin the whole build partition with string-pointer recomputation: probes
  // compare (possibly string) keys against these rows and emit gathers
  // from them.
  TupleDataPinnedState build_pins;
  SSAGG_RETURN_NOT_OK(build.PinAllRows(build_pins, [&](data_ptr_t row) {
    hash_t h;
    std::memcpy(&h, row + build_layout_.hash_offset, sizeof(hash_t));
    table.Insert(row, h);
  }));
  const uint64_t *entries = table.entries();
  const idx_t mask = table.mask();
  // Both layouts are [keys..., hash, payload...] with the same key types,
  // so the probe chunk's leading columns line up with the build rows'.
  RowMatcher matcher;
  matcher.Initialize(build_layout_.layout, build_layout_.group_count,
                     build_layout_.hash_column);

  // Output columns are gathered from matched (probe row, build row) pairs.
  std::vector<idx_t> probe_map = InputToLayout(probe_layout_,
                                               probe_types_.size());
  std::vector<idx_t> build_map = InputToLayout(build_layout_,
                                               build_types_.size());
  SSAGG_ASSIGN_OR_RETURN(auto out_local, output.InitLocal());
  DataChunk out(OutputTypes());
  std::vector<data_ptr_t> out_probe(kVectorSize);
  std::vector<data_ptr_t> out_build(kVectorSize);
  idx_t out_count = 0;
  // Strings are gathered zero-copy: they point into the pinned build pages
  // and the probe scan's current page, so a batch is flushed before the
  // next probe Scan.
  auto flush = [&]() -> Status {
    if (out_count == 0) {
      return Status::OK();
    }
    out.Reset();
    for (idx_t c = 0; c < probe_map.size(); c++) {
      GatherColumn(probe_layout_.layout, probe_map[c], out_probe.data(),
                   out_count, out.column(c));
    }
    for (idx_t c = 0; c < build_map.size(); c++) {
      GatherColumn(build_layout_.layout, build_map[c], out_build.data(),
                   out_count, out.column(probe_map.size() + c));
    }
    out.SetCount(out_count);
    out_count = 0;
    return output.Sink(out, *out_local);
  };

  // Stream the probe partition's keys and hashes, destroying its pages as
  // we pass them.
  std::vector<idx_t> key_columns(probe_layout_.hash_column + 1);
  std::iota(key_columns.begin(), key_columns.end(), 0);
  DataChunk probe_chunk(probe_layout_.layout.Types());
  std::vector<data_ptr_t> probe_rows(kVectorSize);
  std::vector<data_ptr_t> candidates(kVectorSize);
  std::vector<idx_t> slots(kVectorSize);
  SelectionVector active;
  SelectionVector matched;
  SelectionVector no_match;
  TupleDataScanState scan;
  probe.InitScan(scan, /*destroy_after_scan=*/true);
  idx_t probed = 0;
  while (true) {
    SSAGG_ASSIGN_OR_RETURN(bool more, probe.Scan(scan, key_columns,
                                                 probe_chunk,
                                                 probe_rows.data()));
    if (!more) {
      break;
    }
    const idx_t count = probe_chunk.size();
    if ((probed += count) % (64 * kVectorSize) < count) {
      SSAGG_RETURN_NOT_OK(executor.CheckDeadline());
    }
    const auto *hashes = reinterpret_cast<const hash_t *>(
        probe_chunk.column(probe_layout_.hash_column).data());
    for (idx_t r = 0; r < count; r++) {
      slots[r] = hashes[r] & mask;
    }
    active.InitRange(0, count);
    // Each round: a salt scan moves every active row to its next
    // salt-matching entry (a row that reaches an empty slot is done), one
    // column-at-a-time match checks the candidates (hash first), and the
    // matches are recorded. Every candidate stays active one slot further
    // on, since duplicate build keys let a row match more than once.
    while (!active.empty()) {
      matched.Clear();
      for (idx_t i = 0; i < active.size(); i++) {
        const idx_t r = active.data()[i];
        const uint16_t salt = ExtractSalt(hashes[r]);
        idx_t idx = slots[r];
        uint64_t entry = entries[idx];
        while (entry != 0 && EntrySalt(entry) != salt) {
          idx = (idx + 1) & mask;
          entry = entries[idx];
        }
        if (entry != 0) {
          slots[r] = (idx + 1) & mask;  // where its next round resumes
          candidates[r] = EntryPointer(entry);
          matched.Append(r);
        }
      }
      no_match.Clear();
      matcher.Match(probe_chunk, candidates.data(), matched, no_match);
      for (idx_t i = 0; i < matched.size(); i++) {
        const idx_t r = matched.data()[i];
        out_probe[out_count] = probe_rows[r];
        out_build[out_count] = candidates[r];
        if (++out_count == kVectorSize) {
          SSAGG_RETURN_NOT_OK(flush());
        }
        no_match.Append(r);
      }
      active.Swap(no_match);
    }
    SSAGG_RETURN_NOT_OK(flush());
  }
  SSAGG_RETURN_NOT_OK(output.Combine(*out_local));
  // Both partitions are consumed: free their pages.
  build_pins.Release();
  build.Reset();
  return Status::OK();
}

Status PhysicalHashJoin::EmitResults(DataSink &output,
                                     TaskExecutor &executor) {
  std::vector<std::function<Status()>> tasks;
  for (idx_t p = 0; p < build_data_->PartitionCount(); p++) {
    tasks.push_back([this, p, &output, &executor]() {
      return JoinPartition(p, output, executor);
    });
  }
  return executor.RunTasks(tasks);
}

}  // namespace ssagg
