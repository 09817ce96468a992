#include "core/grouped_aggregate_hash_table.h"

#include <algorithm>
#include <cstring>

#include "layout/row_kernels.h"
#include "observe/flight_recorder.h"

namespace ssagg {

namespace {

bool IsPowerOfTwo(idx_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// A slot claimed during the salt scan but not yet backfilled with its row
/// pointer: the salt is already in place, the pointer bits carry a non-zero
/// tag so the slot can never be mistaken for empty (entry 0), even when the
/// salt itself is 0. Rows of the same round that salt-match a claimed slot
/// are deferred to the compare pass, which runs after the batched append
/// has backfilled the real pointer.
inline uint64_t MakeClaimedEntry(uint16_t salt) {
  return (static_cast<uint64_t>(salt) << kSaltShift) | 1ULL;
}

inline void PrefetchRead(const void *ptr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(ptr, 0, 3);
#else
  (void)ptr;
#endif
}

}  // namespace

GroupedAggregateHashTable::GroupedAggregateHashTable(
    BufferManager &buffer_manager, Config config)
    : buffer_manager_(buffer_manager), config_(config) {}

Result<std::unique_ptr<GroupedAggregateHashTable>>
GroupedAggregateHashTable::Create(BufferManager &buffer_manager,
                                  const std::vector<LogicalTypeId> &input_types,
                                  const std::vector<idx_t> &group_columns,
                                  const std::vector<AggregateRequest> &aggregates,
                                  Config config) {
  SSAGG_ASSIGN_OR_RETURN(
      auto row_layout,
      AggregateRowLayout::Build(input_types, group_columns, aggregates));
  return Create(buffer_manager, row_layout, config);
}

Result<std::unique_ptr<GroupedAggregateHashTable>>
GroupedAggregateHashTable::Create(BufferManager &buffer_manager,
                                  const AggregateRowLayout &row_layout,
                                  Config config) {
  if (!IsPowerOfTwo(config.capacity)) {
    return Status::InvalidArgument(
        "hash table capacity must be a power of two");
  }
  if (config.radix_bits > kMaxRadixBits) {
    return Status::InvalidArgument("too many radix bits");
  }
  std::unique_ptr<GroupedAggregateHashTable> ht(
      new GroupedAggregateHashTable(buffer_manager, config));
  SSAGG_RETURN_NOT_OK(ht->Initialize(row_layout));
  return ht;
}

Status GroupedAggregateHashTable::Initialize(AggregateRowLayout row_layout) {
  row_layout_ = std::move(row_layout);

  data_ = std::make_unique<PartitionedTupleData>(
      buffer_manager_, row_layout_.layout, config_.radix_bits);
  SSAGG_RETURN_NOT_OK(table_.Allocate(buffer_manager_, config_.capacity));

  append_chunk_.Initialize(row_layout_.layout.Types());
  hashes_ = reinterpret_cast<hash_t *>(
      append_chunk_.column(row_layout_.hash_column).data());
  row_ptrs_.resize(kVectorSize);
  state_ptrs_.resize(kVectorSize);
  sel_scratch_.resize(kVectorSize);

  row_matcher_.Initialize(row_layout_.layout, row_layout_.group_count,
                          row_layout_.hash_column);
  for (idx_t g = 0; g < row_layout_.group_count; g++) {
    probe_columns_.push_back(g);
  }
  probe_columns_.push_back(row_layout_.hash_column);
  ht_offsets_.resize(kVectorSize);
  salts_.resize(kVectorSize);
  new_row_ptrs_.resize(kVectorSize);

  // Direct-index pointer cache: only for resizable (merge) tables over a
  // single non-NULL-layout int64 group key; fixed-size tables reset too
  // often for cached pointers to pay off.
  direct_enabled_ = config_.direct_range > 0 && config_.resizable &&
                    row_layout_.group_count == 1 &&
                    row_layout_.layout.ColumnType(0) == LogicalTypeId::kInt64;
  if (direct_enabled_) {
    direct_ptrs_.assign(config_.direct_range + 1, nullptr);
  }
  return Status::OK();
}

std::vector<LogicalTypeId> GroupedAggregateHashTable::OutputTypes() const {
  return row_layout_.OutputTypes();
}

Status GroupedAggregateHashTable::FindOrCreateGroups(
    const DataChunk &layout_chunk, const hash_t *hashes, idx_t start,
    idx_t count, const data_ptr_t *src_rows) {
  SSAGG_DASSERT(start + count <= kVectorSize);
  uint64_t *table = table_.entries();
  idx_t mask = table_.mask();
  const bool use_salt = config_.use_salt;

  // All slot indices and salts are computed up front, once.
  for (idx_t r = start; r < start + count; r++) {
    ht_offsets_[r] = hashes[r] & mask;
    salts_[r] = ExtractSalt(hashes[r]);
  }
  remaining_sel_.InitRange(start, count);

  while (!remaining_sel_.empty()) {
    const idx_t remaining = remaining_sel_.size();
    stats_.probe_rounds++;

    // The grow/budget guard is hoisted out of the per-row loop: one check
    // per round bounds this round's claims. A resizable table grows until
    // even an all-new-groups round stays under the fill threshold; a
    // fixed-size (phase-1) table relies on the caller batching by
    // ResetBudget(), which the per-claim assert below re-checks.
    if (config_.resizable) {
      while (count_ + remaining >=
             table_.capacity() * config_.reset_fill_ratio) {
        if (table_.AtMaxCapacity() && count_ + remaining < table_.capacity()) {
          break;  // past the fill ratio, but the round still fits
        }
        SSAGG_RETURN_NOT_OK(Resize());  // fails at the capacity cap
        table = table_.entries();
        mask = table_.mask();
        // The mask changed: every unresolved row restarts its probe.
        for (idx_t i = 0; i < remaining; i++) {
          const idx_t r = remaining_sel_[i];
          ht_offsets_[r] = hashes[r] & mask;
        }
      }
    }

    // Software-prefetch the entries this round will inspect; for a table
    // past cache size this overlaps the dependent loads of the salt scan.
    // An entry array at or under 64 KiB is cache-resident (the planner's
    // central tables are sized to land here at low cardinality), so
    // the pass would be pure issue overhead and is skipped.
    const idx_t *sel = remaining_sel_.data();
    if (table_.capacity() * sizeof(uint64_t) > idx_t{64} * 1024) {
      for (idx_t i = 0; i < remaining; i++) {
        PrefetchRead(&table[ht_offsets_[sel[i]]]);
      }
      stats_.prefetches += remaining;
    }

    // Salt scan: advance each row to its first empty or salt-matching
    // slot. Empty slots are claimed immediately (salt + tag) so duplicate
    // new keys within the batch collapse: the second row of a duplicate
    // pair salt-matches the claim and is routed to the compare pass.
    new_group_sel_.Clear();
    compare_sel_.Clear();
    no_match_sel_.Clear();
    for (idx_t i = 0; i < remaining; i++) {
      const idx_t r = sel[i];
      const uint16_t salt = salts_[r];
      idx_t idx = ht_offsets_[r];
      while (true) {
        stats_.probe_steps++;
        const uint64_t entry = table[idx];
        if (entry == 0) {
          SSAGG_ASSERT(count_ < table_.capacity());
          table[idx] = MakeClaimedEntry(salt);
          count_++;
          new_group_sel_.Append(r);
          break;
        }
        if (!use_salt || EntrySalt(entry) == salt) {
          compare_sel_.Append(r);
          break;
        }
        idx = (idx + 1) & mask;
      }
      ht_offsets_[r] = idx;
    }

    // One batched, partition-aware append materializes every new group of
    // the round (phase 1 scatters the columns; phase 2 copies the source
    // rows), then the claimed entries are backfilled with the row
    // addresses.
    if (!new_group_sel_.empty()) {
      const idx_t new_count = new_group_sel_.size();
      if (src_rows != nullptr) {
        SSAGG_RETURN_NOT_OK(data_->AppendRowCopies(
            src_rows, hashes, new_group_sel_.data(), new_count,
            new_row_ptrs_.data()));
      } else {
        SSAGG_RETURN_NOT_OK(data_->Append(layout_chunk, hashes,
                                          new_group_sel_.data(), new_count,
                                          new_row_ptrs_.data()));
      }
      for (idx_t i = 0; i < new_count; i++) {
        const idx_t r = new_group_sel_[i];
        table[ht_offsets_[r]] = MakeEntry(new_row_ptrs_[i], salts_[r]);
        row_ptrs_[r] = new_row_ptrs_[i];
      }
      stats_.inserts += new_count;
    }

    // Column-at-a-time key matching over the candidates. The candidate row
    // pointers are gathered (and prefetched) first; gathering happens after
    // the backfill so candidates that salt-matched a claim of this very
    // round see the real row.
    if (!compare_sel_.empty()) {
      const idx_t compare_count = compare_sel_.size();
      for (idx_t i = 0; i < compare_count; i++) {
        const idx_t r = compare_sel_[i];
        data_ptr_t row = EntryPointer(table[ht_offsets_[r]]);
        row_ptrs_[r] = row;
        PrefetchRead(row);
      }
      stats_.prefetches += compare_count;
      row_matcher_.Match(layout_chunk, row_ptrs_.data(), compare_sel_,
                         no_match_sel_);
      stats_.key_compares += compare_count;
      stats_.key_compare_misses += no_match_sel_.size();
      if (src_rows != nullptr) {
        for (idx_t i = 0; i < compare_sel_.size(); i++) {
          matched_sel_.Append(compare_sel_[i]);
        }
      }
      // Matched rows are done (row_ptrs_ already points at their group);
      // mismatches advance one slot and go into the next round.
      for (idx_t i = 0; i < no_match_sel_.size(); i++) {
        const idx_t r = no_match_sel_[i];
        ht_offsets_[r] = (ht_offsets_[r] + 1) & mask;
      }
    }
    remaining_sel_.Swap(no_match_sel_);
  }
  return Status::OK();
}

Status GroupedAggregateHashTable::AddChunkDirect(const DataChunk &input,
                                                 bool *handled) {
  const idx_t count = input.size();
  const Vector &key_vec = input.column(row_layout_.group_columns[0]);
  const auto *keys = key_vec.Values<int64_t>();
  const ValidityMask &validity = key_vec.validity();
  const uint64_t range = config_.direct_range;
  const auto min = static_cast<uint64_t>(config_.direct_min);
  // Resolve every row before mutating anything: a single uncached or
  // out-of-range key (wraparound makes below-min keys land past `range`)
  // bails the whole chunk out to the generic path, which is then free to
  // insert and update from scratch.
  *handled = false;
  if (validity.AllValid()) {
    for (idx_t r = 0; r < count; r++) {
      const uint64_t idx = static_cast<uint64_t>(keys[r]) - min;
      if (idx >= range || direct_ptrs_[idx] == nullptr) {
        return Status::OK();
      }
      row_ptrs_[r] = direct_ptrs_[idx];
    }
  } else {
    for (idx_t r = 0; r < count; r++) {
      uint64_t idx = range;  // the NULL-key slot
      if (validity.RowIsValid(r)) {
        idx = static_cast<uint64_t>(keys[r]) - min;
        if (idx >= range) {
          return Status::OK();
        }
      }
      if (direct_ptrs_[idx] == nullptr) {
        return Status::OK();
      }
      row_ptrs_[r] = direct_ptrs_[idx];
    }
  }
  // Every group already exists: sticky aggregates are first-wins (nothing
  // to do) and the non-sticky fold below is the same one AddChunk runs.
  const idx_t aggr_offset = row_layout_.layout.AggregateOffset();
  for (const auto &agg : row_layout_.aggregates) {
    if (agg.sticky) {
      continue;
    }
    const idx_t offset = aggr_offset + agg.state_offset;
    for (idx_t i = 0; i < count; i++) {
      state_ptrs_[i] = row_ptrs_[i] + offset;
    }
    const Vector *arg = agg.request.input_column == kInvalidIndex
                            ? nullptr
                            : &input.column(agg.request.input_column);
    agg.function.update(arg, nullptr, state_ptrs_.data(), count);
  }
  stats_.direct_hit_rows += count;
  *handled = true;
  return Status::OK();
}

void GroupedAggregateHashTable::BackfillDirect(const DataChunk &input) {
  const idx_t count = input.size();
  const Vector &key_vec = input.column(row_layout_.group_columns[0]);
  const auto *keys = key_vec.Values<int64_t>();
  const ValidityMask &validity = key_vec.validity();
  const uint64_t range = config_.direct_range;
  const auto min = static_cast<uint64_t>(config_.direct_min);
  for (idx_t r = 0; r < count; r++) {
    uint64_t idx = range;
    if (validity.RowIsValid(r)) {
      idx = static_cast<uint64_t>(keys[r]) - min;
      if (idx >= range) {
        continue;  // outside the cached window; stays on the generic path
      }
    }
    direct_ptrs_[idx] = row_ptrs_[r];
  }
}

Status GroupedAggregateHashTable::AddChunk(const DataChunk &input) {
  const idx_t count = input.size();
  if (count == 0) {
    return Status::OK();
  }
  if (direct_enabled_) {
    bool handled = false;
    SSAGG_RETURN_NOT_OK(AddChunkDirect(input, &handled));
    if (handled) {
      direct_fallback_streak_ = 0;
      return Status::OK();
    }
    stats_.direct_fallback_chunks++;
    // A workload that keeps missing (keys the sample never saw) pays one
    // wasted cache-resolve pass per chunk; drop the cache once the misses
    // are clearly not warmup.
    if (++direct_fallback_streak_ > 64) {
      direct_enabled_ = false;
      direct_ptrs_.clear();
      direct_ptrs_.shrink_to_fit();
    }
  }
  hashes_ = row_layout_.FillLayoutChunk(input, append_chunk_);

  // Process in sub-batches so a single chunk can never overflow a small
  // fixed-size (phase-1) table: each sub-batch creates at most
  // ResetBudget() new groups; once the budget is gone the table is reset
  // mid-chunk (updates for the previous sub-batch have already been
  // applied, so releasing the pins is safe).
  const idx_t aggr_offset = row_layout_.layout.AggregateOffset();
  idx_t done = 0;
  while (done < count) {
    idx_t batch = count - done;
    if (!config_.resizable) {
      idx_t budget = ResetBudget();
      if (budget == 0) {
        ClearPointerTable();
        budget = ResetBudget();
        SSAGG_ASSERT(budget > 0);
      }
      batch = std::min(batch, budget);
    }
    SSAGG_RETURN_NOT_OK(
        FindOrCreateGroups(append_chunk_, hashes_, done, batch));

    // Fold the inputs of rows [done, done + batch) into the group states.
    for (const auto &agg : row_layout_.aggregates) {
      if (agg.sticky) {
        continue;  // materialized at group creation
      }
      idx_t offset = aggr_offset + agg.state_offset;
      for (idx_t i = 0; i < batch; i++) {
        sel_scratch_[i] = done + i;
        state_ptrs_[i] = row_ptrs_[done + i] + offset;
      }
      const Vector *arg = agg.request.input_column == kInvalidIndex
                              ? nullptr
                              : &input.column(agg.request.input_column);
      const idx_t *sel =
          (done == 0 && batch == count) ? nullptr : sel_scratch_.data();
      agg.function.update(arg, sel, state_ptrs_.data(), batch);
    }
    done += batch;
  }
  if (direct_enabled_) {
    BackfillDirect(input);
  }
  return Status::OK();
}

Status GroupedAggregateHashTable::CombineSourceChunk(
    const DataChunk &layout_chunk, const data_ptr_t *src_rows) {
  const idx_t count = layout_chunk.size();
  if (count == 0) {
    return Status::OK();
  }
  // Hashes were materialized with the rows: no rehashing in phase 2. The
  // int64 hash column is bit-identical to hash_t, so it is probed in place
  // through a reinterpreted pointer instead of a per-row copy loop.
  static_assert(sizeof(hash_t) == sizeof(int64_t));
  const auto *hashes = reinterpret_cast<const hash_t *>(
      layout_chunk.column(row_layout_.hash_column).data());
  matched_sel_.Clear();
  SSAGG_RETURN_NOT_OK(
      FindOrCreateGroups(layout_chunk, hashes, 0, count, src_rows));
  // New groups are copies of their source rows and already hold the
  // source states (and first-wins sticky values); only the rows that
  // found an existing group fold their states in.
  const idx_t aggr_offset = row_layout_.layout.AggregateOffset();
  const idx_t matched = matched_sel_.size();
  for (const auto &agg : row_layout_.aggregates) {
    if (agg.sticky) {
      continue;
    }
    const idx_t offset = aggr_offset + agg.state_offset;
    for (idx_t i = 0; i < matched; i++) {
      const idx_t r = matched_sel_[i];
      agg.function.combine(src_rows[r] + offset, row_ptrs_[r] + offset);
    }
  }
  return Status::OK();
}

void GroupedAggregateHashTable::Stats::Merge(const Stats &other) {
  probe_steps += other.probe_steps;
  key_compares += other.key_compares;
  key_compare_misses += other.key_compare_misses;
  inserts += other.inserts;
  resets += other.resets;
  resizes += other.resizes;
  probe_rounds += other.probe_rounds;
  prefetches += other.prefetches;
  direct_hit_rows += other.direct_hit_rows;
  direct_fallback_chunks += other.direct_fallback_chunks;
}

void GroupedAggregateHashTable::ClearPointerTable() {
  TraceInstant("ht.reset", "agg", count_);
  table_.Clear();
  count_ = 0;
  stats_.resets++;
  if (direct_enabled_) {
    // The cached row pointers die with the pins released below.
    std::fill(direct_ptrs_.begin(), direct_ptrs_.end(), nullptr);
  }
  // The tuples stay in place; only their pins are released so the buffer
  // manager may evict the pages.
  data_->ReleaseAppendPins();
}

Status GroupedAggregateHashTable::Resize() {
  SSAGG_ASSERT(config_.resizable);
  TraceSpan span("ht.resize", "agg", table_.capacity() * 2);
  // In a resizable table the pointer table is never reset, so every
  // materialized row is reachable and carries its hash: rebuild by visiting
  // all rows.
  SSAGG_RETURN_NOT_OK(table_.Allocate(buffer_manager_, table_.capacity() * 2));
  stats_.resizes++;
  for (idx_t p = 0; p < data_->PartitionCount(); p++) {
    SSAGG_RETURN_NOT_OK(data_->ForEachRowInPartition(p, [&](data_ptr_t row) {
      hash_t h;
      std::memcpy(&h, row + row_layout_.hash_offset, sizeof(hash_t));
      table_.Insert(row, h);
    }));
  }
  return Status::OK();
}

void GroupedAggregateHashTable::FinalizeChunk(const data_ptr_t *row_ptrs,
                                              idx_t count,
                                              DataChunk &out) const {
  // A reset chunk: the gathers expect all-valid vectors, and finalize only
  // ever marks rows invalid.
  out.Reset();
  const TupleDataLayout &layout = row_layout_.layout;
  for (idx_t g = 0; g < row_layout_.group_count; g++) {
    GatherColumn(layout, g, row_ptrs, count, out.column(g));
  }
  idx_t out_col = row_layout_.group_count;
  const idx_t aggr_offset = layout.AggregateOffset();
  for (const auto &agg : row_layout_.aggregates) {
    Vector &result = out.column(out_col++);
    if (agg.sticky) {
      GatherColumn(layout, agg.layout_column, row_ptrs, count, result);
      continue;
    }
    const idx_t offset = aggr_offset + agg.state_offset;
    for (idx_t i = 0; i < count; i++) {
      agg.function.finalize(row_ptrs[i] + offset, result, i);
    }
  }
  out.SetCount(count);
}

}  // namespace ssagg
