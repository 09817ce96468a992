#include "core/aggregate_function.h"

#include "common/value.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

namespace ssagg {
namespace {

/// Runs one aggregate over the given input values (with an optional NULL
/// mask), splitting the input into two halves folded into separate states
/// that are then combined — exercising update, combine, and finalize.
template <typename T>
Value RunAggregate(AggregateKind kind, LogicalTypeId type,
                   const std::vector<T> &values,
                   const std::vector<bool> &nulls = {}) {
  auto fn_res = GetAggregateFunction(kind, type);
  EXPECT_TRUE(fn_res.ok()) << fn_res.status().ToString();
  auto fn = fn_res.value();

  Vector input(type);
  for (idx_t i = 0; i < values.size(); i++) {
    input.SetValue<T>(i, values[i]);
    if (i < nulls.size() && nulls[i]) {
      input.validity().SetInvalid(i);
    }
  }
  std::vector<data_t> state_a(fn.state_width, 0);
  std::vector<data_t> state_b(fn.state_width, 0);
  idx_t half = values.size() / 2;
  std::vector<data_ptr_t> states;
  std::vector<idx_t> sel;
  for (idx_t i = 0; i < values.size(); i++) {
    states.push_back((i < half ? state_a : state_b).data());
    sel.push_back(i);
  }
  fn.update(kind == AggregateKind::kCountStar ? nullptr : &input, sel.data(),
            states.data(), values.size());
  fn.combine(state_b.data(), state_a.data());

  Vector out(fn.result_type);
  fn.finalize(state_a.data(), out, 0);
  return Value::FromVector(out, 0);
}

TEST(AggregateFunctionTest, SumInt64) {
  auto v = RunAggregate<int64_t>(AggregateKind::kSum, LogicalTypeId::kInt64,
                                 {1, 2, 3, 4, 5});
  EXPECT_EQ(v.GetInt64(), 15);
}

TEST(AggregateFunctionTest, SumInt32WidensToInt64) {
  std::vector<int32_t> big(100, 2000000000);
  auto v = RunAggregate<int32_t>(AggregateKind::kSum, LogicalTypeId::kInt32,
                                 big);
  EXPECT_EQ(v.type(), LogicalTypeId::kInt64);
  EXPECT_EQ(v.GetInt64(), 200000000000LL);
}

TEST(AggregateFunctionTest, SumSkipsNulls) {
  auto v = RunAggregate<int64_t>(AggregateKind::kSum, LogicalTypeId::kInt64,
                                 {10, 20, 30}, {false, true, false});
  EXPECT_EQ(v.GetInt64(), 40);
}

TEST(AggregateFunctionTest, SumAllNullIsNull) {
  auto v = RunAggregate<int64_t>(AggregateKind::kSum, LogicalTypeId::kInt64,
                                 {1, 2}, {true, true});
  EXPECT_TRUE(v.IsNull());
}

TEST(AggregateFunctionTest, MinMaxDouble) {
  std::vector<double> values = {3.5, -1.25, 7.75, 0.0};
  EXPECT_EQ(RunAggregate<double>(AggregateKind::kMin, LogicalTypeId::kDouble,
                                 values)
                .GetDouble(),
            -1.25);
  EXPECT_EQ(RunAggregate<double>(AggregateKind::kMax, LogicalTypeId::kDouble,
                                 values)
                .GetDouble(),
            7.75);
}

TEST(AggregateFunctionTest, MinMaxNegativeIntegers) {
  std::vector<int32_t> values = {-5, -100, -1};
  EXPECT_EQ(RunAggregate<int32_t>(AggregateKind::kMin, LogicalTypeId::kInt32,
                                  values)
                .GetInt64(),
            -100);
  EXPECT_EQ(RunAggregate<int32_t>(AggregateKind::kMax, LogicalTypeId::kInt32,
                                  values)
                .GetInt64(),
            -1);
}

TEST(AggregateFunctionTest, CountSkipsNullsCountStarDoesNot) {
  auto count = RunAggregate<int64_t>(AggregateKind::kCount,
                                     LogicalTypeId::kInt64, {1, 2, 3, 4},
                                     {true, false, true, false});
  EXPECT_EQ(count.GetInt64(), 2);
  auto count_star = RunAggregate<int64_t>(AggregateKind::kCountStar,
                                          LogicalTypeId::kInt64, {1, 2, 3, 4},
                                          {true, false, true, false});
  EXPECT_EQ(count_star.GetInt64(), 4);
}

TEST(AggregateFunctionTest, Avg) {
  auto v = RunAggregate<int64_t>(AggregateKind::kAvg, LogicalTypeId::kInt64,
                                 {2, 4, 6, 8});
  EXPECT_DOUBLE_EQ(v.GetDouble(), 5.0);
}

TEST(AggregateFunctionTest, AvgOfNothingIsNull) {
  auto v = RunAggregate<int64_t>(AggregateKind::kAvg, LogicalTypeId::kInt64,
                                 {7}, {true});
  EXPECT_TRUE(v.IsNull());
}

TEST(AggregateFunctionTest, AnyValueTakesFirstNonNull) {
  auto v = RunAggregate<int64_t>(AggregateKind::kAnyValue,
                                 LogicalTypeId::kInt64, {0, 42, 13},
                                 {true, false, false});
  EXPECT_EQ(v.GetInt64(), 42);
}

TEST(AggregateFunctionTest, UnsupportedTypeIsRejected) {
  for (auto kind : {AggregateKind::kSum, AggregateKind::kMin,
                    AggregateKind::kMax, AggregateKind::kAvg}) {
    auto res = GetAggregateFunction(kind, LogicalTypeId::kVarchar);
    ASSERT_FALSE(res.ok()) << AggregateKindName(kind);
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AggregateFunctionTest, ZeroStateIsValidInitialState) {
  // The row layout zero-fills state areas; every function must treat the
  // all-zero state as "empty".
  for (auto kind : {AggregateKind::kSum, AggregateKind::kMin,
                    AggregateKind::kMax, AggregateKind::kAvg,
                    AggregateKind::kCount, AggregateKind::kAnyValue}) {
    auto fn = GetAggregateFunction(kind, LogicalTypeId::kInt64).MoveValue();
    std::vector<data_t> state(fn.state_width, 0);
    Vector out(fn.result_type);
    fn.finalize(state.data(), out, 0);
    Value v = Value::FromVector(out, 0);
    if (kind == AggregateKind::kCount) {
      EXPECT_EQ(v.GetInt64(), 0);
    } else {
      EXPECT_TRUE(v.IsNull()) << AggregateKindName(kind);
    }
  }
}

TEST(AggregateFunctionTest, CombineWithEmptySideIsIdentity) {
  for (auto kind : {AggregateKind::kSum, AggregateKind::kMin,
                    AggregateKind::kMax, AggregateKind::kAvg,
                    AggregateKind::kAnyValue}) {
    auto fn = GetAggregateFunction(kind, LogicalTypeId::kDouble).MoveValue();
    Vector input(LogicalTypeId::kDouble);
    input.SetValue<double>(0, 3.25);
    std::vector<data_t> filled(fn.state_width, 0);
    std::vector<data_t> empty(fn.state_width, 0);
    data_ptr_t state = filled.data();
    idx_t sel0 = 0;
    fn.update(&input, &sel0, &state, 1);
    fn.combine(empty.data(), filled.data());  // empty into filled
    Vector out(fn.result_type);
    fn.finalize(filled.data(), out, 0);
    EXPECT_DOUBLE_EQ(Value::FromVector(out, 0).GetDouble(), 3.25)
        << AggregateKindName(kind);
  }
}

// Phase 2 appends a new group by copying its source row, states included,
// where it used to combine the source state into a zeroed one. That is exact
// only if the two are bit-identical for every kind and input type, for
// states built by updates (NULLs and signed zeros included) and by combines.
TEST(AggregateFunctionTest, CopiedStateEqualsCombineIntoZero) {
  constexpr idx_t kValues = 12;
  const double doubles[kValues] = {-0.0, 0.0,   -1.5, 2.25, -0.0,  1e300,
                                   -0.0, -1e-300, 0.0, 3.0,  -7.75, -0.0};
  const int64_t ints[kValues] = {0,  -3, 7, INT32_MIN, INT32_MAX, 0,
                                 -1, 12, 5, -5,        100,       -100};
  for (auto type : {LogicalTypeId::kInt32, LogicalTypeId::kDate,
                    LogicalTypeId::kInt64, LogicalTypeId::kDouble}) {
    Vector input(type);
    for (idx_t i = 0; i < kValues; i++) {
      if (type == LogicalTypeId::kDouble) {
        input.SetValue<double>(i, doubles[i]);
      } else if (type == LogicalTypeId::kInt64) {
        input.SetValue<int64_t>(i, ints[i] * 1000003);
      } else {
        input.SetValue<int32_t>(i, static_cast<int32_t>(ints[i]));
      }
      if (i % 4 == 3) {
        input.validity().SetInvalid(i);
      }
    }
    for (auto kind : {AggregateKind::kCountStar, AggregateKind::kCount,
                      AggregateKind::kSum, AggregateKind::kMin,
                      AggregateKind::kMax, AggregateKind::kAvg,
                      AggregateKind::kAnyValue}) {
      SCOPED_TRACE(std::string(AggregateKindName(kind)) + " over " +
                   TypeName(type));
      auto fn_res = GetAggregateFunction(kind, type);
      ASSERT_TRUE(fn_res.ok()) << fn_res.status().ToString();
      const AggregateFunction fn = fn_res.value();
      const Vector *arg = kind == AggregateKind::kCountStar ? nullptr : &input;
      // Source states: empty, each input prefix (the first is a lone -0.0
      // or 0), only the NULL rows, and a combine of two partial states.
      std::vector<std::vector<data_t>> sources;
      sources.emplace_back(fn.state_width, 0);
      for (idx_t n = 1; n <= kValues; n++) {
        std::vector<data_t> state(fn.state_width, 0);
        std::vector<data_ptr_t> states(n, state.data());
        fn.update(arg, nullptr, states.data(), n);
        sources.push_back(state);
      }
      {
        std::vector<data_t> state(fn.state_width, 0);
        std::vector<idx_t> null_rows = {3, 7, 11};
        std::vector<data_ptr_t> states(null_rows.size(), state.data());
        fn.update(arg, null_rows.data(), states.data(), null_rows.size());
        sources.push_back(state);
      }
      {
        std::vector<data_t> a = sources[4];
        fn.combine(sources[kValues].data(), a.data());
        sources.push_back(a);
      }
      for (idx_t s = 0; s < sources.size(); s++) {
        std::vector<data_t> combined(fn.state_width, 0);
        fn.combine(sources[s].data(), combined.data());
        EXPECT_EQ(std::memcmp(combined.data(), sources[s].data(),
                              fn.state_width),
                  0)
            << "source state " << s;
      }
    }
  }
}

}  // namespace
}  // namespace ssagg
