// Reference results: one plain std::unordered_map pass over the generator
// rows per query, keyed by the serialized group (or join) key.

#include <cmath>
#include <string>
#include <unordered_map>

#include "workload.h"

namespace perfbench {

using ssagg::DataChunk;
using ssagg::idx_t;
using ssagg::LogicalTypeId;
using ssagg::Result;
using ssagg::Status;
namespace tpch = ssagg::tpch;

namespace {

/// Calls fn(chunk) for every kVectorSize slice of the generator's rows,
/// projected to `columns`.
template <typename Fn>
Status ForEachChunk(const tpch::LineitemGenerator &gen,
                    const std::vector<idx_t> &columns, Fn &&fn) {
  DataChunk chunk(tpch::LineitemGenerator::ColumnTypes(columns));
  for (idx_t start = 0; start < gen.RowCount(); start += ssagg::kVectorSize) {
    idx_t count = std::min<idx_t>(ssagg::kVectorSize, gen.RowCount() - start);
    chunk.Reset();
    SSAGG_RETURN_NOT_OK(gen.FillChunk(chunk, columns, start, count));
    SSAGG_RETURN_NOT_OK(fn(chunk));
  }
  return Status::OK();
}

/// Serializes the first `count` columns of a row into a map key.
std::string KeyBytes(const DataChunk &chunk, idx_t row, idx_t count) {
  std::string key;
  for (idx_t c = 0; c < count; c++) {
    const ssagg::Vector &v = chunk.column(c);
    switch (v.type()) {
      case LogicalTypeId::kInt32:
      case LogicalTypeId::kDate: {
        int32_t x = v.GetValue<int32_t>(row);
        key.append(reinterpret_cast<const char *>(&x), sizeof(x));
        break;
      }
      case LogicalTypeId::kInt64: {
        int64_t x = v.GetValue<int64_t>(row);
        key.append(reinterpret_cast<const char *>(&x), sizeof(x));
        break;
      }
      case LogicalTypeId::kVarchar: {
        ssagg::string_t str = v.GetString(row);
        std::string_view s = str.View();
        auto len = static_cast<uint32_t>(s.size());
        key.append(reinterpret_cast<const char *>(&len), sizeof(len));
        key.append(s);
        break;
      }
      default: {
        double x = v.GetValue<double>(row);
        key.append(reinterpret_cast<const char *>(&x), sizeof(x));
        break;
      }
    }
  }
  return key;
}

/// Q1: GROUP BY l_returnflag, l_linestatus with exact integer sums.
Status ReferenceQ1(const tpch::LineitemGenerator &gen, Reference *ref) {
  std::unordered_map<std::string, Q1Group> groups;
  SSAGG_RETURN_NOT_OK(ForEachChunk(
      gen, InmemShapes()[0].projection, [&](const DataChunk &chunk) {
        for (idx_t row = 0; row < chunk.size(); row++) {
          // string_t holds short strings inline: keep it alive for the view.
          ssagg::string_t flag_str = chunk.column(0).GetString(row);
          ssagg::string_t status_str = chunk.column(1).GetString(row);
          std::string_view flag = flag_str.View();
          std::string_view status = status_str.View();
          Q1Group &g = groups[std::string(flag) + std::string(status)];
          g.returnflag = flag[0];
          g.linestatus = status[0];
          g.count++;
          g.sum_quantity += chunk.column(2).GetValue<int32_t>(row);
          g.sum_price_cents +=
              std::llround(chunk.column(3).GetValue<double>(row) * 100);
          g.sum_discount_hundredths +=
              std::llround(chunk.column(4).GetValue<double>(row) * 100);
        }
        return Status::OK();
      }));
  if (groups.size() > std::size(ref->q1)) {
    return Status::Internal("Q1 reference: too many groups");
  }
  for (const auto &[key, group] : groups) {
    ref->q1[ref->q1_groups++] = group;
  }
  ref->shapes[0].rows = groups.size();
  return Status::OK();
}

/// Group-by whose output is its keys plus, when `unique_rows` is set, the
/// remaining columns of the (single) row of each group (ANY_VALUE).
Status ReferenceGroups(const tpch::LineitemGenerator &gen,
                       const QueryShape &shape, bool unique_rows,
                       Checksum *out) {
  std::unordered_map<std::string, uint64_t> groups;
  groups.reserve(gen.RowCount());
  idx_t keys = shape.group_columns.size();
  SSAGG_RETURN_NOT_OK(
      ForEachChunk(gen, shape.projection, [&](const DataChunk &chunk) {
        for (idx_t row = 0; row < chunk.size(); row++) {
          uint64_t partial = RowPartial(chunk, row);
          auto [it, inserted] =
              groups.emplace(KeyBytes(chunk, row, keys), partial);
          if (!inserted && unique_rows) {
            return Status::Internal(shape.name +
                                    " reference: duplicate group");
          }
        }
        return Status::OK();
      }));
  for (const auto &[key, partial] : groups) {
    out->AddRow(partial);
  }
  return Status::OK();
}

/// Inner join on the first two columns; output = probe columns, then build
/// columns.
Status ReferenceJoin(const tpch::LineitemGenerator &gen, Checksum *out) {
  auto build_columns = JoinBuildColumns();
  auto probe_columns = JoinProbeColumns();
  std::unordered_map<std::string, uint64_t> build;
  build.reserve(gen.RowCount());
  SSAGG_RETURN_NOT_OK(
      ForEachChunk(gen, build_columns, [&](const DataChunk &chunk) {
        for (idx_t row = 0; row < chunk.size(); row++) {
          auto [it, inserted] = build.emplace(
              KeyBytes(chunk, row, 2),
              RowPartial(chunk, row, probe_columns.size()));
          if (!inserted) {
            return Status::Internal("join reference: duplicate build key");
          }
        }
        return Status::OK();
      }));
  return ForEachChunk(gen, probe_columns, [&](const DataChunk &chunk) {
    for (idx_t row = 0; row < chunk.size(); row++) {
      auto it = build.find(KeyBytes(chunk, row, 2));
      if (it != build.end()) {
        out->AddRow(RowPartial(chunk, row) + it->second);
      }
    }
    return Status::OK();
  });
}

}  // namespace

Result<Reference> ComputeReference(const std::string &workload) {
  tpch::LineitemGenerator gen(kScaleFactor);
  Reference ref;
  if (workload == "groupby_inmem") {
    auto shapes = InmemShapes();
    SSAGG_RETURN_NOT_OK(ReferenceQ1(gen, &ref));
    for (idx_t s = 1; s < shapes.size(); s++) {
      SSAGG_RETURN_NOT_OK(
          ReferenceGroups(gen, shapes[s], /*unique_rows=*/false,
                          &ref.shapes[s]));
    }
  } else if (workload == "groupby_spill_table") {
    SSAGG_RETURN_NOT_OK(ReferenceGroups(gen, WideG13Shape(),
                                        /*unique_rows=*/true, &ref.shapes[0]));
  } else if (workload == "join_spill") {
    SSAGG_RETURN_NOT_OK(ReferenceJoin(gen, &ref.shapes[0]));
  } else {
    return Status::InvalidArgument("unknown workload " + workload);
  }
  return ref;
}

}  // namespace perfbench
