#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The benchmark's three workloads, their reference results and the
// configuration they run with. perfbench/README.md records why each
// workload exists and how big it is.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checksum.h"
#include "ssagg/ssagg.h"

namespace perfbench {

/// lineitem at SF 32: 1,920,384 rows.
constexpr double kScaleFactor = 32;
constexpr ssagg::idx_t kThreads = 4;

/// One GROUP BY over lineitem.
struct QueryShape {
  std::string name;
  std::vector<ssagg::idx_t> projection;  // lineitem columns read
  std::vector<ssagg::idx_t> group_columns;
  std::vector<ssagg::AggregateRequest> aggregates;
};

/// groupby_inmem's four queries, in loop order: Q1, thin G8, G6, G9.
std::vector<QueryShape> InmemShapes();
/// groupby_spill_table's query: wide G13.
QueryShape WideG13Shape();

/// join_spill's inputs; the join key is the first two columns of each side.
std::vector<ssagg::idx_t> JoinBuildColumns();
std::vector<ssagg::idx_t> JoinProbeColumns();

/// One Q1 group of the reference; sums are exact integers (cents for
/// l_extendedprice, hundredths for l_discount).
struct Q1Group {
  char returnflag = 0;
  char linestatus = 0;
  int64_t count = 0;
  int64_t sum_quantity = 0;
  int64_t sum_price_cents = 0;
  int64_t sum_discount_hundredths = 0;
};

/// Expected results, computed by plain std::unordered_map passes over the
/// generator rows. Trivially copyable: it crosses a pipe from the process
/// that computes it.
struct Reference {
  Checksum shapes[4];  // indexed like the workload's query shapes
  uint32_t q1_groups = 0;
  Q1Group q1[8];
};

/// Computes the reference of a workload. Single-threaded, slow, and
/// independent of the library's hash table, partitioning and storage.
ssagg::Result<Reference> ComputeReference(const std::string &workload);

/// Every knob of a workload's run, as the benchmark sets it.
struct RunConfig {
  ssagg::idx_t memory_limit = 0;
  ssagg::BufferManagerOptions buffer;
  ssagg::HashAggregateConfig aggregate;
  ssagg::HashJoinConfig join;
};
ssagg::Result<RunConfig> ConfigFor(const std::string &workload);
ssagg::Json ConfigJson(const RunConfig &config);

/// One executed query.
struct QueryRun {
  int shape = 0;
  bool ok = false;
  std::string error;
  double seconds = 0;          // wall clock of the public calls
  uint64_t input_rows = 0;
  std::string strategy;        // planner decision; empty for the join
  bool direct_index = false;
  double pipeline_seconds = 0; // wall clock of the morsel pipelines
  double join_build_seconds = 0;
  double join_probe_seconds = 0;
  double join_emit_seconds = 0;
  ssagg::HashAggregateStats agg;
  ssagg::BufferManagerSnapshot bm_before, bm_after;
  ssagg::ExecutorStats exec_before, exec_after;
  /// Histogram deltas of the query (traced queries only).
  std::map<std::string, ssagg::HistogramSnapshot> histograms;
};

/// A workload instance: a buffer manager, an executor and the input, all
/// long-lived across the queries of a run.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual int ShapeCount() const = 0;
  virtual const char *ShapeName(int shape) const = 0;
  /// Runs one query and checks its result against the reference. Traced
  /// queries wrap the source and the result collector in timing decorators
  /// and collect histogram deltas.
  virtual QueryRun Run(int shape, bool traced) = 0;

  /// One line about the input (sizes), for the run record.
  virtual std::string Describe() const { return "lineitem generator"; }

  virtual ssagg::BufferManager &buffer_manager() = 0;
  virtual ssagg::TaskExecutor &executor() = 0;
  const std::string &temp_dir() const { return temp_dir_; }

 protected:
  std::string temp_dir_;
};

/// Builds a workload instance in `dir` (created; the caller removes it).
/// `fs` is the file system given to the buffer manager and block manager.
ssagg::Result<std::unique_ptr<Workload>> MakeWorkload(
    const std::string &name, const RunConfig &config,
    const Reference &reference, const std::string &dir,
    ssagg::FileSystem &fs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
