#ifndef SSAGG_BENCH_HARNESS_UTIL_H_
#define SSAGG_BENCH_HARNESS_UTIL_H_

#include <string>
#include <vector>

#include "ssagg/ssagg.h"

namespace ssagg {
namespace bench {

/// Shared configuration of the reproduction benches. Values are scaled to
/// the "mini" data scale (DESIGN.md Section 3): the default 192 MiB memory
/// limit puts the in-memory/external crossovers at the same relative scale
/// factors as the paper's 32 GB did.
struct BenchOptions {
  idx_t threads = 2;
  double timeout_seconds = 60;   // paper: 600 s on full-scale data
  idx_t memory_limit = 192ULL << 20;
  idx_t scale_cap = 128;         // skip scale factors above this
  idx_t runs = 1;                // paper: median of 5
  std::string temp_dir = "/tmp/ssagg_bench";
  /// Aggregation knobs, scaled to the mini data scale: the paper
  /// over-partitions so one aggregated partition per thread fits in memory
  /// (Section V); at a 192 MiB limit that needs 2^5 partitions and a
  /// proportionally smaller phase-1 table.
  idx_t radix_bits = 5;
  idx_t phase1_capacity = 1ULL << 15;

  /// The aggregation config used for every hash-based system model.
  HashAggregateConfig AggConfig() const {
    HashAggregateConfig config;
    config.radix_bits = radix_bits;
    config.phase1_capacity = phase1_capacity;
    return config;
  }

  /// Reads SSAGG_BENCH_THREADS, SSAGG_BENCH_TIMEOUT, SSAGG_BENCH_MEMORY_MB,
  /// SSAGG_BENCH_SF_CAP, SSAGG_BENCH_RUNS, SSAGG_BENCH_TMPDIR.
  static BenchOptions FromEnv();

  /// The options as a JSON object (embedded in every results file, so a
  /// diff between two runs shows configuration drift).
  Json ToJson() const;
};

/// The four systems of the paper's evaluation (Section VIII), as
/// behavioural models sharing one substrate (DESIGN.md Section 3).
enum class SystemKind {
  kRobust,      // "Du": this paper / DuckDB
  kClickHouse,  // "Cl": two-level HT, serialize-spills partitions
  kHyPer,       // "Hy": switches to external sort aggregation
  kUmbra,       // "Um": in-memory only, aborts past the limit
};

const char *SystemName(SystemKind kind);
const char *SystemShortName(SystemKind kind);
const std::vector<SystemKind> &AllSystems();

/// Result of one benchmark query.
struct QueryResult {
  double seconds = 0;
  char tag = ' ';  // ' ' ok, 'A' aborted, 'T' timed out, 'E' other error
  std::string error;  // the failed query's Status text; empty when ok
  idx_t result_rows = 0;
  bool skipped = false;  // propagated failure from a smaller scale factor
  BufferManagerSnapshot snapshot;
  /// Per-query observability snapshot (phase timings + "agg.*"/"exec.*"/
  /// "bm.*"/"io.*" counters); filled by RunGroupingQuery for every system.
  QueryProfile profile;

  bool ok() const { return tag == ' ' && !skipped; }
  /// "0.42" / "A" / "T" — the paper's table cell format.
  std::string Cell() const;
  /// {"seconds", "tag", "error" (failed queries only), "result_rows",
  /// "snapshot", "profile"}.
  Json ToJson() const;
};

/// Runs one Table I grouping on one system at one scale factor, with a
/// fresh buffer manager per query (paper: each query runs standalone).
QueryResult RunGroupingQuery(SystemKind system,
                             const tpch::LineitemGenerator &generator,
                             const tpch::Grouping &grouping, bool wide,
                             const BenchOptions &options);

/// Geometric mean of per-query times normalized to the baseline system's
/// times ("this weighs each query fairly", Section VIII). Returns the cell
/// text: a number, or 'A'/'T' if any query failed.
std::string NormalizedGeoMeanCell(const std::vector<QueryResult> &system,
                                  const std::vector<QueryResult> &baseline);

/// Fixed-width table printing helpers.
void PrintRule(const std::vector<int> &widths);
void PrintRow(const std::vector<std::string> &cells,
              const std::vector<int> &widths);

/// Bytes -> "123.4 MiB" style.
std::string FormatBytes(idx_t bytes);

/// Flat JSON object view of a buffer-manager snapshot.
Json SnapshotJson(const BufferManagerSnapshot &snapshot);

/// Writes the uniform bench results file, results/<bench_name>.json:
///
///   { "bench": <name>, "options": {...}, ...payload members... }
///
/// `payload` must be a JSON object; its members land at the top level next
/// to the envelope fields. Creates results/ if needed; returns the path
/// written, or "" on failure (after printing a diagnostic).
std::string WriteResultsJson(const std::string &bench_name,
                             const BenchOptions &options, Json payload);

}  // namespace bench
}  // namespace ssagg

#endif  // SSAGG_BENCH_HARNESS_UTIL_H_
