// Multi-tenant QueryService bench: throughput vs. concurrency.
//
// Fires a fixed batch of identical grouped-aggregation queries through one
// QueryService at increasing concurrency caps and reports queries/second,
// speedup over the serial run, queue-wait percentiles, the peak of the
// shared pool's memory_used and the bytes spilled. The pool is deliberately
// a fraction of what the batch would want, so higher concurrency buys
// overlap (one query's spill I/O hides another's probe work) at the price
// of more spilling — the trade the admission cap exists to bound.
//
//   bench_multi_tenant [rows-per-query] [queries] [groups]
//
// Environment: SSAGG_BENCH_MEMORY (pool bytes), SSAGG_BENCH_TEMPDIR.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "ssagg/ssagg.h"

using namespace ssagg;  // NOLINT(build/namespaces)

namespace {

RangeSource MakeSource(idx_t rows, idx_t groups) {
  return RangeSource(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, rows,
      [groups](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          chunk.column(0).SetValue<int64_t>(
              i, static_cast<int64_t>(HashUint64(row) % groups));
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row));
        }
        return Status::OK();
      });
}

struct RunResult {
  double seconds = 0;
  idx_t completed = 0;
  idx_t shed = 0;
  uint64_t queue_wait_p50_us = 0;
  uint64_t queue_wait_p99_us = 0;
  idx_t peak_used = 0;
  idx_t spilled = 0;
  bool leaked = false;
};

RunResult RunBatch(const std::string &dir, idx_t pool_bytes, idx_t concurrency,
                   idx_t queries, idx_t rows, idx_t groups) {
  BufferManager bm(dir, pool_bytes);
  QueryServiceOptions options;
  options.max_concurrent = concurrency;
  options.max_queue_depth = queries;  // bench measures throughput, not shed
  options.admission_timeout_seconds = 600;
  options.threads = 2;
  QueryService service(bm, options);

  auto wait_hist_before =
      MetricsRegistry::Global().HistogramSnapshots()["svc.queue_wait_ns"];

  std::vector<std::thread> submitters;
  std::atomic<idx_t> completed{0};
  std::atomic<idx_t> shed{0};
  // Samples the shared pool's usage while the batch runs.
  std::atomic<bool> done{false};
  idx_t peak_used = 0;
  std::thread sampler([&]() {
    while (!done.load(std::memory_order_relaxed)) {
      peak_used = std::max(peak_used, bm.memory_used());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto t0 = std::chrono::steady_clock::now();
  for (idx_t q = 0; q < queries; q++) {
    submitters.emplace_back([&, q]() {
      auto source = MakeSource(rows, groups);
      CountingCollector collector;
      QuerySpec spec;
      spec.source = &source;
      spec.group_columns = {0};
      spec.aggregates = {{AggregateKind::kSum, 1},
                         {AggregateKind::kCountStar, kInvalidIndex}};
      spec.output = &collector;
      spec.config.radix_bits = 3;
      auto result = service.Execute(spec);
      if (result.ok()) {
        completed.fetch_add(1, std::memory_order_relaxed);
      } else {
        shed.fetch_add(1, std::memory_order_relaxed);
        SSAGG_LOG_WARN("query %llu not admitted or failed: %s",
                       static_cast<unsigned long long>(q),
                       result.status().ToString().c_str());
      }
    });
  }
  for (auto &th : submitters) {
    th.join();
  }
  auto t1 = std::chrono::steady_clock::now();
  done.store(true, std::memory_order_relaxed);
  sampler.join();

  RunResult out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.completed = completed.load();
  out.shed = shed.load();
  out.peak_used = peak_used;
  out.spilled = bm.Snapshot().spill_bytes_written;
  auto wait_hist =
      MetricsRegistry::Global().HistogramSnapshots()["svc.queue_wait_ns"];
  wait_hist.Subtract(wait_hist_before);
  if (wait_hist.count > 0) {
    out.queue_wait_p50_us = wait_hist.Percentile(0.50) / 1000;
    out.queue_wait_p99_us = wait_hist.Percentile(0.99) / 1000;
  }
  // Quiesce invariant, checked while the pool is still alive: no pin,
  // memory charge or session may be left behind.
  out.leaked = bm.PinnedBufferCount() != 0 || bm.memory_used() != 0 ||
               !service.Sessions().empty();
  return out;
}

}  // namespace

int main(int argc, char **argv) {
  idx_t rows = argc > 1 ? static_cast<idx_t>(std::atoll(argv[1])) : 1500000;
  idx_t queries = argc > 2 ? static_cast<idx_t>(std::atoll(argv[2])) : 12;
  idx_t groups = argc > 3 ? static_cast<idx_t>(std::atoll(argv[3])) : 200000;

  idx_t pool_bytes = 96ULL << 20;
  if (const char *env = std::getenv("SSAGG_BENCH_MEMORY")) {
    pool_bytes = static_cast<idx_t>(std::atoll(env));
  }
  std::string dir = "/tmp/ssagg_bench_mt";
  if (const char *env = std::getenv("SSAGG_BENCH_TEMPDIR")) {
    dir = env;
  }
  (void)FileSystem::Default().CreateDirectories(dir);

  std::printf("# multi-tenant throughput sweep: %llu queries x %llu rows, "
              "%llu groups, pool %llu MiB\n",
              static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(groups),
              static_cast<unsigned long long>(pool_bytes >> 20));
  std::printf("%-12s %10s %10s %9s %9s %14s %14s %12s %12s\n",
              "concurrency", "seconds", "q/s", "speedup", "shed",
              "qwait_p50_us", "qwait_p99_us", "peak_used", "spill");

  double serial_seconds = 0;
  for (idx_t concurrency : {idx_t{1}, idx_t{2}, idx_t{4}, idx_t{8}}) {
    RunResult r =
        RunBatch(dir, pool_bytes, concurrency, queries, rows, groups);
    if (concurrency == 1) {
      serial_seconds = r.seconds;
    }
    double qps = r.seconds > 0 ? static_cast<double>(r.completed) / r.seconds
                               : 0;
    double speedup = r.seconds > 0 ? serial_seconds / r.seconds : 0;
    std::printf(
        "%-12llu %10.3f %10.2f %8.2fx %9llu %14llu %14llu %8llu MiB "
        "%8llu MiB\n",
        static_cast<unsigned long long>(concurrency), r.seconds, qps, speedup,
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.queue_wait_p50_us),
        static_cast<unsigned long long>(r.queue_wait_p99_us),
        static_cast<unsigned long long>(r.peak_used >> 20),
        static_cast<unsigned long long>(r.spilled >> 20));
    if (r.completed != queries) {
      SSAGG_LOG_ERROR("only %llu/%llu queries completed",
                      static_cast<unsigned long long>(r.completed),
                      static_cast<unsigned long long>(queries));
      return 1;
    }
    if (r.leaked) {
      SSAGG_LOG_ERROR("pool did not quiesce at concurrency %llu",
                      static_cast<unsigned long long>(concurrency));
      return 1;
    }
  }
  return 0;
}
