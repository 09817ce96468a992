// Multi-tenant QueryService demo: several tenants share one memory-limited
// BufferManager — one limit, one eviction queue — behind FIFO admission
// control.
//
// Six tenant threads submit grouped aggregations of different shapes at a
// service capped at two concurrent sessions, while the main thread polls
// the service's live session registry — the same introspection a /sessions
// endpoint would serve: who is queued (and for how long), who is running,
// in which phase, with how many rows consumed. Afterwards it prints the
// admission counters and the queue-wait histogram.
//
// Usage:
//   multi_tenant_service            # run the demo
//
// Things to watch in the output: sessions report "queued" while they wait
// (no blank lines), every admitted query gets its queue wait stamped, the
// pool's used bytes never pass its limit, and at the end no page is pinned
// and no byte is charged — nothing leaked.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ssagg/ssagg.h"

using namespace ssagg;  // NOLINT(build/namespaces)

namespace {

RangeSource MakeTenantSource(idx_t rows, idx_t groups) {
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

}  // namespace

int main() {
  constexpr idx_t kTenants = 6;
  // A pool small enough that heavy tenants spill: admission decides how
  // many tenants share it, eviction which of their pages stay resident.
  BufferManager bm("/tmp/ssagg_mt_demo", 48ULL << 20);
  QueryServiceOptions options;
  options.max_concurrent = 2;
  options.max_queue_depth = kTenants;
  options.threads = 2;
  QueryService service(bm, options);

  std::atomic<idx_t> done{0};
  std::vector<std::thread> tenants;
  for (idx_t t = 0; t < kTenants; t++) {
    tenants.emplace_back([&, t]() {
      // Even tenants run small dashboard-style queries, odd ones heavy
      // wide aggregations that need to spill under the shared limit.
      const bool heavy = (t % 2) == 1;
      const idx_t rows = heavy ? 2000000 : 300000;
      const idx_t groups = heavy ? 400000 : 64;
      auto source = MakeTenantSource(rows, groups);
      CountingCollector sink;
      QuerySpec spec;
      spec.source = &source;
      spec.group_columns = {0};
      spec.aggregates = {{AggregateKind::kSum, 1},
                         {AggregateKind::kCountStar, kInvalidIndex}};
      spec.output = &sink;
      spec.config.radix_bits = 4;
      auto result = service.Execute(spec);
      if (result.ok()) {
        std::printf("tenant %llu done: %llu groups\n",
                    static_cast<unsigned long long>(t),
                    static_cast<unsigned long long>(sink.TotalRows()));
      } else {
        std::printf("tenant %llu shed: %s\n",
                    static_cast<unsigned long long>(t),
                    result.status().ToString().c_str());
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }

  // Live introspection while the tenants fight for admission.
  while (done.load(std::memory_order_relaxed) < kTenants) {
    auto sessions = service.Sessions();
    QueryServiceStats stats = service.stats();
    std::printf("[live] active %llu queued %llu | pool used %llu/%llu MiB\n",
                static_cast<unsigned long long>(stats.active),
                static_cast<unsigned long long>(stats.waiting),
                static_cast<unsigned long long>(bm.memory_used() >> 20),
                static_cast<unsigned long long>(bm.memory_limit() >> 20));
    for (const auto &session : sessions) {
      std::printf("  session %llu: %-7s rows %llu  queue_wait %llu ms\n",
                  static_cast<unsigned long long>(session.id),
                  QueryProgress::PhaseName(session.progress.phase),
                  static_cast<unsigned long long>(
                      session.progress.rows_consumed),
                  static_cast<unsigned long long>(
                      session.progress.queue_wait_ns / 1000000));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  for (auto &th : tenants) {
    th.join();
  }

  QueryServiceStats stats = service.stats();
  std::printf("\nadmission: submitted %llu admitted %llu queued %llu "
              "shed_full %llu shed_timeout %llu completed %llu failed %llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.queued),
              static_cast<unsigned long long>(stats.shed_queue_full),
              static_cast<unsigned long long>(stats.shed_timeout),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed));
  auto hist = MetricsRegistry::Global().HistogramSnapshots()["svc.queue_wait_ns"];
  if (hist.count > 0) {
    std::printf("queue wait: p50 %llu ms  p99 %llu ms  max %llu ms\n",
                static_cast<unsigned long long>(hist.Percentile(0.50) / 1000000),
                static_cast<unsigned long long>(hist.Percentile(0.99) / 1000000),
                static_cast<unsigned long long>(hist.max / 1000000));
  }
  std::printf("pool at quiesce: pinned %llu used %llu bytes (both must be 0)\n",
              static_cast<unsigned long long>(bm.PinnedBufferCount()),
              static_cast<unsigned long long>(bm.memory_used()));
  return bm.PinnedBufferCount() == 0 && bm.memory_used() == 0 ? 0 : 1;
}
