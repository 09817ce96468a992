// perfbench: the ssagg benchmark program. Runs one workload for a fixed
// time as a single closed-loop client, checks every result against a
// reference, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1) as one JSON object on the last line of stdout.
//
//   perfbench --workload <groupby_inmem|groupby_spill_table|join_spill>
//             --seed <n> --seconds <s> --trace <0|1> [--source-id <id>]
//
// Run records, spans and the workload's files go to .perfbench_out/ in the
// working directory. See perfbench/README.md for the workloads and the
// metrics.

#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

extern char **environ;

namespace perfbench {
namespace {

using ssagg::Json;
using ssagg::Status;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr double kMiB = 1024.0 * 1024.0;
/// Run records, spans and the workloads' files, under the working directory.
const char *const kOutDir = ".perfbench_out";

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char **argv, Args *args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// The library reads these at run time; any of them would change what is
/// measured, so the benchmark refuses to run.
std::vector<std::string> ForbiddenEnvironment() {
  static const char *const kExact[] = {
      "SSAGG_IO_BACKEND", "SSAGG_SPILL_COMPRESSION", "SSAGG_AGG_STRATEGY",
      "SSAGG_TRACE", "SSAGG_FLIGHT_DUMP"};
  std::vector<std::string> found;
  for (char **env = environ; *env != nullptr; env++) {
    std::string entry = *env;
    std::string name = entry.substr(0, entry.find('='));
    bool bad = name.rfind("SSAGG_BENCH_", 0) == 0;
    for (const char *exact : kExact) {
      bad = bad || name == exact;
    }
    if (bad) {
      found.push_back(name);
    }
  }
  return found;
}

/// Computes the reference in a child process, so that its memory does not
/// count in this process's peak RSS. Called before any thread exists.
ssagg::Result<Reference> ReferenceInChild(const std::string &workload) {
  int fds[2];
  if (pipe(fds) != 0) {
    return Status::IOError("pipe failed");
  }
  pid_t pid = fork();
  if (pid < 0) {
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    auto ref = ComputeReference(workload);
    if (!ref.ok()) {
      std::fprintf(stderr, "reference: %s\n",
                   ref.status().ToString().c_str());
      _exit(1);
    }
    const auto *bytes = reinterpret_cast<const char *>(&ref.value());
    size_t done = 0;
    while (done < sizeof(Reference)) {
      ssize_t n = write(fds[1], bytes + done, sizeof(Reference) - done);
      if (n <= 0) {
        _exit(1);
      }
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  Reference ref;
  auto *bytes = reinterpret_cast<char *>(&ref);
  size_t done = 0;
  while (done < sizeof(Reference)) {
    ssize_t n = read(fds[0], bytes + done, sizeof(Reference) - done);
    if (n <= 0) {
      break;
    }
    done += static_cast<size_t>(n);
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (done != sizeof(Reference) || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("reference computation failed");
  }
  return ref;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Json HostFingerprint(const std::string &source_id) {
  Json host = Json::Object();
  host.Set("nproc", Json(static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN))));
  struct utsname name {};
  if (uname(&name) == 0) {
    host.Set("kernel", Json(std::string(name.sysname) + " " + name.release +
                            " " + name.version));
    host.Set("machine", Json(name.machine));
  }
  host.Set("compiler", Json(__VERSION__));
  host.Set("build_type", Json(PERFBENCH_BUILD_TYPE));
  host.Set("source", Json(source_id));
  return host;
}

/// The pool's state once no query runs: nothing pinned, no temporary
/// bytes beyond the baseline, an empty temporary file.
std::string LeakCheck(const ssagg::BufferManagerSnapshot &s,
                      ssagg::idx_t baseline) {
  ssagg::idx_t non_persistent = s.memory_used - s.persistent_bytes_in_memory;
  if (s.pinned_buffers != 0) {
    return std::to_string(s.pinned_buffers) + " buffers still pinned";
  }
  if (non_persistent != baseline) {
    return "pool holds " + std::to_string(non_persistent) +
           " non-persistent bytes, baseline " + std::to_string(baseline);
  }
  if (s.temp_file_size != 0) {
    return "temporary file holds " + std::to_string(s.temp_file_size) +
           " bytes";
  }
  return "";
}

struct Instance {
  std::string dir;
  std::unique_ptr<Workload> workload;
  ssagg::idx_t baseline = 0;  // non-persistent pool bytes before any query
};

/// Destroys a workload instance after checking that it leaked nothing: the
/// pool while it lives, its temporary directory once it is gone. Returns
/// the leak found, or "" when there is none.
std::string Retire(Instance &inst, ssagg::BufferManagerSnapshot *last) {
  *last = inst.workload->buffer_manager().Snapshot();
  std::string leak = LeakCheck(*last, inst.baseline);
  std::string temp_dir = inst.workload->temp_dir();
  inst.workload.reset();
  namespace fs = std::filesystem;
  if (leak.empty() && fs::exists(temp_dir) && !fs::is_empty(temp_dir)) {
    leak = "temporary directory not empty after the run";
  }
  fs::remove_all(inst.dir);
  return leak;
}

/// One metric of the final line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics of the traced queries of a run.
std::vector<Metric> LayerMetrics(const std::vector<QueryRun> &traced,
                                 const std::vector<Span> &spans,
                                 const ssagg::BufferManagerSnapshot &end,
                                 double overhead_frac) {
  std::map<std::string, LayerTime> layers;
  for (auto &[name, time] : SelfTimes(spans)) {
    layers[name] = time;
  }
  double n = std::max<double>(1, static_cast<double>(traced.size()));
  double rows = 0, agg_queries = 0, central = 0, tree = 0, radix = 0,
         direct = 0;
  double probe_steps = 0, compares = 0, misses = 0, materialized = 0;
  double resets = 0, sink = 0, phase1 = 0, phase2 = 0, sampling = 0;
  double join_build = 0, join_probe = 0, join_emit = 0;
  double ev_temp = 0, ev_persistent = 0, reuse = 0, oom = 0;
  double write_blocked = 0, read_blocked = 0, coalesced = 0, spill = 0;
  double worker = 0, idle = 0, tasks = 0;
  std::map<std::string, ssagg::HistogramSnapshot> hist;
  for (const QueryRun &q : traced) {
    const auto &b = q.bm_before, &a = q.bm_after;
    const auto &eb = q.exec_before, &ea = q.exec_after;
    rows += static_cast<double>(q.input_rows);
    if (!q.strategy.empty()) {
      agg_queries++;
      central += q.strategy == "central";
      tree += q.strategy == "tree";
      radix += q.strategy == "radix";
      direct += q.direct_index;
      phase1 += q.agg.phase1_seconds;
      phase2 += q.agg.phase2_seconds;
      sampling += q.agg.sampling_seconds;
    }
    probe_steps += static_cast<double>(q.agg.ht.probe_steps);
    compares += static_cast<double>(q.agg.ht.key_compares);
    misses += static_cast<double>(q.agg.ht.key_compare_misses);
    materialized += static_cast<double>(q.agg.materialized_rows);
    resets += static_cast<double>(q.agg.ht.resets);
    join_build += q.join_build_seconds;
    join_probe += q.join_probe_seconds;
    join_emit += q.join_emit_seconds;
    ev_temp += static_cast<double>(a.evicted_temporary_count -
                                   b.evicted_temporary_count);
    ev_persistent += static_cast<double>(a.evicted_persistent_count -
                                         b.evicted_persistent_count);
    reuse += static_cast<double>(a.reused_buffers - b.reused_buffers);
    oom += static_cast<double>(a.oom_rejections - b.oom_rejections);
    write_blocked += a.spill_write_seconds - b.spill_write_seconds;
    read_blocked += a.spill_read_seconds - b.spill_read_seconds;
    coalesced += static_cast<double>(a.spill_coalesced_pages -
                                     b.spill_coalesced_pages);
    spill += static_cast<double>(a.spill_bytes_written - b.spill_bytes_written);
    sink += ea.sink_seconds - eb.sink_seconds;
    worker += ea.worker_seconds - eb.worker_seconds;
    double busy = (ea.source_seconds - eb.source_seconds) +
                  (ea.sink_seconds - eb.sink_seconds) +
                  (ea.combine_seconds - eb.combine_seconds);
    idle += static_cast<double>(kThreads) * q.pipeline_seconds - busy;
    tasks += static_cast<double>(ea.tasks - eb.tasks);
    for (const auto &[key, h] : q.histograms) {
      hist[key].Merge(h);
    }
  }
  auto self = [&](const char *name) { return layers[name].self_seconds / n; };
  auto calls = [&](const char *name) {
    return static_cast<double>(layers[name].calls) / n;
  };
  auto mib = [&](const char *name) {
    return static_cast<double>(layers[name].bytes) / n / kMiB;
  };
  auto p99_us = [&](const char *key) {
    return static_cast<double>(hist[key].Percentile(0.99)) / 1e3;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  double aq = std::max(1.0, agg_queries);
  return {
      {"tpch.source_s", self("tpch.get_data"), "s"},
      {"storage.scan_s", self("storage.get_data"), "s"},
      {"storage.block_reloads", ev_persistent / n, "count"},
      {"core.sink_s", sink / n, "s"},
      {"core.phase1_s", phase1 / n, "s"},
      {"core.phase2_s", phase2 / n, "s"},
      {"core.emit_s", self("core.emit"), "s"},
      {"core.sampling_s", sampling / n, "s"},
      {"core.probe_steps_per_row", ratio(probe_steps, rows), "ratio"},
      {"core.compare_miss_ratio", ratio(misses, compares), "ratio"},
      {"core.materialized_per_row", ratio(materialized, rows), "ratio"},
      {"core.ht_resets", resets / n, "count"},
      {"core.strategy_central", agg_queries > 0 ? central / aq : 0, "share"},
      {"core.strategy_tree", agg_queries > 0 ? tree / aq : 0, "share"},
      {"core.strategy_radix", agg_queries > 0 ? radix / aq : 0, "share"},
      {"core.direct_index_queries", agg_queries > 0 ? direct / aq : 0,
       "share"},
      {"core.join_build_s", join_build / n, "s"},
      {"core.join_probe_s", join_probe / n, "s"},
      {"core.join_emit_s", join_emit / n, "s"},
      {"buffer.evictions_temp", ev_temp / n, "count"},
      {"buffer.evictions_persistent", ev_persistent / n, "count"},
      {"buffer.reuse_hits", reuse / n, "count"},
      {"buffer.oom_rejections", oom / n, "count"},
      {"buffer.pin_wait_p99_us", p99_us("bm.pin_wait_ns"), "us"},
      {"buffer.evict_select_p99_us", p99_us("bm.evict_select_ns"), "us"},
      {"buffer.temp_peak_mib", static_cast<double>(end.temp_file_peak) / kMiB,
       "MiB"},
      {"io.write_blocked_s", write_blocked / n, "s"},
      {"io.read_blocked_s", read_blocked / n, "s"},
      {"io.write_p99_us", p99_us("io.spill_write_latency_ns"), "us"},
      {"io.read_p99_us", p99_us("io.spill_read_latency_ns"), "us"},
      {"io.coalesced_pages", coalesced / n, "count"},
      {"fs.write_calls", calls("fs.write"), "count"},
      {"fs.write_mib", mib("fs.write"), "MiB"},
      {"fs.write_s", self("fs.write"), "s"},
      {"fs.read_calls", calls("fs.read"), "count"},
      {"fs.read_mib", mib("fs.read"), "MiB"},
      {"fs.read_s", self("fs.read"), "s"},
      {"fs.sync_calls", calls("fs.sync"), "count"},
      {"exec.worker_s", worker / n, "s"},
      {"exec.idle_s", idle / n, "s"},
      {"exec.tasks", tasks / n, "count"},
      {"spill_mib_per_query", spill / n / kMiB, "MiB"},
      {"trace.overhead_frac", overhead_frac, "frac"},
  };
}

std::string FormatNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(v) ? v : 0.0);
  return buffer;
}

/// The final stdout line.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric> &metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    line += (i > 0 ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + FormatNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return line + "}}";
}

int Main(int argc, char **argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> [--source-id <id>]\n");
    return 2;
  }
  auto forbidden = ForbiddenEnvironment();
  if (!forbidden.empty()) {
    for (const auto &name : forbidden) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                   name.c_str());
    }
    return 2;
  }
  auto config = ConfigFor(args.workload);
  if (!config.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", config.status().ToString().c_str());
    return 2;
  }

  // 1. Reference, outside set-up and the timed window.
  auto reference = ReferenceInChild(args.workload);
  if (!reference.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  namespace fs = std::filesystem;
  const std::string out_dir = kOutDir;
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed);
  const std::string run_dir =
      out_dir + "/run-" + std::to_string(static_cast<long>(getpid()));
  ssagg::FileSystem &local = ssagg::FileSystem::Default();
  TimingFileSystem timing_fs(local);
  ssagg::FileSystem &engine_fs = args.trace ? timing_fs : local;
  SpanRecorder &recorder = SpanRecorder::Global();

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  auto account = [&](const QueryRun &run) {
    attempted++;
    if (!run.ok) {
      failed++;
      if (errors.size() < 8) {
        errors.push_back(run.error);
      }
    }
  };

  // 2. Set-up: pool, executor and input, then one warm-up query per query
  // shape; repeated, and the last instance is kept for the timed loop.
  std::vector<double> setup_seconds;
  std::string leak;  // the first one found
  ssagg::BufferManagerSnapshot end_snapshot;
  Instance inst;
  auto retire = [&] {
    std::string found = Retire(inst, &end_snapshot);
    if (leak.empty()) {
      leak = found;
    }
  };
  for (int i = 0; i < kSetups; i++) {
    if (inst.workload != nullptr) {
      retire();
    }
    inst.dir = run_dir + "/setup" + std::to_string(i);
    auto start = std::chrono::steady_clock::now();
    auto made = MakeWorkload(args.workload, config.value(), reference.value(),
                             inst.dir, engine_fs);
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   made.status().ToString().c_str());
      fs::remove_all(run_dir);
      return 1;
    }
    inst.workload = made.MoveValue();
    auto snap = inst.workload->buffer_manager().Snapshot();
    inst.baseline = snap.memory_used - snap.persistent_bytes_in_memory;
    for (int s = 0; s < inst.workload->ShapeCount(); s++) {
      account(inst.workload->Run(s, /*traced=*/false));
    }
    setup_seconds.push_back(Seconds(start));
  }
  Workload &wl = *inst.workload;
  // The library keeps per-thread observability state for every worker
  // thread it ever ran, so the process grows with each query: the set-up
  // high-water mark is the footprint, the growth after it is per-query.
  const double setup_rss_mib = PeakRssMib();
  const std::string input = wl.Describe();

  // 3. Timed closed loop: whole rounds over the query shapes, starting at a
  // seed-chosen shape. With --trace 1, rounds alternate between untraced
  // and traced, so both kinds run interleaved under the same conditions.
  const int shapes = wl.ShapeCount();
  std::vector<std::string> shape_names;
  for (int s = 0; s < shapes; s++) {
    shape_names.push_back(wl.ShapeName(s));
  }
  const int first = static_cast<int>(args.seed % static_cast<uint64_t>(shapes));
  std::vector<QueryRun> runs;
  std::vector<bool> traced_flags;
  struct Round {
    bool traced = false;
    bool ok = true;
    double seconds = 0;
    double rows = 0;
  };
  std::vector<Round> rounds;
  auto loop_start = std::chrono::steady_clock::now();
  for (uint64_t round = 0;; round++) {
    bool done = Seconds(loop_start) >= args.seconds;
    if (done && (!args.trace || round >= 2)) {
      break;
    }
    bool traced = args.trace && round % 2 == 1;
    rounds.push_back({traced});
    for (int k = 0; k < shapes; k++) {
      int shape = (first + k) % shapes;
      QueryRun run;
      if (traced) {
        recorder.SetQuery(attempted + 1, 0);
        recorder.SetEnabled(true);
        ScopedSpan root("query");
        recorder.SetQuery(attempted + 1, root.id());
        run = wl.Run(shape, true);
      } else {
        run = wl.Run(shape, false);
      }
      recorder.SetEnabled(false);
      account(run);
      rounds.back().ok = rounds.back().ok && run.ok;
      rounds.back().seconds += run.seconds;
      rounds.back().rows += static_cast<double>(run.input_rows);
      runs.push_back(std::move(run));
      traced_flags.push_back(traced);
    }
  }

  // 4. Leak checks of the kept instance.
  retire();
  fs::remove_all(run_dir);

  // 5. Metrics.
  // Throughput is taken at the median round, so that a few rounds slowed
  // by something else on the host do not move it.
  std::vector<double> round_seconds[2];
  double round_rows = 0;
  for (const Round &r : rounds) {
    if (r.ok) {
      round_seconds[r.traced].push_back(r.seconds);
      round_rows = r.rows;
    }
  }
  auto throughput = [&](int traced) {
    double median = Quantile(round_seconds[traced], 0.5);
    return median > 0 ? round_rows / median : 0.0;
  };
  const double rows_per_s = throughput(0);
  std::vector<double> latencies;
  double spill_bytes = 0;
  std::vector<QueryRun> traced_runs;
  // Planner decisions per shape, untraced [0] and traced [1], counted.
  std::map<int, std::map<std::string, int>> decisions[2];
  for (size_t i = 0; i < runs.size(); i++) {
    const QueryRun &q = runs[i];
    if (!q.ok) {
      continue;
    }
    decisions[traced_flags[i]][q.shape]
             [q.strategy + (q.direct_index ? "+direct" : "")]++;
    if (traced_flags[i]) {
      traced_runs.push_back(q);
      continue;
    }
    latencies.push_back(q.seconds);
    spill_bytes += static_cast<double>(q.bm_after.spill_bytes_written -
                                       q.bm_before.spill_bytes_written);
  }
  std::string self_check;
  // Tracing must not change what the planner decides. The planner reads
  // how many workers have registered when sampling ends, so a few G6/G8
  // queries pick central instead of tree either way; the check therefore
  // compares each shape's most frequent decision.
  auto modal = [](const std::map<std::string, int> &counts) {
    std::string best;
    int best_count = 0;
    for (const auto &[plan, count] : counts) {
      if (count > best_count) {
        best = plan;
        best_count = count;
      }
    }
    return best;
  };
  for (int s = 0; args.trace && s < shapes; s++) {
    if (modal(decisions[0][s]) != modal(decisions[1][s])) {
      self_check = shape_names[s] + ": traced queries mostly planned " +
                   modal(decisions[1][s]) + ", untraced ones " +
                   modal(decisions[0][s]);
    }
  }
  double n_untraced =
      std::max<double>(1, static_cast<double>(latencies.size()));
  std::vector<Metric> e2e = {
      {"setup_s", Quantile(setup_seconds, 0.5), "s"},
      {"rows_per_s", rows_per_s, "rows/s"},
      {"query_p50_s", Quantile(latencies, 0.5), "s"},
      {"peak_rss_mib", setup_rss_mib, "MiB"},
  };

  std::vector<Metric> metrics = e2e;
  if (args.trace) {
    std::vector<Span> spans = recorder.Collect();
    double overhead = rows_per_s > 0 ? 1 - throughput(1) / rows_per_s : 0;
    metrics = LayerMetrics(traced_runs, spans, end_snapshot, overhead);
    double timed = std::max<double>(1, static_cast<double>(runs.size()));
    metrics.push_back({"observe.rss_growth_mib_per_query",
                       (PeakRssMib() - setup_rss_mib) / timed, "MiB"});
    Status written = WriteSpans(spans, out_dir + "/spans-" + tag + ".csv");
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    }
  }

  bool correct = failed == 0 && leak.empty() && self_check.empty();

  // Human-readable report: every end-to-end metric with its unit.
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("  input: %s\n", input.c_str());
  for (const Metric &m : e2e) {
    std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-22s %14.6g %s\n", "failed_frac",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              "frac");
  std::printf("  %-22s %14.6g %s\n", "spill_mib_per_query",
              spill_bytes / n_untraced / kMiB, "MiB");
  if (latencies.size() >= 100) {
    std::printf("  %-22s %14.6g %s\n", "query_p90_s",
                Quantile(latencies, 0.9), "s");
  } else {
    std::printf("  %-22s %14s (fewer than 100 queries)\n", "query_p90_s",
                "n/a");
  }
  auto plans = [&](int traced, int s) {
    std::string chosen;
    for (const auto &[plan, count] : decisions[traced][s]) {
      chosen += (chosen.empty() ? "" : ", ") + (plan.empty() ? "-" : plan) +
                " x" + std::to_string(count);
    }
    return chosen;
  };
  for (int s = 0; s < shapes; s++) {
    std::printf("  plan %-8s %s%s%s\n", shape_names[s].c_str(),
                plans(0, s).c_str(), args.trace ? " | traced: " : "",
                args.trace ? plans(1, s).c_str() : "");
  }
  for (const auto &e : errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  if (!leak.empty()) {
    std::printf("  LEAK: %s\n", leak.c_str());
  }
  if (!self_check.empty()) {
    std::printf("  SELF-CHECK: %s\n", self_check.c_str());
  }

  // Full record next to the spans: configuration, host and every number.
  Json record = Json::Object();
  record.Set("workload", Json(args.workload));
  record.Set("seed", Json(args.seed));
  record.Set("seconds", Json(args.seconds));
  record.Set("trace", Json(args.trace));
  record.Set("config", ConfigJson(config.value()));
  record.Set("host", HostFingerprint(args.source_id));
  record.Set("input", Json(input));
  Json setups = Json::Array();
  for (double s : setup_seconds) {
    setups.Push(Json(s));
  }
  record.Set("setup_seconds", std::move(setups));
  Json queries = Json::Array();
  for (size_t i = 0; i < runs.size(); i++) {
    Json q = Json::Object();
    q.Set("shape", Json(shape_names[runs[i].shape]));
    q.Set("traced", Json(static_cast<bool>(traced_flags[i])));
    q.Set("ok", Json(runs[i].ok));
    q.Set("plan", Json(runs[i].strategy +
                       (runs[i].direct_index ? "+direct" : "")));
    q.Set("seconds", Json(runs[i].seconds));
    queries.Push(std::move(q));
  }
  record.Set("queries", std::move(queries));
  Json out_metrics = Json::Object();
  for (const Metric &m : metrics) {
    out_metrics.Set(m.name, Json(m.value));
  }
  record.Set("metrics", std::move(out_metrics));
  record.Set("correct", Json(correct));
  std::string record_path = out_dir + "/result-" + tag + "-trace" +
                            (args.trace ? "1" : "0") + ".json";
  if (std::FILE *f = std::fopen(record_path.c_str(), "w")) {
    std::fputs(record.Dump(2).c_str(), f);
    std::fclose(f);
  }
  std::printf("config %s\n", ConfigJson(config.value()).Dump().c_str());
  std::printf("host %s\n", HostFingerprint(args.source_id).Dump().c_str());
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char **argv) { return perfbench::Main(argc, argv); }
