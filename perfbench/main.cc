// INDaaS benchmark binary: one workload, one run.
//
//   indaas_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   indaas_perfbench --selftest --seed <n>
//
// --trace 0 sets the workload up several times (setup_s is the median),
// each set-up serving an equal segment of a --seconds closed loop, and
// prints the end-to-end metrics. --trace 1 sets up once, runs a traced loop (the program's span
// recorder on) and an untraced loop for --seconds/2 each, then times the
// benchmark's own calls into each layer and prints the per-layer metrics.
//
// stdout: a stamp line, a detail line, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 1 on a setup
// error; a wrong result is reported as correct=false with exit code 0.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/obs/trace.h"

#ifndef INDAAS_PERFBENCH_BUILD_TYPE
#define INDAAS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-ups (and loop segments) per --trace 0 run; setup_s is their median.
constexpr int kSetups = 5;

// Shortest window for the windowed medians of ops_per_s and cpu_ms_per_op.
constexpr double kWindowSeconds = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return args->selftest ||
         (!args->workload.empty() && args->seconds > 0 && (args->trace == 0 || args->trace == 1));
}

void PrintStamp(const Args& args) {
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"compiler\": \"gcc %s\", \"build_type\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, INDAAS_PERFBENCH_BUILD_TYPE);
}

void PrintResult(uint64_t attempted, uint64_t failed, const MetricList& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.ToJson().c_str());
}

int RunEndToEnd(Workload& workload, const Args& args) {
  // Each set-up serves one segment of the timed loop: the serving threads
  // start afresh each time, so the medians below span several thread
  // placements instead of one run's luck.
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> cpu_ms;
  LoopStats total;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    if (indaas::Status status = workload.Setup(); !status.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setups.push_back(SecondsSince(start));
    const LoopStats segment = workload.Run(args.seconds / kSetups);
    workload.Teardown();
    for (const Window& window : LoopWindows(segment, kWindowSeconds)) {
      rates.push_back(window.ops_per_s);
      cpu_ms.push_back(window.cpu_ms_per_op);
    }
    total.attempted += segment.attempted;
    total.failed += segment.failed;
    total.wall_s += segment.wall_s;
    total.cpu_s += segment.cpu_s;
    total.bytes += segment.bytes;
    total.latencies_ms.insert(total.latencies_ms.end(), segment.latencies_ms.begin(),
                              segment.latencies_ms.end());
  }
  const double ops = static_cast<double>(total.attempted);
  MetricList metrics;
  metrics.Add("setup_s", Median(setups), "s");
  metrics.Add("ops_per_s", Median(rates), "ops/s");
  metrics.Add("op_p50_ms", Percentile(total.latencies_ms, 50), "ms");
  metrics.Add("cpu_ms_per_op", Median(cpu_ms), "ms");
  metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  metrics.Add("bytes_per_op", static_cast<double>(total.bytes) / ops, "B");
  metrics.Add("success_rate", (ops - static_cast<double>(total.failed)) / ops, "fraction");
  std::printf(
      "{\"detail\": {\"op_samples\": %zu, \"windows\": %zu, \"segments\": %d, "
      "\"wall_s\": %.3f, \"mean_ops_per_s\": %.6g, \"mean_cpu_ms_per_op\": %.6g}}\n",
      total.latencies_ms.size(), rates.size(), kSetups, total.wall_s, ops / total.wall_s,
      total.cpu_s * 1e3 / ops);
  PrintResult(total.attempted, total.failed, metrics);
  return 0;
}

int RunTraced(Workload& workload, const Args& args) {
  if (indaas::Status status = workload.Setup(); !status.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", status.ToString().c_str());
    return 1;
  }
  // The traced loop runs first so that the untraced loop is the last Run()
  // and the counters read across it belong to it alone.
  indaas::obs::TraceRecorder& recorder = indaas::obs::TraceRecorder::Global();
  recorder.Reset();
  recorder.SetEnabled(true);
  const LoopStats traced = workload.Run(args.seconds / 2);
  recorder.SetEnabled(false);
  indaas::Result<indaas::obs::MetricsSnapshot> before = workload.ExportedMetrics();
  const LoopStats loop = workload.Run(args.seconds / 2);
  indaas::Result<indaas::obs::MetricsSnapshot> after = workload.ExportedMetrics();
  if (!before.ok() || !after.ok()) {
    std::fprintf(stderr, "perfbench: reading the exported metrics failed: %s\n",
                 (before.ok() ? after.status() : before.status()).ToString().c_str());
    return 1;
  }

  MetricList layers;
  const double ops = static_cast<double>(loop.attempted);
  auto counter_delta = [&](const char* name) {
    return static_cast<double>(FindCounter(*after, name) - FindCounter(*before, name));
  };
  auto histogram_delta = [&](const char* name) {
    return HistogramDelta(FindHistogram(*before, name), FindHistogram(*after, name));
  };
  layers.Add("trace.overhead_ratio",
             (static_cast<double>(traced.attempted) / traced.wall_s) / (ops / loop.wall_s),
             "ratio");
  layers.Add("trace.op_p99_ms", Percentile(loop.latencies_ms, 99), "ms");
  layers.Add("trace.op_samples", static_cast<double>(loop.latencies_ms.size()), "count");
  layers.Add("svc.queue_delay_ms",
             1e3 * HistogramPercentile(histogram_delta("svc.queue_delay_seconds"), 50), "ms");
  layers.Add("svc.stage.read_ms",
             1e3 * HistogramPercentile(histogram_delta("svc.stage.read_seconds"), 50), "ms");
  layers.Add("svc.stage.write_ms",
             1e3 * HistogramPercentile(histogram_delta("svc.stage.write_seconds"), 50), "ms");
  layers.Add("svc.requests_shed", counter_delta("svc.requests_shed"), "count");
  layers.Add("net.frames_per_op", counter_delta("net.frames_sent") / ops, "count");
  layers.Add("net.loop.iterations_per_op", counter_delta("net.loop.iterations") / ops, "count");
  layers.Add("net.loop.wait_ms_per_op", 1e3 * histogram_delta("net.loop.wait_seconds").sum / ops,
             "ms");
  if (indaas::Status status = workload.MeasureLayers(&layers); !status.ok()) {
    std::fprintf(stderr, "perfbench: layer measurement failed: %s\n", status.ToString().c_str());
    return 1;
  }
  workload.Teardown();
  std::printf("{\"detail\": {\"traced_ops\": %llu, \"untraced_ops\": %llu, \"spans\": %zu}}\n",
              static_cast<unsigned long long>(traced.attempted),
              static_cast<unsigned long long>(loop.attempted), recorder.Snapshot().size());
  PrintResult(traced.attempted + loop.attempted, traced.failed + loop.failed, layers);
  return 0;
}

int Main(int argc, char** argv) {
  if (std::getenv("INDAAS_CHAOS") != nullptr) {
    std::fprintf(stderr, "perfbench: refusing to run with INDAAS_CHAOS set\n");
    return 2;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: indaas_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
        "       indaas_perfbench --selftest [--seed <n>]\n");
    return 2;
  }
  if (args.selftest) {
    indaas::Status status = RunScalingSelfTest(args.seed);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  PrintStamp(args);
  std::fflush(stdout);
  return args.trace == 0 ? RunEndToEnd(*workload, args) : RunTraced(*workload, args);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
