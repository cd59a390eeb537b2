// Shared plumbing for the benchmark binary: process-level measurements
// (CPU, peak RSS), closed-loop statistics, the metric list a run reports,
// and readers for the counters and histograms the program already exports
// through obs::MetricsRegistry.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// User + system CPU seconds of the whole process (every thread).
double ProcessCpuSeconds();

// VmHWM of this process in MiB (peak resident set size).
double PeakRssMb();

// p-th percentile (0..100), linear interpolation; 0 for no samples.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Progress of a loop at one instant: seconds since its start, ops
// completed so far, process CPU seconds so far.
struct LoopSample {
  double t_s = 0;
  uint64_t completed = 0;
  double cpu_s = 0;
};

// What one closed loop did. Latencies are per completed op, send to
// verified reply; samples start at (0, 0, cpu at start) and end with the
// loop's last completion.
struct LoopStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // transport errors, sheds, wrong results
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t bytes = 0;  // socket bytes (or register bytes) for all ops
  std::vector<double> latencies_ms;
  std::vector<LoopSample> samples;
};

// Throughput (ops/s) and CPU per op (ms) of each consecutive window of at
// least `min_window_s` seconds and one op. On a shared host a burst of
// foreign load slows a few windows; a median over windows ignores them
// where a whole-run mean would not. A loop shorter than one window is one.
struct Window {
  double ops_per_s = 0;
  double cpu_ms_per_op = 0;
};
std::vector<Window> LoopWindows(const LoopStats& stats, double min_window_s);

// Runs `op` back to back until `seconds` have passed, timing each call,
// sampling progress after each, and measuring process CPU and socket bytes
// around the whole loop. `op` returns false when its result failed
// verification.
template <typename Op>
LoopStats RunSerialLoop(double seconds, Op&& op);

// Reported metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  // {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

// Process-wide counter value from the program's metrics registry.
uint64_t CounterValue(const std::string& name);

// Bucket-count difference `after - before` of one histogram, and its
// percentile by linear interpolation inside the bucket that holds it.
indaas::obs::Histogram::Snapshot HistogramDelta(const indaas::obs::Histogram::Snapshot& before,
                                                const indaas::obs::Histogram::Snapshot& after);
double HistogramPercentile(const indaas::obs::Histogram::Snapshot& histogram, double p);

// Finds a histogram by name in a snapshot; an empty one when absent.
indaas::obs::Histogram::Snapshot FindHistogram(const indaas::obs::MetricsSnapshot& snapshot,
                                               const std::string& name);
uint64_t FindCounter(const indaas::obs::MetricsSnapshot& snapshot, const std::string& name);

// Median wall time in microseconds of `reps` calls of `fn`.
template <typename Fn>
double MedianMicros(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Clock::time_point start = Clock::now();
    fn();
    samples.push_back(SecondsSince(start) * 1e6);
  }
  return Median(std::move(samples));
}

template <typename Op>
LoopStats RunSerialLoop(double seconds, Op&& op) {
  LoopStats stats;
  const uint64_t bytes_before = CounterValue("net.bytes_sent");
  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  stats.samples.push_back(LoopSample{0, 0, cpu_before});
  while (SecondsSince(start) < seconds) {
    Clock::time_point t0 = Clock::now();
    bool ok = op();
    stats.latencies_ms.push_back(SecondsSince(t0) * 1e3);
    ++stats.attempted;
    if (!ok) {
      ++stats.failed;
    }
    stats.samples.push_back(LoopSample{SecondsSince(start), stats.attempted, ProcessCpuSeconds()});
  }
  stats.wall_s = SecondsSince(start);
  stats.cpu_s = ProcessCpuSeconds() - cpu_before;
  stats.bytes = CounterValue("net.bytes_sent") - bytes_before;
  return stats;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
