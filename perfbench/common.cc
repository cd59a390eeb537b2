#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

std::vector<Window> LoopWindows(const LoopStats& stats, double min_window_s) {
  std::vector<Window> windows;
  size_t begin = 0;
  for (size_t end = 1; end < stats.samples.size(); ++end) {
    const LoopSample& a = stats.samples[begin];
    const LoopSample& b = stats.samples[end];
    const double dt = b.t_s - a.t_s;
    if (dt < min_window_s || b.completed == a.completed) {
      continue;
    }
    const double ops = static_cast<double>(b.completed - a.completed);
    windows.push_back(Window{ops / dt, (b.cpu_s - a.cpu_s) * 1e3 / ops});
    begin = end;
  }
  if (windows.empty() && stats.attempted > 0) {
    const double ops = static_cast<double>(stats.attempted);
    windows.push_back(Window{ops / stats.wall_s, stats.cpu_s * 1e3 / ops});
  }
  return windows;
}

std::string MetricList::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics_[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}";
}

uint64_t CounterValue(const std::string& name) {
  return indaas::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

indaas::obs::Histogram::Snapshot HistogramDelta(const indaas::obs::Histogram::Snapshot& before,
                                                const indaas::obs::Histogram::Snapshot& after) {
  indaas::obs::Histogram::Snapshot delta = after;
  if (before.counts.size() != after.counts.size()) {
    return delta;  // `before` predates the histogram: everything is new
  }
  for (size_t i = 0; i < delta.counts.size(); ++i) {
    delta.counts[i] -= before.counts[i];
  }
  delta.count -= before.count;
  delta.sum -= before.sum;
  return delta;
}

double HistogramPercentile(const indaas::obs::Histogram::Snapshot& histogram, double p) {
  if (histogram.count == 0 || histogram.bounds.empty()) {
    return 0;
  }
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(histogram.count);
  double seen = 0;
  for (size_t i = 0; i < histogram.counts.size(); ++i) {
    const double in_bucket = static_cast<double>(histogram.counts[i]);
    if (in_bucket > 0 && seen + in_bucket >= target) {
      if (i >= histogram.bounds.size()) {
        return histogram.bounds.back();  // overflow bucket: clamp to the top bound
      }
      const double lo = i == 0 ? 0.0 : histogram.bounds[i - 1];
      const double hi = histogram.bounds[i];
      return lo + (hi - lo) * (target - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return histogram.bounds.back();
}

indaas::obs::Histogram::Snapshot FindHistogram(const indaas::obs::MetricsSnapshot& snapshot,
                                               const std::string& name) {
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == name) {
      return histogram;
    }
  }
  indaas::obs::Histogram::Snapshot empty;
  empty.name = name;
  return empty;
}

uint64_t FindCounter(const indaas::obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return 0;
}

}  // namespace perfbench
