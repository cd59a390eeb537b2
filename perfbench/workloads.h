// The four benchmark workloads. Each drives the program through its public
// API only: the reactor AuditServer with a MuxAuditClient for audit RPCs,
// svc::PiaPeer for P-SOP rings, and RunAllPairsPiaAudit for the sketch
// audit. Every op's result is checked against an in-process reference that
// Setup() computes once from the same generated inputs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>

#include "perfbench/common.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace perfbench {

// Deterministic work counters of one pass over a workload's inputs (the
// scaling self-test compares them across sizes and repetitions).
using WorkCounters = std::map<std::string, uint64_t>;

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs, starts the serving side, computes the reference
  // answers, and runs one untimed warm-up op. Everything a user waits for
  // before the first real op.
  virtual indaas::Status Setup() = 0;
  // Stops whatever Setup() started. Safe to call more than once.
  virtual void Teardown() = 0;
  // Closed loop for `seconds`; every op is verified.
  virtual LoopStats Run(double seconds) = 0;
  // The program's exported metrics as a client can read them: through the
  // GetStats RPC where there is a server, else the in-process registry.
  virtual indaas::Result<indaas::obs::MetricsSnapshot> ExportedMetrics();
  // Times the benchmark's own calls into each layer's public functions on
  // the workload's inputs and adds the metrics of the layers this workload
  // exercises. Per-op counts read by it belong to the last Run().
  virtual indaas::Status MeasureLayers(MetricList* out) = 0;
  // One pass over the inputs after Setup(), counting work.
  virtual indaas::Result<WorkCounters> CountWork() = 0;
};

// The workload at benchmark size.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// Checks that each workload's work grows with its size parameters and
// repeats exactly at a fixed seed. Prints one line per check to stdout.
indaas::Status RunScalingSelfTest(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
