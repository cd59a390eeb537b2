// Risk group determination (paper §4.1.2).
//
// A risk group (RG) is a set of basic failure events whose simultaneous
// occurrence fails the top event. A *minimal* RG stops being an RG if any
// member is removed. Two algorithms compute them:
//   * ComputeMinimalRiskGroups — exact bottom-up cut-set computation adapted
//     from classic fault tree analysis, on the bitset cut-set engine
//     (cutset.h); precise but NP-hard (exponential in the worst case).
//     Supports size-bounded analysis.
//   * SampleRiskGroups (sampling.h) — linear-time randomized detection.

#ifndef SRC_SIA_RISK_GROUPS_H_
#define SRC_SIA_RISK_GROUPS_H_

#include <cstddef>
#include <vector>

#include "src/graph/fault_graph.h"
#include "src/util/status.h"

namespace indaas {

// A set of basic-event node ids, sorted ascending.
using RiskGroup = std::vector<NodeId>;

// Removes duplicates and non-minimal groups (supersets of another group).
// The result is sorted by size, then lexicographically.
std::vector<RiskGroup> MinimizeRiskGroups(std::vector<RiskGroup> groups);

struct MinimalRgOptions {
  // Cut sets larger than this are pruned during computation: the analysis is
  // then exact for all minimal RGs of size <= max_rg_size (size-bounded fault
  // tree analysis). SIZE_MAX means unbounded.
  size_t max_rg_size = SIZE_MAX;
  // Safety valve: if any node accumulates more cut sets than this, the
  // computation fails with kResourceExhausted rather than consuming all
  // memory. SIZE_MAX means unbounded.
  size_t max_cut_sets_per_node = SIZE_MAX;
  // Worker threads for AND-product / absorption sharding (0 = hardware
  // concurrency, 1 = fully sequential). Output is byte-identical for every
  // thread count; the pool is only spun up once a stage has enough work to
  // amortize it.
  size_t threads = 0;
};

struct MinimalRgResult {
  std::vector<RiskGroup> groups;  // minimal RGs, sorted by size
  // True if max_rg_size pruned anything (result complete only up to bound).
  bool size_bounded = false;
};

// Exact minimal risk groups of the validated graph's top event.
Result<MinimalRgResult> ComputeMinimalRiskGroups(const FaultGraph& graph,
                                                 const MinimalRgOptions& options = {});

}  // namespace indaas

#endif  // SRC_SIA_RISK_GROUPS_H_
