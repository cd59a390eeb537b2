// Reference minimal-RG engine for tests: sorted std::vector<NodeId> cut sets,
// std::set_union products and pairwise std::includes absorption, one case
// per gate type. It shares no code with the production bitset engine
// (src/sia/risk_groups.h), so the property tests can hold that engine to it
// byte for byte: same groups, same order, same size_bounded flag.
//
// It is quadratic in the cut sets of a gate, so keep it to small graphs
// (fat-tree deployments of 5 servers or fewer; 6 already takes seconds).

#ifndef TESTS_RG_ORACLE_H_
#define TESTS_RG_ORACLE_H_

#include <vector>

#include "src/graph/fault_graph.h"
#include "src/sia/risk_groups.h"
#include "src/util/status.h"

namespace indaas {

// Minimal risk groups of the validated graph's top event, absorbed after
// every combination step. Honors max_rg_size and max_cut_sets_per_node;
// ignores threads. Bumps no metric.
Result<MinimalRgResult> OracleMinimalRiskGroups(const FaultGraph& graph,
                                                const MinimalRgOptions& options = {});

// Duplicates and supersets removed; sorted by size, then lexicographically.
std::vector<RiskGroup> OracleMinimize(std::vector<RiskGroup> groups);

// True if `a` is a subset of `b`; both must be sorted.
bool IsSubsetOf(const RiskGroup& a, const RiskGroup& b);

// True if failing exactly `group` fails the top event.
bool FailsTopEvent(const FaultGraph& graph, const RiskGroup& group);

// True if `group` fails the top event and no proper subset obtained by
// dropping one element does. O(|group| * |graph|).
bool IsMinimalRiskGroup(const FaultGraph& graph, const RiskGroup& group);

}  // namespace indaas

#endif  // TESTS_RG_ORACLE_H_
