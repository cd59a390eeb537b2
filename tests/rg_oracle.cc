#include "tests/rg_oracle.h"

#include <algorithm>
#include <iterator>

#include "src/util/strings.h"

namespace indaas {
namespace {

// Merges two sorted id sets (set union).
RiskGroup UnionOf(const RiskGroup& a, const RiskGroup& b) {
  RiskGroup out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

// Cartesian combination for AND gates: every union of one cut set from each
// side, pruned by max size, then minimized. Sets *pruned when a product
// exceeds the size bound.
Result<std::vector<RiskGroup>> CombineAnd(const std::vector<RiskGroup>& lhs,
                                          const std::vector<RiskGroup>& rhs,
                                          const MinimalRgOptions& options, bool* pruned) {
  if (lhs.size() * rhs.size() > 0 &&
      lhs.size() > options.max_cut_sets_per_node / std::max<size_t>(rhs.size(), 1)) {
    return ResourceExhaustedError(
        StrFormat("minimal RG analysis exceeded cut-set budget (%zu x %zu products)", lhs.size(),
                  rhs.size()));
  }
  std::vector<RiskGroup> out;
  out.reserve(lhs.size() * rhs.size());
  for (const RiskGroup& a : lhs) {
    for (const RiskGroup& b : rhs) {
      RiskGroup merged = UnionOf(a, b);
      if (merged.size() <= options.max_rg_size) {
        out.push_back(std::move(merged));
      } else {
        *pruned = true;
      }
    }
  }
  return OracleMinimize(std::move(out));
}

}  // namespace

std::vector<RiskGroup> OracleMinimize(std::vector<RiskGroup> groups) {
  std::sort(groups.begin(), groups.end(), [](const RiskGroup& a, const RiskGroup& b) {
    if (a.size() != b.size()) {
      return a.size() < b.size();
    }
    return a < b;
  });
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  std::vector<RiskGroup> minimal;
  for (RiskGroup& candidate : groups) {
    bool absorbed = false;
    // `minimal` is size-ascending (candidates arrive in size order); only
    // strictly smaller groups can be proper subsets, and equal-size
    // duplicates were removed above — so stop at the first same-size entry.
    for (const RiskGroup& kept : minimal) {
      if (kept.size() >= candidate.size()) {
        break;
      }
      if (IsSubsetOf(kept, candidate)) {
        absorbed = true;
        break;
      }
    }
    if (!absorbed) {
      minimal.push_back(std::move(candidate));
    }
  }
  return minimal;
}

Result<MinimalRgResult> OracleMinimalRiskGroups(const FaultGraph& graph,
                                                const MinimalRgOptions& options) {
  if (!graph.validated()) {
    return FailedPreconditionError("OracleMinimalRiskGroups: graph not validated");
  }
  MinimalRgResult result;
  // Per-node cut set lists, built in topological (children-first) order.
  std::vector<std::vector<RiskGroup>> cut_sets(graph.NodeCount());
  for (NodeId id : graph.TopologicalOrder()) {
    const FaultNode& node = graph.node(id);
    std::vector<RiskGroup>& mine = cut_sets[id];
    switch (node.gate) {
      case GateType::kBasic:
        mine.push_back(RiskGroup{id});
        break;
      case GateType::kOr: {
        for (NodeId child : node.children) {
          mine.insert(mine.end(), cut_sets[child].begin(), cut_sets[child].end());
        }
        mine = OracleMinimize(std::move(mine));
        break;
      }
      case GateType::kAnd: {
        mine = cut_sets[node.children[0]];
        for (size_t i = 1; i < node.children.size() && !mine.empty(); ++i) {
          INDAAS_ASSIGN_OR_RETURN(
              mine, CombineAnd(mine, cut_sets[node.children[i]], options, &result.size_bounded));
        }
        if (mine.empty()) {
          // All products exceeded the size bound: no cut sets within bound.
          result.size_bounded = true;
        }
        break;
      }
      case GateType::kKofN: {
        // Cut sets of a k-of-n gate: for every k-subset of children, the AND
        // combination of their cut sets; union over subsets.
        std::vector<RiskGroup> acc;
        const size_t n = node.children.size();
        const uint32_t k = node.k;
        std::vector<size_t> pick(k);
        for (uint32_t i = 0; i < k; ++i) {
          pick[i] = i;
        }
        for (;;) {
          std::vector<RiskGroup> product = cut_sets[node.children[pick[0]]];
          for (uint32_t i = 1; i < k && !product.empty(); ++i) {
            INDAAS_ASSIGN_OR_RETURN(product,
                                    CombineAnd(product, cut_sets[node.children[pick[i]]], options,
                                               &result.size_bounded));
          }
          acc.insert(acc.end(), product.begin(), product.end());
          // Next k-combination.
          int pos = static_cast<int>(k) - 1;
          while (pos >= 0 && pick[pos] == n - k + static_cast<size_t>(pos)) {
            --pos;
          }
          if (pos < 0) {
            break;
          }
          ++pick[pos];
          for (size_t i = static_cast<size_t>(pos) + 1; i < k; ++i) {
            pick[i] = pick[i - 1] + 1;
          }
        }
        mine = OracleMinimize(std::move(acc));
        break;
      }
    }
    if (mine.size() > options.max_cut_sets_per_node) {
      return ResourceExhaustedError(
          StrFormat("node '%s' accumulated %zu cut sets (budget %zu)", node.name.c_str(),
                    mine.size(), options.max_cut_sets_per_node));
    }
    if (options.max_rg_size != SIZE_MAX) {
      size_t before = mine.size();
      mine.erase(std::remove_if(mine.begin(), mine.end(),
                                [&](const RiskGroup& rg) {
                                  return rg.size() > options.max_rg_size;
                                }),
                 mine.end());
      if (mine.size() != before) {
        result.size_bounded = true;
      }
    }
  }
  result.groups = OracleMinimize(std::move(cut_sets[graph.top_event()]));
  return result;
}

bool IsSubsetOf(const RiskGroup& a, const RiskGroup& b) {
  if (a.size() > b.size()) {
    return false;
  }
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

bool FailsTopEvent(const FaultGraph& graph, const RiskGroup& group) {
  std::vector<uint8_t> state(graph.NodeCount(), 0);
  for (NodeId id : group) {
    state[id] = 1;
  }
  return graph.Evaluate(state);
}

bool IsMinimalRiskGroup(const FaultGraph& graph, const RiskGroup& group) {
  if (group.empty() || !FailsTopEvent(graph, group)) {
    return false;
  }
  for (size_t drop = 0; drop < group.size(); ++drop) {
    RiskGroup reduced;
    reduced.reserve(group.size() - 1);
    for (size_t i = 0; i < group.size(); ++i) {
      if (i != drop) {
        reduced.push_back(group[i]);
      }
    }
    if (FailsTopEvent(graph, reduced)) {
      return false;
    }
  }
  return true;
}

}  // namespace indaas
