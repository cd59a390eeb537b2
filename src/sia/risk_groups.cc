#include "src/sia/risk_groups.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sia/cutset.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace indaas {
namespace {

// Product counters (DESIGN.md §6), bumped once per AND product. The dedup
// and absorption counters belong to AbsorbMinimal (cutset.cc).
struct CutSetMetrics {
  obs::Counter* generated;    // AND products kept (within the size bound)
  obs::Counter* size_pruned;  // products dropped by max_rg_size
};

CutSetMetrics& Metrics() {
  static CutSetMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return CutSetMetrics{
        registry.GetCounter("sia.cutsets.generated"),
        registry.GetCounter("sia.cutsets.size_pruned"),
    };
  }();
  return metrics;
}

// Bottom-up cut sets over fixed-stride uint64_t rows (src/sia/cutset.h):
// arena storage, hash dedup + bucket-by-popcount absorption, and thread-pool
// sharding of large AND products and absorption levels. Results are
// byte-identical for every thread count: the surviving minimal set is
// unique, shards merge in chunk order, and the public RiskGroup form is
// canonically sorted at the API boundary.

// Products per shard of a parallel AND-product sweep. Fixed (never derived
// from the worker count) so shard boundaries — and thus the merged row
// order — are identical for every thread count.
constexpr size_t kProductGrain = 1024;
// A product sweep engages the pool only at this many output words (products
// × stride); below it, starting and feeding the pool costs more than the
// sweep saves.
constexpr size_t kParallelProductWork = size_t{1} << 20;

// Cartesian AND product over bitset rows: every union of one row from each
// side, minus those over max_rg_size (which set *pruned). Flat product index
// t maps to (t / |rhs|, t % |rhs|), so the sequential append order and the
// shard-merged order are the same sequence.
Status CombineAnd(const CutSetArena& lhs, const CutSetArena& rhs, const MinimalRgOptions& options,
                  CutSetArena* out, bool* pruned, LazyPool& lazy_pool) {
  const size_t stride = lhs.stride();
  out->Clear();
  if (lhs.size() * rhs.size() > 0 &&
      lhs.size() > options.max_cut_sets_per_node / std::max<size_t>(rhs.size(), 1)) {
    return ResourceExhaustedError(
        StrFormat("minimal RG analysis exceeded cut-set budget (%zu x %zu products)", lhs.size(),
                  rhs.size()));
  }
  const size_t total = lhs.size() * rhs.size();
  auto emit_range = [&](CutSetArena& dst, bool& dst_pruned, size_t begin, size_t end) {
    std::vector<uint64_t> merged(stride);
    for (size_t t = begin; t < end; ++t) {
      const uint64_t* a = lhs.row(t / rhs.size());
      const uint64_t* b = rhs.row(t % rhs.size());
      RowUnion(merged.data(), a, b, stride);
      if (options.max_rg_size == SIZE_MAX ||
          RowPopcount(merged.data(), stride) <= options.max_rg_size) {
        dst.AppendCopy(merged.data());
      } else {
        dst_pruned = true;
      }
    }
  };
  ThreadPool* pool = total * stride >= kParallelProductWork ? lazy_pool.Get() : nullptr;
  if (pool == nullptr) {
    out->Reserve(total);
    bool local_pruned = false;
    emit_range(*out, local_pruned, 0, total);
    if (local_pruned) {
      *pruned = true;
    }
  } else {
    const size_t chunks = (total + kProductGrain - 1) / kProductGrain;
    std::vector<CutSetArena> parts(chunks, CutSetArena(stride));
    std::vector<uint8_t> part_pruned(chunks, 0);
    pool->ParallelForChunked(total, kProductGrain, [&](size_t begin, size_t end) {
      const size_t chunk = begin / kProductGrain;
      parts[chunk].Reserve(end - begin);
      bool chunk_pruned = false;
      emit_range(parts[chunk], chunk_pruned, begin, end);
      part_pruned[chunk] = chunk_pruned ? 1 : 0;
    });
    size_t kept = 0;
    for (const CutSetArena& part : parts) {
      kept += part.size();
    }
    out->Reserve(kept);
    for (size_t c = 0; c < chunks; ++c) {
      out->AppendAll(parts[c]);
      if (part_pruned[c]) {
        *pruned = true;
      }
    }
  }
  Metrics().generated->Add(out->size());
  Metrics().size_pruned->Add(total - out->size());
  return Status::Ok();
}

// Minimal cut sets of a gate, from its children's (already minimal) ones.
// OR is 1-of-n and AND is n-of-n, so every gate is k-of-n: the union, over
// every k-subset of children, of the absorbed AND product of their cut sets.
Status GateCutSets(const FaultNode& node, const std::vector<CutSetArena>& cut_sets,
                   const MinimalRgOptions& options, CutSetArena* mine, bool* size_bounded,
                   LazyPool& lazy_pool) {
  const size_t n = node.children.size();
  const size_t k = node.gate == GateType::kOr ? 1 : node.gate == GateType::kAnd ? n : node.k;
  if (k == 1) {
    size_t total = 0;
    for (NodeId child : node.children) {
      total += cut_sets[child].size();
    }
    mine->Reserve(total);
  }
  std::vector<size_t> pick(k);
  for (size_t i = 0; i < k; ++i) {
    pick[i] = i;
  }
  CutSetArena product(mine->stride());
  CutSetArena next(mine->stride());
  for (;;) {
    const CutSetArena* rows = &cut_sets[node.children[pick[0]]];
    for (size_t i = 1; i < k && !rows->empty(); ++i) {
      INDAAS_RETURN_IF_ERROR(CombineAnd(*rows, cut_sets[node.children[pick[i]]], options, &next,
                                        size_bounded, lazy_pool));
      product = AbsorbMinimal(next, &lazy_pool);
      rows = &product;
    }
    mine->AppendAll(*rows);
    // Next k-combination.
    size_t pos = k;
    while (pos > 0 && pick[pos - 1] == n - k + pos - 1) {
      --pos;
    }
    if (pos == 0) {
      break;
    }
    ++pick[pos - 1];
    for (size_t i = pos; i < k; ++i) {
      pick[i] = pick[i - 1] + 1;
    }
  }
  // With k == n there is one product, and its rows are already minimal.
  if (k < n) {
    *mine = AbsorbMinimal(*mine, &lazy_pool);
  }
  return Status::Ok();
}

// Converts bitset rows to RiskGroups in the canonical order: size ascending,
// then lexicographic. Bit order is id order, so of two equal-size rows the
// one holding the lowest bit where they differ has the lexicographically
// smaller id list; sorting rows that way skips comparing the id vectors.
template <typename IdFor>
std::vector<RiskGroup> ToSortedGroups(const CutSetArena& rows, IdFor id_for) {
  const size_t stride = rows.stride();
  std::vector<std::pair<size_t, size_t>> order;  // (popcount, row)
  order.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    order.emplace_back(RowPopcount(rows.row(i), stride), i);
  }
  std::sort(order.begin(), order.end(), [&](const auto& x, const auto& y) {
    if (x.first != y.first) {
      return x.first < y.first;
    }
    const uint64_t* a = rows.row(x.second);
    const uint64_t* b = rows.row(y.second);
    for (size_t w = 0; w < stride; ++w) {
      if (const uint64_t diff = a[w] ^ b[w]; diff != 0) {
        return (a[w] & diff & -diff) != 0;
      }
    }
    return false;
  });
  std::vector<RiskGroup> groups;
  groups.reserve(order.size());
  for (const auto& [bits, i] : order) {
    RiskGroup& group = groups.emplace_back();
    group.reserve(bits);
    const uint64_t* row = rows.row(i);
    for (size_t w = 0; w < stride; ++w) {
      for (uint64_t word = row[w]; word != 0; word &= word - 1) {
        group.push_back(id_for(w * 64 + static_cast<size_t>(__builtin_ctzll(word))));
      }
    }
  }
  return groups;
}

}  // namespace

std::vector<RiskGroup> MinimizeRiskGroups(std::vector<RiskGroup> groups) {
  // Remap the distinct ids to dense bits, absorb word-wise, map back. The
  // sorted id universe keeps bit order == id order, so extracted groups come
  // out sorted.
  std::vector<NodeId> universe;
  for (const RiskGroup& group : groups) {
    universe.insert(universe.end(), group.begin(), group.end());
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());
  const size_t stride = std::max<size_t>(1, (universe.size() + 63) / 64);
  auto bit_for = [&](NodeId id) {
    return static_cast<size_t>(
        std::lower_bound(universe.begin(), universe.end(), id) - universe.begin());
  };
  CutSetArena arena(stride);
  arena.Reserve(groups.size());
  for (const RiskGroup& group : groups) {
    uint64_t* row = arena.AppendZero();
    for (NodeId id : group) {
      const size_t bit = bit_for(id);
      row[bit / 64] |= 1ULL << (bit % 64);
    }
  }
  return ToSortedGroups(AbsorbMinimal(arena, nullptr), [&](size_t bit) { return universe[bit]; });
}

Result<MinimalRgResult> ComputeMinimalRiskGroups(const FaultGraph& graph,
                                                 const MinimalRgOptions& options) {
  if (!graph.validated()) {
    return FailedPreconditionError("ComputeMinimalRiskGroups: graph not validated");
  }
  INDAAS_TRACE_SPAN_NAMED(span, "sia.enumerate");
  MinimalRgResult result;
  EventIndex index(graph);
  const size_t stride = index.stride();
  LazyPool lazy_pool(options.threads);
  // Per-node minimal cut sets, built in topological (children-first) order.
  std::vector<CutSetArena> cut_sets(graph.NodeCount(), CutSetArena(stride));
  for (NodeId id : graph.TopologicalOrder()) {
    const FaultNode& node = graph.node(id);
    CutSetArena& mine = cut_sets[id];
    switch (node.gate) {
      case GateType::kBasic: {
        uint64_t* row = mine.AppendZero();
        const size_t bit = index.BitFor(id);
        row[bit / 64] |= 1ULL << (bit % 64);
        break;
      }
      case GateType::kOr:
      case GateType::kAnd:
      case GateType::kKofN:
        INDAAS_RETURN_IF_ERROR(
            GateCutSets(node, cut_sets, options, &mine, &result.size_bounded, lazy_pool));
        break;
    }
    if (mine.size() > options.max_cut_sets_per_node) {
      return ResourceExhaustedError(
          StrFormat("node '%s' accumulated %zu cut sets (budget %zu)", node.name.c_str(),
                    mine.size(), options.max_cut_sets_per_node));
    }
    if (options.max_rg_size != SIZE_MAX) {
      CutSetArena within(stride);
      within.Reserve(mine.size());
      for (size_t i = 0; i < mine.size(); ++i) {
        if (RowPopcount(mine.row(i), stride) <= options.max_rg_size) {
          within.AppendCopy(mine.row(i));
        }
      }
      if (within.size() != mine.size()) {
        result.size_bounded = true;
        mine = std::move(within);
      }
    }
  }
  result.groups = ToSortedGroups(cut_sets[graph.top_event()],
                                 [&](size_t bit) { return index.IdFor(bit); });
  span.Annotate("groups", std::to_string(result.groups.size()));
  return result;
}

}  // namespace indaas
