// Property-based tests: randomized cross-validation of the core algorithms
// against brute force and against each other, parameterized over seeds and
// sizes (TEST_P sweeps).

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/bignum/modular.h"
#include "src/bignum/prime.h"
#include "src/deps/depdb.h"
#include "src/graph/fault_graph.h"
#include "src/graph/levels.h"
#include "src/obs/metrics.h"
#include "src/pia/jaccard.h"
#include "src/pia/psop.h"
#include "src/sia/builder.h"
#include "src/sia/ranking.h"
#include "src/sia/risk_groups.h"
#include "src/sia/sampling.h"
#include "src/topology/fat_tree.h"
#include "src/util/rng.h"
#include "tests/rg_oracle.h"

namespace indaas {
namespace {

// --- Random fault graph generation ---

// A random DAG over `num_basic` basic events and `num_gates` gates; gates
// draw 2-4 children from all earlier nodes (so subgraphs are shared), gate
// types are uniform over OR / AND / k-of-n. The final gate is the top event.
FaultGraph RandomFaultGraph(Rng& rng, size_t num_basic, size_t num_gates) {
  FaultGraph graph;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < num_basic; ++i) {
    nodes.push_back(
        graph.AddBasicEvent("b" + std::to_string(i), 0.05 + rng.NextDouble() * 0.3));
  }
  for (size_t g = 0; g < num_gates; ++g) {
    size_t fanin = 2 + rng.NextBelow(3);
    std::vector<NodeId> children;
    std::set<NodeId> used;
    for (size_t c = 0; c < fanin; ++c) {
      NodeId child = nodes[rng.NextBelow(nodes.size())];
      if (used.insert(child).second) {
        children.push_back(child);
      }
    }
    std::string name = "g" + std::to_string(g);
    NodeId gate;
    switch (rng.NextBelow(3)) {
      case 0:
        gate = graph.AddGate(name, GateType::kOr, children);
        break;
      case 1:
        gate = graph.AddGate(name, GateType::kAnd, children);
        break;
      default: {
        uint32_t k = 1 + static_cast<uint32_t>(rng.NextBelow(children.size()));
        gate = graph.AddKofNGate(name, k, children);
        break;
      }
    }
    nodes.push_back(gate);
  }
  graph.SetTopEvent(nodes.back());
  EXPECT_TRUE(graph.Validate().ok());
  return graph;
}

// Brute force: all minimal failing subsets of basic events, by exhaustive
// enumeration (monotone gates => a failing set is minimal iff no
// one-element-removed subset fails).
std::set<RiskGroup> BruteForceMinimalGroups(const FaultGraph& graph) {
  const auto& basics = graph.BasicEvents();
  const size_t n = basics.size();
  EXPECT_LE(n, 20u) << "brute force limited to 20 basic events";
  std::vector<uint8_t> state(graph.NodeCount(), 0);
  std::vector<uint8_t> fails(1u << n, 0);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    for (size_t i = 0; i < n; ++i) {
      state[basics[i]] = (mask >> i) & 1;
    }
    fails[mask] = graph.Evaluate(state) ? 1 : 0;
  }
  std::set<RiskGroup> minimal;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (!fails[mask]) {
      continue;
    }
    bool is_minimal = true;
    for (size_t i = 0; i < n && is_minimal; ++i) {
      if (((mask >> i) & 1) && fails[mask & ~(1u << i)]) {
        is_minimal = false;
      }
    }
    if (is_minimal) {
      RiskGroup group;
      for (size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) {
          group.push_back(basics[i]);
        }
      }
      minimal.insert(std::move(group));
    }
  }
  return minimal;
}

// --- Minimal RG algorithm vs brute force, swept over seeds ---

class MinimalRgVsBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinimalRgVsBruteForceTest, ExactMatch) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    size_t num_basic = 3 + rng.NextBelow(8);   // 3..10
    size_t num_gates = 2 + rng.NextBelow(6);   // 2..7
    FaultGraph graph = RandomFaultGraph(rng, num_basic, num_gates);
    std::set<RiskGroup> truth = BruteForceMinimalGroups(graph);
    auto computed = ComputeMinimalRiskGroups(graph);
    ASSERT_TRUE(computed.ok());
    std::set<RiskGroup> got(computed->groups.begin(), computed->groups.end());
    EXPECT_EQ(got, truth) << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimalRgVsBruteForceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- Bitset engine vs the test oracle, swept over seeds and options ---
//
// The engine must match the oracle (tests/rg_oracle.h) byte for byte: same
// groups in the same order and the same size_bounded flag, for every size
// bound and thread count.

class RgEngineParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RgEngineParityTest, BitsetMatchesOracle) {
  Rng rng(GetParam() * 6151);
  for (int trial = 0; trial < 15; ++trial) {
    size_t num_basic = 3 + rng.NextBelow(10);  // 3..12
    size_t num_gates = 2 + rng.NextBelow(7);   // 2..8
    FaultGraph graph = RandomFaultGraph(rng, num_basic, num_gates);
    for (size_t max_rg_size : {SIZE_MAX, size_t{3}}) {
      MinimalRgOptions options;
      options.max_rg_size = max_rg_size;
      auto expected = OracleMinimalRiskGroups(graph, options);
      ASSERT_TRUE(expected.ok());
      for (size_t threads : {size_t{1}, size_t{4}}) {
        options.threads = threads;
        auto got = ComputeMinimalRiskGroups(graph, options);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->groups, expected->groups)
            << "seed " << GetParam() << " trial " << trial << " bound " << max_rg_size
            << " threads " << threads;
        EXPECT_EQ(got->size_bounded, expected->size_bounded)
            << "seed " << GetParam() << " trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RgEngineParityTest, ::testing::Range<uint64_t>(1, 9));

// Every group the engine or the oracle emits on an unbounded run is truly
// minimal by direct graph evaluation.
TEST(RgEngineParityTest, EmittedGroupsAreTrulyMinimal) {
  Rng rng(4057);
  for (int trial = 0; trial < 10; ++trial) {
    FaultGraph graph = RandomFaultGraph(rng, 3 + rng.NextBelow(7), 2 + rng.NextBelow(5));
    auto engine = ComputeMinimalRiskGroups(graph);
    auto oracle = OracleMinimalRiskGroups(graph);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(oracle.ok());
    for (const auto* result : {&*engine, &*oracle}) {
      for (const RiskGroup& group : result->groups) {
        EXPECT_TRUE(IsMinimalRiskGroup(graph, group))
            << "trial " << trial << (result == &*engine ? " engine" : " oracle");
      }
    }
  }
}

// --- Engine parity at real scale ---
//
// The random graphs above have at most 12 basic events: one bitset word, and
// batches small enough for absorption's quadratic dedup scan. The inputs
// below cross 64 basic events, so they reach the second word, the
// fingerprint table and the key-bit survivor index.

// Asserts the engine at 1 and 4 threads returns exactly what the oracle
// returns under `options`.
void ExpectMatchesOracle(const FaultGraph& graph, MinimalRgOptions options) {
  auto expected = OracleMinimalRiskGroups(graph, options);
  ASSERT_TRUE(expected.ok());
  for (size_t threads : {size_t{1}, size_t{4}}) {
    options.threads = threads;
    auto got = ComputeMinimalRiskGroups(graph, options);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->groups, expected->groups) << "threads " << threads;
    EXPECT_EQ(got->size_bounded, expected->size_bounded);
  }
}

// Deployment fault graph of `servers` hosts in distinct pods of a k=8 fat
// tree, each with all 16 routes to the Internet. With `software`, every host
// also has the fleet's one disk model and runs one program on 38 fleet-wide
// packages (common-mode dependencies, as in the paper's case studies), which
// puts even two hosts past 64 basic events. A nonzero `required_servers`
// makes the top event k-of-n instead of AND.
FaultGraph FatTreeDeployment(size_t servers, bool software, uint32_t required_servers = 0) {
  auto topo = BuildFatTree(8);
  EXPECT_TRUE(topo.ok());
  auto internet = topo->FindDevice("Internet");
  EXPECT_TRUE(internet.ok());
  DepDb db;
  std::vector<std::string> deployment;
  for (size_t i = 0; i < servers; ++i) {
    const std::string host = "pod" + std::to_string(i) + "-srv0-0";
    auto device = topo->FindDevice(host);
    EXPECT_TRUE(device.ok());
    for (const NetworkDependency& route : topo->NetworkDependencies(*device, *internet, 16)) {
      db.Add(route);
    }
    if (software) {
      db.Add(HardwareDependency{host, "Disk", "disk-m1"});
      std::vector<std::string> packages;
      for (int p = 0; p < 38; ++p) {
        packages.push_back("lib" + std::to_string(p) + "=1");
      }
      db.Add(SoftwareDependency{"kvstore", host, packages});
    }
    deployment.push_back(host);
  }
  BuildOptions options;
  options.required_servers = required_servers;
  auto graph = BuildDeploymentFaultGraph(db, deployment, options);
  EXPECT_TRUE(graph.ok());
  return std::move(*graph);
}

// Top event = OR over one AND gate per group, so the graph's minimal RGs are
// MinimizeRiskGroups(groups). Groups are sorted ids of basic events 0..n-1.
FaultGraph OrOfGroups(size_t num_basic, const std::vector<RiskGroup>& groups) {
  FaultGraph graph;
  for (size_t i = 0; i < num_basic; ++i) {
    graph.AddBasicEvent("b" + std::to_string(i), 0.1);
  }
  std::vector<NodeId> terms;
  for (size_t g = 0; g < groups.size(); ++g) {
    terms.push_back(graph.AddGate("and" + std::to_string(g), GateType::kAnd, groups[g]));
  }
  graph.SetTopEvent(graph.AddGate("top", GateType::kOr, terms));
  EXPECT_TRUE(graph.Validate().ok());
  return graph;
}

// Up to 5 servers: the oracle's cost grows about 10x per added server.
TEST(RgEngineScaleParityTest, FatTreeDeploymentsMatchOracle) {
  for (size_t servers : {2, 3, 4, 5}) {
    SCOPED_TRACE("servers " + std::to_string(servers));
    FaultGraph graph = FatTreeDeployment(servers, /*software=*/true);
    EXPECT_GT(graph.BasicEvents().size(), 64u);
    ExpectMatchesOracle(graph, MinimalRgOptions{});
    MinimalRgOptions bounded;
    bounded.max_rg_size = 3;
    ExpectMatchesOracle(graph, bounded);
  }
}

// A k-of-n top event (the deployment survives while `required` servers are
// up): 3-of-4 takes the general k-subset path, 3-of-3 the single product.
TEST(RgEngineScaleParityTest, KofNTopDeploymentsMatchOracle) {
  for (auto [servers, required] : {std::pair<size_t, uint32_t>{4, 2}, {3, 1}}) {
    SCOPED_TRACE("servers " + std::to_string(servers) + " required " + std::to_string(required));
    FaultGraph graph = FatTreeDeployment(servers, /*software=*/true, required);
    ASSERT_EQ(graph.node(graph.top_event()).gate, GateType::kKofN);
    ExpectMatchesOracle(graph, MinimalRgOptions{});
    MinimalRgOptions bounded;
    bounded.max_rg_size = 3;
    ExpectMatchesOracle(graph, bounded);
  }
}

// Every group holds basic events 0..63, so all rows share their low word and
// differ only in the high one — where RowFingerprint's low bits cannot tell
// them apart.
TEST(RgEngineScaleParityTest, RowsDifferingOnlyInTheHighWord) {
  Rng rng(977);
  std::vector<RiskGroup> groups;
  for (int g = 0; g < 400; ++g) {
    std::set<NodeId> high;
    const size_t extra = 1 + rng.NextBelow(3);
    while (high.size() < extra) {
      high.insert(static_cast<NodeId>(64 + rng.NextBelow(64)));
    }
    RiskGroup group;
    for (NodeId id = 0; id < 64; ++id) {
      group.push_back(id);
    }
    group.insert(group.end(), high.begin(), high.end());
    groups.push_back(std::move(group));
  }
  FaultGraph graph = OrOfGroups(128, groups);
  ExpectMatchesOracle(graph, MinimalRgOptions{});
  EXPECT_EQ(MinimizeRiskGroups(groups), OracleMinimalRiskGroups(graph)->groups);
  EXPECT_EQ(MinimizeRiskGroups(groups), OracleMinimize(groups));
}

// 300 rows drawn from 40 distinct sets of 2..7 events over 90 events: every
// set recurs, and the copies are interleaved with rows of other popcounts.
TEST(RgEngineScaleParityTest, DuplicatesSpreadAcrossPopcountLevels) {
  Rng rng(4243);
  std::vector<RiskGroup> distinct;
  for (int d = 0; d < 40; ++d) {
    std::set<NodeId> members;
    const size_t size = 2 + rng.NextBelow(6);
    while (members.size() < size) {
      members.insert(static_cast<NodeId>(rng.NextBelow(90)));
    }
    distinct.emplace_back(members.begin(), members.end());
  }
  std::vector<RiskGroup> groups;
  for (int g = 0; g < 300; ++g) {
    groups.push_back(distinct[rng.NextBelow(distinct.size())]);
  }
  FaultGraph graph = OrOfGroups(90, groups);
  ExpectMatchesOracle(graph, MinimalRgOptions{});
  EXPECT_EQ(MinimizeRiskGroups(groups), OracleMinimalRiskGroups(graph)->groups);
  EXPECT_EQ(MinimizeRiskGroups(groups), OracleMinimize(groups));
}

// The engine starts its pool only for work that pays for it: a four-server
// deployment (a served audit's size) runs entirely on the calling thread,
// while a six-server one shards its largest absorption levels. Both stay
// byte-identical to the single-threaded result.
TEST(RgEngineScaleParityTest, PoolStartsOnlyForLargeAbsorptions) {
  obs::Counter* tasks = obs::MetricsRegistry::Global().GetCounter("threadpool.tasks_total");
  for (size_t servers : {4, 6}) {
    SCOPED_TRACE("servers " + std::to_string(servers));
    FaultGraph graph = FatTreeDeployment(servers, /*software=*/servers == 4);
    MinimalRgOptions options;
    options.threads = 1;
    auto serial = ComputeMinimalRiskGroups(graph, options);
    ASSERT_TRUE(serial.ok());
    options.threads = 4;
    const uint64_t before = tasks->Value();
    auto sharded = ComputeMinimalRiskGroups(graph, options);
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ(sharded->groups, serial->groups);
    if (servers == 4) {
      EXPECT_EQ(tasks->Value(), before);
    } else {
      EXPECT_GT(tasks->Value(), before);
    }
  }
}

// --- Sampling soundness & convergence on random graphs ---

class SamplingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplingPropertyTest, ShrunkGroupsAreMinimalAndConverge) {
  Rng rng(GetParam() * 7919);
  FaultGraph graph = RandomFaultGraph(rng, 3 + rng.NextBelow(6), 2 + rng.NextBelow(5));
  std::set<RiskGroup> truth = BruteForceMinimalGroups(graph);
  SamplingOptions options;
  options.rounds = 30000;
  options.failure_bias = 0.35;
  options.shrink = ShrinkMode::kGreedy;
  options.seed = GetParam();
  auto sampled = SampleRiskGroups(graph, options);
  ASSERT_TRUE(sampled.ok());
  for (const RiskGroup& group : sampled->groups) {
    EXPECT_TRUE(IsMinimalRiskGroup(graph, group)) << "seed " << GetParam();
    EXPECT_EQ(truth.count(group), 1u);
  }
  // With generous rounds on tiny graphs, sampling should find everything
  // (or the top event never fails and truth is empty).
  if (!truth.empty()) {
    EXPECT_EQ(sampled->groups.size(), truth.size()) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplingPropertyTest, ::testing::Range<uint64_t>(1, 11));

// --- Inclusion-exclusion vs Monte Carlo on random weighted graphs ---

class ProbabilityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProbabilityPropertyTest, ExactMatchesMonteCarlo) {
  Rng rng(GetParam() * 104729);
  FaultGraph graph = RandomFaultGraph(rng, 3 + rng.NextBelow(5), 2 + rng.NextBelow(4));
  auto groups = ComputeMinimalRiskGroups(graph);
  ASSERT_TRUE(groups.ok());
  if (groups->groups.empty() || groups->groups.size() > 16) {
    GTEST_SKIP() << "degenerate graph";
  }
  double exact = TopEventProbabilityExact(graph, groups->groups, 0.1);
  Rng mc_rng(GetParam());
  double mc = TopEventProbabilityMonteCarlo(graph, 0.1, 300000, mc_rng);
  EXPECT_NEAR(exact, mc, 0.01) << "seed " << GetParam();
  EXPECT_GE(exact, -1e-12);
  EXPECT_LE(exact, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbabilityPropertyTest, ::testing::Range<uint64_t>(1, 9));

// --- MinimizeRiskGroups properties ---

TEST(MinimizePropertyTest, IdempotentAndSound) {
  Rng rng(333);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<RiskGroup> raw;
    size_t count = 1 + rng.NextBelow(40);
    for (size_t i = 0; i < count; ++i) {
      RiskGroup group;
      size_t size = 1 + rng.NextBelow(5);
      for (size_t j = 0; j < size; ++j) {
        group.push_back(static_cast<NodeId>(rng.NextBelow(10)));
      }
      std::sort(group.begin(), group.end());
      group.erase(std::unique(group.begin(), group.end()), group.end());
      raw.push_back(std::move(group));
    }
    auto minimized = MinimizeRiskGroups(raw);
    EXPECT_EQ(minimized, OracleMinimize(raw)) << "trial " << trial;
    // Idempotence.
    EXPECT_EQ(MinimizeRiskGroups(minimized), minimized);
    // No survivor is a superset of another survivor.
    for (size_t a = 0; a < minimized.size(); ++a) {
      for (size_t b = 0; b < minimized.size(); ++b) {
        if (a != b) {
          EXPECT_FALSE(IsSubsetOf(minimized[a], minimized[b]))
              << "trial " << trial << ": survivor absorbed by survivor";
        }
      }
    }
    // Every input is a superset of some survivor; every survivor was input.
    std::set<RiskGroup> input_set(raw.begin(), raw.end());
    for (const RiskGroup& group : minimized) {
      EXPECT_EQ(input_set.count(group), 1u);
    }
    for (const RiskGroup& group : raw) {
      bool covered = false;
      for (const RiskGroup& survivor : minimized) {
        if (IsSubsetOf(survivor, group)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered);
    }
  }
}

// --- Downgrade consistency ---

TEST(DowngradePropertyTest, ComponentSetRoundTripPreservesMinimalGroups) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ComponentSet> sets;
    size_t sources = 2 + rng.NextBelow(3);
    for (size_t s = 0; s < sources; ++s) {
      ComponentSet set{"E" + std::to_string(s), {}};
      size_t width = 1 + rng.NextBelow(4);
      for (size_t c = 0; c < width; ++c) {
        set.components.push_back("C" + std::to_string(rng.NextBelow(8)));
      }
      NormalizeComponentSet(set);
      sets.push_back(std::move(set));
    }
    auto graph = BuildFromComponentSets(sets);
    ASSERT_TRUE(graph.ok());
    auto downgraded = DowngradeToComponentSets(*graph);
    ASSERT_TRUE(downgraded.ok());
    auto rebuilt = BuildFromComponentSets(*downgraded);
    ASSERT_TRUE(rebuilt.ok());
    auto original_groups = ComputeMinimalRiskGroups(*graph);
    auto rebuilt_groups = ComputeMinimalRiskGroups(*rebuilt);
    ASSERT_TRUE(original_groups.ok());
    ASSERT_TRUE(rebuilt_groups.ok());
    // Compare by component names (node ids differ between builds).
    auto names = [](const FaultGraph& g, const std::vector<RiskGroup>& groups) {
      std::set<std::set<std::string>> out;
      for (const RiskGroup& group : groups) {
        std::set<std::string> one;
        for (NodeId id : group) {
          one.insert(g.node(id).name);
        }
        out.insert(std::move(one));
      }
      return out;
    };
    EXPECT_EQ(names(*graph, original_groups->groups), names(*rebuilt, rebuilt_groups->groups))
        << "trial " << trial;
  }
}

// --- Bignum algebraic properties swept over bit sizes ---

class BignumPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BignumPropertyTest, RingAxiomsAndModExpHomomorphism) {
  const size_t bits = GetParam();
  Rng rng(bits);
  for (int trial = 0; trial < 20; ++trial) {
    BigUint a = RandomWithBits(bits, rng);
    BigUint b = RandomWithBits(bits / 2 + 1, rng);
    // Subtraction inverts addition.
    EXPECT_EQ(a.Add(b).Sub(b), a);
    // Division inverts multiplication.
    EXPECT_EQ(a.Mul(b).Div(b), a);
    EXPECT_TRUE(a.Mul(b).Mod(b).IsZero());
  }
  // a^(x+y) == a^x * a^y (mod p).
  auto p = GeneratePrime(std::min<size_t>(bits, 128), rng);
  ASSERT_TRUE(p.ok());
  for (int trial = 0; trial < 10; ++trial) {
    BigUint base = RandomBelow(*p, rng);
    BigUint x = RandomWithBits(40, rng);
    BigUint y = RandomWithBits(40, rng);
    auto lhs = ModExp(base, x.Add(y), *p);
    auto rx = ModExp(base, x, *p);
    auto ry = ModExp(base, y, *p);
    ASSERT_TRUE(lhs.ok());
    ASSERT_TRUE(rx.ok());
    ASSERT_TRUE(ry.ok());
    EXPECT_EQ(*lhs, ModMul(*rx, *ry, *p));
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, BignumPropertyTest,
                         ::testing::Values(16, 33, 64, 65, 128, 257, 512, 1024));

// --- P-SOP agrees with plaintext Jaccard, swept over party counts ---

class PsopPartyCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PsopPartyCountTest, MatchesPlaintext) {
  const size_t k = GetParam();
  Rng rng(k * 31);
  std::vector<std::vector<std::string>> sets(k);
  for (size_t i = 0; i < k; ++i) {
    size_t count = 4 + rng.NextBelow(10);
    std::set<std::string> unique;
    for (size_t j = 0; j < count; ++j) {
      unique.insert("c" + std::to_string(rng.NextBelow(20)));
    }
    sets[i].assign(unique.begin(), unique.end());
  }
  auto plain = JaccardSimilarity(sets);
  ASSERT_TRUE(plain.ok());
  PsopOptions options;
  options.group_bits = 768;
  options.seed = k;
  auto result = RunPsop(sets, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->jaccard, *plain, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Parties, PsopPartyCountTest, ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace indaas
