// Microbenchmark for minimal-risk-group enumeration (DESIGN.md §5): the
// servers curve of the cut-set engine on fat-tree deployment fault graphs.
// Emits one JSON object per line so successive PRs can track a
// BENCH_*.json trajectory:
//
//   {"bench":"rg_fat_tree_k8_s4_p16","ns_per_op":...,"groups":...}
//
// A row's load is set by the parameters in its name: a deployment of `s`
// servers in distinct pods of a k-port fat tree, each with `p` ECMP routes
// to the Internet. By default p is every equal-cost route, (k/2)^2, so k sets
// it; --paths caps it. One row per entry of --servers records the scaling
// curve along the servers axis (each added server multiplies the AND
// products). Output parity with the test oracle is the property tests' job
// (tests/property_test.cc), not this harness's.
//
// The same results are also written as one machine-readable JSON document
// (default BENCH_risk_groups.json, see --json-out) for tooling that prefers
// a single file over scraping stdout.
//
//   bench_risk_groups [--reps=5] [--ports=8] [--servers=3,4,5,6] [--paths=0]
//                     [--threads=0] [--json-out=BENCH_risk_groups.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/deps/depdb.h"
#include "src/sia/builder.h"
#include "src/sia/risk_groups.h"
#include "src/topology/fat_tree.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

using namespace indaas;

namespace {

// Deployment fault graph for `servers` servers spread over distinct pods of a
// k-port fat tree, each with `paths` ECMP routes to the Internet (the Fig. 7
// workload shape).
Result<FaultGraph> FatTreeDeploymentGraph(uint32_t ports, size_t servers, size_t paths) {
  INDAAS_ASSIGN_OR_RETURN(DataCenterTopology topo, BuildFatTree(ports));
  INDAAS_ASSIGN_OR_RETURN(DeviceId internet, topo.FindDevice("Internet"));
  DepDb db;
  std::vector<std::string> deployment;
  for (size_t i = 0; i < servers; ++i) {
    std::string name = StrFormat("pod%zu-srv0-0", i % ports);
    INDAAS_ASSIGN_OR_RETURN(DeviceId device, topo.FindDevice(name));
    for (const NetworkDependency& dep : topo.NetworkDependencies(device, internet, paths)) {
      db.Add(dep);
    }
    deployment.push_back(name);
  }
  return BuildDeploymentFaultGraph(db, deployment);
}

// One emitted measurement, mirrored into the --json-out document.
struct BenchRecord {
  std::string bench;
  std::string topology;
  size_t servers = 0;
  size_t paths = 0;
  double ns_per_op = 0.0;
  size_t groups = 0;
};

BenchRecord RunCase(const std::string& topology, const FaultGraph& graph, size_t servers,
                    size_t paths, size_t threads, size_t reps) {
  MinimalRgOptions options;
  options.threads = threads;
  size_t groups = 0;
  WallTimer timer;
  for (size_t r = 0; r < reps; ++r) {
    auto result = ComputeMinimalRiskGroups(graph, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    groups = result->groups.size();
  }
  BenchRecord record{StrFormat("rg_%s_s%zu_p%zu", topology.c_str(), servers, paths),
                     topology,
                     servers,
                     paths,
                     timer.ElapsedSeconds() * 1e9 / static_cast<double>(reps),
                     groups};
  std::printf("{\"bench\":\"%s\",\"ns_per_op\":%.0f,\"groups\":%zu}\n", record.bench.c_str(),
              record.ns_per_op, record.groups);
  return record;
}

std::string RecordsToJson(const std::vector<BenchRecord>& records, size_t reps, size_t threads) {
  std::string out = "{\n  \"benchmark\": \"risk_groups\",\n";
  out += StrFormat("  \"reps\": %zu,\n  \"threads\": %zu,\n  \"results\": [\n", reps, threads);
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out += StrFormat(
        "    {\"bench\": \"%s\", \"topology\": \"%s\", \"servers\": %zu, \"paths\": %zu, "
        "\"ns_per_op\": %.0f, \"ms_per_op\": %.6f, \"groups\": %zu}%s\n",
        r.bench.c_str(), r.topology.c_str(), r.servers, r.paths, r.ns_per_op, r.ns_per_op / 1e6,
        r.groups, i + 1 < records.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t reps = 5;
  int64_t ports = 8;
  std::string servers_list = "3,4,5,6";
  int64_t paths = 0;
  int64_t threads = 0;
  std::string json_out = "BENCH_risk_groups.json";
  FlagSet flags;
  flags.AddInt("reps", &reps, "repetitions per case");
  flags.AddInt("ports", &ports, "fat-tree switch ports k (even, >= 4)");
  flags.AddString("servers", &servers_list,
                  "comma-separated deployment sizes, one fat-tree row each");
  flags.AddInt("paths", &paths, "ECMP routes per server (0 = all (k/2)^2 of them)");
  flags.AddInt("threads", &threads, "engine worker threads (0 = hardware)");
  flags.AddString("json-out", &json_out, "machine-readable results file ('' = skip)");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<size_t> deployment_sizes;
  for (const std::string& field : SplitAndTrim(servers_list, ',')) {
    char* end = nullptr;
    const long value = std::strtol(field.c_str(), &end, 10);
    if (*end != '\0' || value < 1 || value > ports) {
      std::fprintf(stderr, "--servers: expected integers in [1, --ports], got '%s'\n",
                   field.c_str());
      return 1;
    }
    deployment_sizes.push_back(static_cast<size_t>(value));
  }
  if (reps < 1 || paths < 0 || deployment_sizes.empty()) {
    std::fprintf(stderr, "--reps must be >= 1, --paths >= 0 and --servers non-empty\n");
    return 1;
  }
  const size_t all_routes = static_cast<size_t>(ports / 2) * static_cast<size_t>(ports / 2);
  const size_t routes = paths == 0 ? all_routes : std::min(all_routes, static_cast<size_t>(paths));

  std::vector<BenchRecord> records;
  for (size_t servers : deployment_sizes) {
    auto graph = FatTreeDeploymentGraph(static_cast<uint32_t>(ports), servers, routes);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
      return 1;
    }
    records.push_back(RunCase(StrFormat("fat_tree_k%lld", static_cast<long long>(ports)), *graph,
                              servers, routes, static_cast<size_t>(threads),
                              static_cast<size_t>(reps)));
  }

  if (!json_out.empty()) {
    std::string doc =
        RecordsToJson(records, static_cast<size_t>(reps), static_cast<size_t>(threads));
    if (Status s = WriteFile(json_out, doc); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  return 0;
}
