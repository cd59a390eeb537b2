#include "perfbench/inputs.h"

#include <algorithm>
#include <cstdio>

#include "src/deps/depdb.h"
#include "src/topology/fat_tree.h"
#include "src/util/rng.h"

namespace perfbench {

using indaas::DepDb;
using indaas::HardwareDependency;
using indaas::NetworkDependency;
using indaas::Rng;
using indaas::SoftwareDependency;

namespace {

template <typename... Args>
std::string Format(const char* format, Args... args) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), format, args...);
  return buffer;
}

// The first `count` entries of a seeded permutation of [0, n).
std::vector<size_t> Sample(Rng& rng, size_t n, size_t count) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) {
    all[i] = i;
  }
  rng.Shuffle(all);
  all.resize(std::min(count, n));
  return all;
}

// Hardware and software records of one host: a disk and one program with
// one package. Callers share models and versions either across the whole
// fleet or within a pod/rack, never partly: with partial sharing the number
// of minimal risk groups of a deployment depends on which hosts the seed
// draws, and so would the work per op.
void AddHostRecords(DepDb& db, const std::string& host, size_t model) {
  db.Add(HardwareDependency{host, "Disk", Format("disk-m%03zu", model)});
  db.Add(SoftwareDependency{"kvstore", host, {Format("libc6=2.%03zu", model)}});
}

// Table-1 text of the records of `hosts` only (in `db` order).
std::string ExportHosts(const DepDb& db, const std::vector<std::string>& hosts, size_t* records) {
  DepDb subset;
  for (const std::string& host : hosts) {
    for (const NetworkDependency& route : db.RoutesFrom(host)) {
      subset.Add(route);
    }
    for (const HardwareDependency& hw : db.HardwareOf(host)) {
      subset.Add(hw);
    }
    for (const SoftwareDependency& sw : db.SoftwareOn(host)) {
      subset.Add(sw);
    }
  }
  *records = subset.TotalCount();
  return subset.ExportText();
}

}  // namespace

indaas::Result<AuditInputs> MakeFatTreeInputs(uint64_t seed, uint32_t ports,
                                              size_t servers_per_pod, size_t deployment_servers,
                                              size_t deployments, size_t specs) {
  INDAAS_ASSIGN_OR_RETURN(indaas::DataCenterTopology topo, indaas::BuildFatTree(ports));
  INDAAS_ASSIGN_OR_RETURN(indaas::DeviceId internet, topo.FindDevice("Internet"));
  const uint32_t half = ports / 2;
  if (servers_per_pod > static_cast<size_t>(half) * half || deployment_servers > ports) {
    return indaas::InvalidArgumentError("fat tree too small for the requested servers");
  }
  Rng rng(seed ^ 0xFA7714EEULL);
  DepDb db;
  std::vector<std::vector<std::string>> pod_servers(ports);
  // One disk model and libc version for the whole fleet: a common-mode
  // dependency of every deployment, as in the paper's case studies.
  const size_t model = rng.NextBelow(1000);
  for (uint32_t pod = 0; pod < ports; ++pod) {
    for (size_t slot : Sample(rng, static_cast<size_t>(half) * half, servers_per_pod)) {
      const uint32_t tor = static_cast<uint32_t>(slot / half);
      const std::string name =
          Format("pod%u-srv%u-%u", pod, tor, static_cast<uint32_t>(slot % half));
      INDAAS_ASSIGN_OR_RETURN(indaas::DeviceId device, topo.FindDevice(name));
      // Every equal-cost route: (k/2)^2 of them, so work grows with k.
      for (const NetworkDependency& route :
           topo.NetworkDependencies(device, internet, static_cast<size_t>(half) * half)) {
        db.Add(route);
      }
      AddHostRecords(db, name, model);
      pod_servers[pod].push_back(name);
    }
  }
  AuditInputs inputs;
  inputs.depdb_text = db.ExportText();
  inputs.depdb_records = db.TotalCount();
  for (size_t s = 0; s < specs; ++s) {
    indaas::AuditSpecification spec;
    for (size_t d = 0; d < deployments; ++d) {
      std::vector<std::string> servers;
      for (size_t pod : Sample(rng, ports, deployment_servers)) {
        servers.push_back(pod_servers[pod][rng.NextBelow(pod_servers[pod].size())]);
      }
      spec.candidate_deployments.push_back(std::move(servers));
    }
    inputs.specs.push_back(std::move(spec));
  }
  return inputs;
}

AuditInputs MakeMixedInputs(uint64_t seed, size_t servers, size_t paths, size_t fragment_servers,
                            size_t specs) {
  constexpr size_t kRackSize = 8;
  Rng rng(seed ^ 0x5C0FFEEULL);
  DepDb db;
  std::vector<std::string> names;
  const size_t racks = (servers + kRackSize - 1) / kRackSize;
  const std::vector<size_t> models = Sample(rng, racks, racks);  // one per rack
  for (size_t i = 0; i < servers; ++i) {
    const std::string name = Format("mx-srv-%04zu", i);
    const std::string tor = Format("mx-tor-%03zu", i / kRackSize);
    for (size_t path = 0; path < paths; ++path) {
      db.Add(NetworkDependency{
          name, "Internet", {tor, Format("mx-agg-%02zu", path), Format("mx-core-%02zu", path)}});
    }
    AddHostRecords(db, name, models[i / kRackSize]);
    names.push_back(name);
  }
  AuditInputs inputs;
  inputs.depdb_text = db.ExportText();
  inputs.depdb_records = db.TotalCount();
  const std::vector<std::string> fragment_hosts(
      names.begin(), names.begin() + std::min(fragment_servers, servers));
  inputs.fragment_text = ExportHosts(db, fragment_hosts, &inputs.fragment_records);
  for (size_t s = 0; s < specs; ++s) {
    indaas::AuditSpecification spec;
    for (int d = 0; d < 2; ++d) {
      std::vector<std::string> deployment;
      for (size_t rack : Sample(rng, racks, 2)) {
        size_t index = rack * kRackSize + rng.NextBelow(kRackSize);
        deployment.push_back(names[std::min(index, servers - 1)]);
      }
      spec.candidate_deployments.push_back(std::move(deployment));
    }
    inputs.specs.push_back(std::move(spec));
  }
  return inputs;
}

std::vector<std::vector<std::string>> MakeRingDatasets(uint64_t seed, size_t parties,
                                                       size_t components) {
  Rng rng(seed ^ 0x9513A1ULL);
  const size_t shared = components * 6 / 10;
  std::vector<std::vector<std::string>> datasets(parties);
  for (size_t p = 0; p < parties; ++p) {
    for (size_t id : Sample(rng, components, shared)) {
      datasets[p].push_back(Format("c:s00-%06zu", id));
    }
    for (size_t j = shared; j < components; ++j) {
      datasets[p].push_back(Format("c:p%02zu-%06zu", p + 1, j));
    }
  }
  return datasets;
}

SketchInputs MakeSketchInputs(uint64_t seed, size_t providers, size_t components,
                              size_t planted) {
  constexpr size_t kFamilySize = 16;
  Rng rng(seed ^ 0x5E7C4ULL);
  const size_t pool = components * 8 / 10;
  const size_t from_pool = components * 7 / 10;
  SketchInputs inputs;
  inputs.providers.resize(providers);
  for (size_t p = 0; p < providers; ++p) {
    indaas::CloudProvider& provider = inputs.providers[p];
    provider.name = Format("prov%04zu", p);
    provider.components.reserve(components);
    for (size_t id : Sample(rng, pool, from_pool)) {
      provider.components.push_back(Format("x:f%04zu:%07zu", p / kFamilySize, id));
    }
    for (size_t j = from_pool; j < components; ++j) {
      provider.components.push_back(Format("x:u%04zu:%07zu", p, j));
    }
  }
  // Planted near-duplicates: b keeps 95% of a's components.
  std::vector<size_t> members = Sample(rng, providers, 2 * planted);
  for (size_t i = 0; i + 1 < members.size(); i += 2) {
    size_t a = std::min(members[i], members[i + 1]);
    size_t b = std::max(members[i], members[i + 1]);
    std::vector<std::string> copy = inputs.providers[a].components;
    for (size_t j = 0; j < copy.size(); j += 20) {
      copy[j] = Format("x:d%04zu:%07zu", b, j);
    }
    inputs.providers[b].components = std::move(copy);
    inputs.planted.emplace_back(inputs.providers[a].name, inputs.providers[b].name);
  }
  for (indaas::CloudProvider& provider : inputs.providers) {
    std::sort(provider.components.begin(), provider.components.end());
  }
  return inputs;
}

}  // namespace perfbench
