// Seeded input generators. Every workload's inputs are a pure function of
// (seed, size parameters): the program under test only ever receives the
// generated DepDB text, audit specifications and component datasets.
//
// Names are fixed-width and every host gets the same number of records, so
// a different seed changes *which* components are shared (and so the
// answers) but not the amount of work or the bytes on the wire by much.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/agent/spec.h"
#include "src/pia/audit.h"
#include "src/util/status.h"

namespace perfbench {

// A DepDB as Table-1 text plus the audits to run against it.
struct AuditInputs {
  std::string depdb_text;
  size_t depdb_records = 0;
  // Records that are already part of depdb_text (empty when the workload
  // does not re-import).
  std::string fragment_text;
  size_t fragment_records = 0;
  std::vector<indaas::AuditSpecification> specs;
};

// sia_fat_tree: a `ports`-port fat tree with `servers_per_pod` servers in
// every pod, all ECMP routes to the Internet, and a disk and a package per
// server (one seeded model and version for the whole fleet). Each spec
// compares `deployments` candidate deployments of `deployment_servers`
// servers in distinct pods.
indaas::Result<AuditInputs> MakeFatTreeInputs(uint64_t seed, uint32_t ports,
                                              size_t servers_per_pod, size_t deployment_servers,
                                              size_t deployments, size_t specs);

// svc_mixed: `servers` servers in racks of 8, each with `paths` routes to
// the Internet (route p through aggregation switch p and core p) and a disk
// and a package shared within the rack. Each spec compares 2 deployments of
// 2 servers in distinct racks. The fragment is the records of the first
// `fragment_servers` servers.
AuditInputs MakeMixedInputs(uint64_t seed, size_t servers, size_t paths, size_t fragment_servers,
                            size_t specs);

// pia_ring: `parties` datasets of `components` normalized component ids
// each; 60% of every dataset is drawn from a shared pool, the rest is
// private to the party.
std::vector<std::vector<std::string>> MakeRingDatasets(uint64_t seed, size_t parties,
                                                       size_t components);

// sketch_allpairs: `providers` providers of `components` components in
// families of 16 that draw most of their components from a family pool (so
// LSH nominates many pairs), plus `planted` disjoint provider pairs whose
// second member is a near copy of the first (Jaccard about 0.9).
struct SketchInputs {
  std::vector<indaas::CloudProvider> providers;
  std::vector<std::pair<std::string, std::string>> planted;  // (a, b), a < b
};
SketchInputs MakeSketchInputs(uint64_t seed, size_t providers, size_t components,
                              size_t planted);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
