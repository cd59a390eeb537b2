#include "perfbench/workloads.h"

#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "perfbench/inputs.h"
#include "src/agent/agent.h"
#include "src/agent/sia_audit.h"
#include "src/bignum/montgomery.h"
#include "src/crypto/commutative.h"
#include "src/deps/depdb.h"
#include "src/net/frame.h"
#include "src/obs/propagate.h"
#include "src/pia/audit.h"
#include "src/pia/psop.h"
#include "src/sia/builder.h"
#include "src/sia/ranking.h"
#include "src/sia/risk_groups.h"
#include "src/sketch/allpairs.h"
#include "src/svc/mux_client.h"
#include "src/svc/pia_peer.h"
#include "src/svc/proto.h"
#include "src/svc/server.h"
#include "src/util/rng.h"

namespace perfbench {

using indaas::Result;
using indaas::Status;
namespace svc = indaas::svc;

Result<indaas::obs::MetricsSnapshot> Workload::ExportedMetrics() {
  return indaas::obs::MetricsRegistry::Global().Snapshot();
}

namespace {

// Microseconds per call of `fn(i)` over i in [0, n), median of `reps`
// passes.
template <typename Fn>
double MicrosPerCall(int reps, size_t n, Fn&& fn) {
  return MedianMicros(reps, [&] {
           for (size_t i = 0; i < n; ++i) {
             fn(i);
           }
         }) /
         static_cast<double>(n);
}

// ---------------------------------------------------------------------------
// Audit RPC workloads: one reactor AuditServer (1 shard, 2 pool workers) and
// one MuxAuditClient connection kept `window` requests deep.

// How often the generator records loop progress for windowed medians.
constexpr std::chrono::milliseconds kSampleInterval{100};

struct RpcRequest {
  svc::MsgType type;
  std::string payload;
  svc::MsgType expect;
  std::string reply;  // the reference reply payload, byte for byte
};

class RpcWorkload : public Workload {
 public:
  explicit RpcWorkload(size_t window) : window_(window) {}
  ~RpcWorkload() override { Teardown(); }

  Status Setup() override {
    INDAAS_RETURN_IF_ERROR(MakeInputs());
    // Reference answers, computed in-process from the same text.
    indaas::DepDb db;
    INDAAS_RETURN_IF_ERROR(db.ImportText(inputs_.depdb_text));
    ack_.network = db.NetworkCount();
    ack_.hardware = db.HardwareCount();
    ack_.software = db.SoftwareCount();
    reports_.clear();
    audit_requests_.clear();
    for (const indaas::AuditSpecification& spec : inputs_.specs) {
      INDAAS_ASSIGN_OR_RETURN(indaas::SiaAuditReport report, indaas::RunSiaAudit(db, spec));
      audit_requests_.push_back(RpcRequest{svc::MsgType::kAuditRequest,
                                           svc::EncodeAuditSpecification(spec),
                                           svc::MsgType::kAuditReport,
                                           svc::EncodeSiaAuditReport(report)});
      reports_.push_back(std::move(report));
    }
    requests_ = Schedule();

    svc::AuditServerOptions options;
    options.reactor_shards = 1;
    options.worker_threads = 2;
    server_ = std::make_unique<svc::AuditServer>(options);
    INDAAS_RETURN_IF_ERROR(server_->Start());
    svc::MuxClientOptions client_options;
    client_options.connections = 1;
    client_options.window = window_;
    INDAAS_ASSIGN_OR_RETURN(
        svc::MuxAuditClient client,
        svc::MuxAuditClient::Connect(indaas::net::Endpoint{"127.0.0.1", server_->port()},
                                     client_options));
    client_ = std::make_unique<svc::MuxAuditClient>(std::move(client));
    INDAAS_ASSIGN_OR_RETURN(svc::ImportAck ack, client_->ImportDepDb(inputs_.depdb_text));
    if (svc::EncodeImportAck(ack) != svc::EncodeImportAck(ack_)) {
      return indaas::InternalError("DepDB import ack does not match the reference counts");
    }
    // Warm-up: one op of each kind the loop sends, untimed.
    for (const RpcRequest* request : {&requests_.front(), &requests_.back()}) {
      INDAAS_ASSIGN_OR_RETURN(indaas::net::Frame reply,
                              client_->Call(request->type, request->payload, request->expect));
      if (reply.payload != request->reply) {
        return indaas::InternalError("warm-up reply differs from the reference");
      }
    }
    return Status::Ok();
  }

  void Teardown() override {
    client_.reset();
    if (server_) {
      server_->Stop();
      server_.reset();
    }
  }

  LoopStats Run(double seconds) override {
    LoopStats stats;
    std::mutex mu;
    std::condition_variable cv;
    size_t inflight = 0;
    uint64_t completed = 0;
    stats.latencies_ms.reserve(1 << 16);
    const uint64_t bytes_before = CounterValue("net.bytes_sent");
    const double cpu_before = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    Clock::time_point next_sample = start;
    std::unique_lock<std::mutex> lock(mu);
    for (size_t next = 0;;) {
      const Clock::time_point now = Clock::now();
      if (now >= next_sample) {
        stats.samples.push_back(
            LoopSample{std::chrono::duration<double>(now - start).count(), completed,
                       ProcessCpuSeconds()});
        next_sample += kSampleInterval;
      }
      if (now >= deadline) {
        break;
      }
      if (inflight >= window_) {
        cv.wait_until(lock, std::min(next_sample, deadline));
        continue;
      }
      ++inflight;
      ++stats.attempted;
      lock.unlock();
      const RpcRequest* request = &requests_[next++ % requests_.size()];
      const Clock::time_point sent = Clock::now();
      client_->AsyncCall(request->type, request->payload, request->expect,
                         [&, request, sent](Result<indaas::net::Frame> reply) {
                           const bool ok = reply.ok() && reply->payload == request->reply;
                           const double ms = SecondsSince(sent) * 1e3;
                           std::lock_guard<std::mutex> guard(mu);
                           stats.latencies_ms.push_back(ms);
                           stats.failed += ok ? 0 : 1;
                           ++completed;
                           --inflight;
                           cv.notify_all();
                         });
      lock.lock();
    }
    cv.wait(lock, [&] { return inflight == 0; });
    stats.wall_s = SecondsSince(start);
    stats.cpu_s = ProcessCpuSeconds() - cpu_before;
    stats.samples.push_back(LoopSample{stats.wall_s, completed, cpu_before + stats.cpu_s});
    stats.bytes = CounterValue("net.bytes_sent") - bytes_before;
    return stats;
  }

  Result<indaas::obs::MetricsSnapshot> ExportedMetrics() override {
    INDAAS_ASSIGN_OR_RETURN(
        indaas::net::Frame reply,
        client_->Call(svc::MsgType::kGetStats, "", svc::MsgType::kStatsReply));
    INDAAS_ASSIGN_OR_RETURN(svc::ServerStats stats, svc::DecodeServerStats(reply.payload));
    return stats.metrics;
  }

  Status MeasureLayers(MetricList* out) override {
    INDAAS_RETURN_IF_ERROR(MeasureSia(out));
    // proto: the codecs on the audit path, per call.
    const size_t n = audit_requests_.size();
    double request_bytes = 0;
    double reply_bytes = 0;
    for (const RpcRequest& request : audit_requests_) {
      request_bytes += static_cast<double>(request.payload.size());
      reply_bytes += static_cast<double>(request.reply.size());
    }
    out->Add("proto.request_bytes", request_bytes / static_cast<double>(n), "B");
    out->Add("proto.reply_bytes", reply_bytes / static_cast<double>(n), "B");
    bool codecs_ok = true;
    const double decode_spec_us = MicrosPerCall(5, n, [&](size_t i) {
      codecs_ok &= svc::DecodeAuditSpecification(audit_requests_[i].payload).ok();
    });
    const double encode_report_us = MicrosPerCall(5, n, [&](size_t i) {
      codecs_ok &= !svc::EncodeSiaAuditReport(reports_[i]).empty();
    });
    const double decode_report_us = MicrosPerCall(5, n, [&](size_t i) {
      codecs_ok &= svc::DecodeSiaAuditReport(audit_requests_[i].reply).ok();
    });
    // net: framing a reply as the reactor does (trace context + request id).
    const indaas::obs::TraceContext trace{client_->trace_id(), 1};
    const double encode_frame_us = MicrosPerCall(5, n, [&](size_t i) {
      codecs_ok &= !indaas::net::EncodeFrame(static_cast<uint8_t>(svc::MsgType::kAuditReport),
                                             audit_requests_[i].reply, trace, i + 1)
                        .empty();
    });
    out->Add("proto.decode_spec_us", decode_spec_us, "us");
    out->Add("proto.encode_report_us", encode_report_us, "us");
    out->Add("proto.decode_report_us", decode_report_us, "us");
    out->Add("net.encode_frame_us", encode_frame_us, "us");
    if (!codecs_ok) {
      return indaas::InternalError("a codec failed on the workload's own payloads");
    }
    // deps: the Table-1 parser and DepDb::Add on this workload's import.
    const bool reimport = !inputs_.fragment_text.empty();
    const std::string& text = reimport ? inputs_.fragment_text : inputs_.depdb_text;
    indaas::DepDb base;
    if (reimport) {
      INDAAS_RETURN_IF_ERROR(base.ImportText(inputs_.depdb_text));
    }
    std::vector<double> import_ms;
    for (int rep = 0; rep < 5; ++rep) {
      indaas::DepDb db = base;
      Clock::time_point t0 = Clock::now();
      INDAAS_RETURN_IF_ERROR(db.ImportText(text));
      import_ms.push_back(SecondsSince(t0) * 1e3);
    }
    out->Add("deps.import_ms", Median(import_ms), "ms");
    const size_t records = reimport ? inputs_.fragment_records : inputs_.depdb_records;
    out->Add("deps.import_records", static_cast<double>(records), "count");
    return Status::Ok();
  }

  Result<WorkCounters> CountWork() override {
    const uint64_t generated = CounterValue("sia.cutsets.generated");
    const uint64_t bytes = CounterValue("net.bytes_sent");
    for (const RpcRequest& request : requests_) {
      INDAAS_ASSIGN_OR_RETURN(indaas::net::Frame reply,
                              client_->Call(request.type, request.payload, request.expect));
      if (reply.payload != request.reply) {
        return indaas::InternalError("reply differs from the reference");
      }
    }
    return WorkCounters{{"cutsets_generated", CounterValue("sia.cutsets.generated") - generated},
                        {"bytes", CounterValue("net.bytes_sent") - bytes}};
  }

 protected:
  // Fills inputs_ from the seed.
  virtual Status MakeInputs() = 0;
  // The request sequence the loop cycles through.
  virtual std::vector<RpcRequest> Schedule() const { return audit_requests_; }

  AuditInputs inputs_;
  svc::ImportAck ack_;
  std::vector<RpcRequest> audit_requests_;  // one per spec, spec order

 private:
  // sia/agent/pool layers: one pass over every spec's deployments, calling
  // the pipeline stages RunSiaAudit calls, averaged per audit (spec).
  Status MeasureSia(MetricList* out) {
    indaas::AuditingAgent agent;
    INDAAS_RETURN_IF_ERROR(agent.depdb().ImportText(inputs_.depdb_text));
    const indaas::DepDb& db = agent.depdb();
    double build_ms = 0, enumerate_ms = 0, enumerate_1t_ms = 0, rank_ms = 0, audit_ms = 0;
    double nodes = 0, basics = 0, minimal = 0;
    const uint64_t generated = CounterValue("sia.cutsets.generated");
    const uint64_t absorbed = CounterValue("sia.cutsets.absorbed");
    const uint64_t deduped = CounterValue("sia.cutsets.deduped");
    for (const indaas::AuditSpecification& spec : inputs_.specs) {
      for (const std::vector<std::string>& servers : spec.candidate_deployments) {
        Clock::time_point t0 = Clock::now();
        INDAAS_ASSIGN_OR_RETURN(indaas::FaultGraph graph,
                                indaas::BuildDeploymentFaultGraph(db, servers));
        build_ms += SecondsSince(t0) * 1e3;
        nodes += static_cast<double>(graph.NodeCount());
        basics += static_cast<double>(graph.BasicEvents().size());
        t0 = Clock::now();
        INDAAS_ASSIGN_OR_RETURN(indaas::MinimalRgResult groups,
                                indaas::ComputeMinimalRiskGroups(graph));
        enumerate_ms += SecondsSince(t0) * 1e3;
        minimal += static_cast<double>(groups.groups.size());
        t0 = Clock::now();
        indaas::RankBySize(std::move(groups.groups));
        rank_ms += SecondsSince(t0) * 1e3;
      }
    }
    const double counted_generated =
        static_cast<double>(CounterValue("sia.cutsets.generated") - generated);
    const double counted_absorbed =
        static_cast<double>(CounterValue("sia.cutsets.absorbed") - absorbed);
    const double counted_deduped =
        static_cast<double>(CounterValue("sia.cutsets.deduped") - deduped);
    indaas::MinimalRgOptions one_thread;
    one_thread.threads = 1;
    for (const indaas::AuditSpecification& spec : inputs_.specs) {
      for (const std::vector<std::string>& servers : spec.candidate_deployments) {
        INDAAS_ASSIGN_OR_RETURN(indaas::FaultGraph graph,
                                indaas::BuildDeploymentFaultGraph(db, servers));
        Clock::time_point t0 = Clock::now();
        INDAAS_RETURN_IF_ERROR(indaas::ComputeMinimalRiskGroups(graph, one_thread).status());
        enumerate_1t_ms += SecondsSince(t0) * 1e3;
      }
      Clock::time_point t0 = Clock::now();
      INDAAS_RETURN_IF_ERROR(agent.AuditStructural(spec).status());
      audit_ms += SecondsSince(t0) * 1e3;
    }
    const double audits = static_cast<double>(inputs_.specs.size());
    out->Add("sia.build_graph_ms", build_ms / audits, "ms");
    out->Add("sia.graph_nodes", nodes / audits, "count");
    out->Add("sia.basic_events", basics / audits, "count");
    out->Add("sia.enumerate_ms", enumerate_ms / audits, "ms");
    out->Add("sia.enumerate_1t_ms", enumerate_1t_ms / audits, "ms");
    out->Add("sia.rank_ms", rank_ms / audits, "ms");
    out->Add("sia.cutsets_generated", counted_generated / audits, "count");
    out->Add("sia.cutsets_absorbed", counted_absorbed / audits, "count");
    out->Add("sia.cutsets_deduped", counted_deduped / audits, "count");
    out->Add("sia.minimal_rgs", minimal / audits, "count");
    out->Add("sia.kept_ratio", counted_generated > 0 ? minimal / counted_generated : 0, "ratio");
    out->Add("pool.fanout_speedup", enumerate_ms > 0 ? enumerate_1t_ms / enumerate_ms : 0, "ratio");
    out->Add("agent.audit_ms", audit_ms / audits, "ms");
    return Status::Ok();
  }

  size_t window_;
  std::vector<indaas::SiaAuditReport> reports_;  // reference, spec order
  std::vector<RpcRequest> requests_;
  std::unique_ptr<svc::AuditServer> server_;
  std::unique_ptr<svc::MuxAuditClient> client_;
};

struct FatTreeParams {
  uint32_t ports = 8;
  size_t servers_per_pod = 2;
  size_t deployment_servers = 4;
  size_t deployments = 2;
  size_t specs = 32;
};

// sia_fat_tree: large structural audits, two in flight. Cut-set
// enumeration and absorption dominate; the wire is a small share.
class FatTreeWorkload : public RpcWorkload {
 public:
  FatTreeWorkload(uint64_t seed, FatTreeParams params)
      : RpcWorkload(/*window=*/2), seed_(seed), params_(params) {}

 protected:
  Status MakeInputs() override {
    INDAAS_ASSIGN_OR_RETURN(
        inputs_, MakeFatTreeInputs(seed_, params_.ports, params_.servers_per_pod,
                                   params_.deployment_servers, params_.deployments,
                                   params_.specs));
    return Status::Ok();
  }

 private:
  uint64_t seed_;
  FatTreeParams params_;
};

struct MixedParams {
  size_t servers = 64;
  size_t paths = 2;
  size_t fragment_servers = 16;
  size_t specs = 198;         // with 22 imports, a 220-request cycle
  size_t import_every = 10;  // 1 in 10 requests re-imports the fragment
};

// svc_mixed: small audits with re-imports mixed in, 16 in flight. The
// frame codec, reactor, proto codecs, pool hand-off, Table-1 parser and the
// DepDB writer lock dominate; cut-set work is tiny.
class MixedWorkload : public RpcWorkload {
 public:
  MixedWorkload(uint64_t seed, MixedParams params)
      : RpcWorkload(/*window=*/16), seed_(seed), params_(params) {}

 protected:
  Status MakeInputs() override {
    inputs_ = MakeMixedInputs(seed_, params_.servers, params_.paths, params_.fragment_servers,
                              params_.specs);
    return Status::Ok();
  }

  // Every import_every-th request re-imports the fragment; the ack must
  // still report the full DB because DepDb::Add deduplicates.
  std::vector<RpcRequest> Schedule() const override {
    const RpcRequest import{svc::MsgType::kImportDepDb, inputs_.fragment_text,
                            svc::MsgType::kImportAck, svc::EncodeImportAck(ack_)};
    std::vector<RpcRequest> schedule;
    for (const RpcRequest& audit : audit_requests_) {
      schedule.push_back(audit);
      if ((schedule.size() + 1) % params_.import_every == 0) {
        schedule.push_back(import);
      }
    }
    return schedule;
  }

 private:
  uint64_t seed_;
  MixedParams params_;
};

// ---------------------------------------------------------------------------
// pia_ring: 3-party exact P-SOP over loopback, one PiaPeer per thread,
// rings back to back. A ring keeps about 2.5 cores busy; 100 components
// per party keep it under half a second, so a run holds dozens of rings.

struct RingParams {
  size_t parties = 3;
  size_t components = 100;
  size_t group_bits = 1024;
};

class RingWorkload : public Workload {
 public:
  RingWorkload(uint64_t seed, RingParams params) : seed_(seed), params_(params) {}

  Status Setup() override {
    datasets_ = MakeRingDatasets(seed_, params_.parties, params_.components);
    indaas::PsopOptions psop;
    psop.group_bits = params_.group_bits;
    psop.seed = seed_;
    INDAAS_ASSIGN_OR_RETURN(reference_, indaas::RunPsop(datasets_, psop));
    peers_.clear();
    options_.clear();
    std::vector<indaas::net::Endpoint> ring;
    for (size_t i = 0; i < params_.parties; ++i) {
      INDAAS_ASSIGN_OR_RETURN(svc::PiaPeer peer, svc::PiaPeer::Listen(0));
      ring.push_back(indaas::net::Endpoint{"127.0.0.1", peer.listen_port()});
      peers_.push_back(std::move(peer));
    }
    for (size_t i = 0; i < params_.parties; ++i) {
      svc::PiaPeerOptions options;
      options.peers = ring;
      options.self_index = i;
      options.psop = psop;
      options.io_timeout_ms = 60000;
      options_.push_back(std::move(options));
    }
    if (!RunRing(nullptr)) {
      return indaas::InternalError("warm-up ring differs from the in-process RunPsop");
    }
    return Status::Ok();
  }

  void Teardown() override { peers_.clear(); }

  LoopStats Run(double seconds) override {
    totals_ = PartyTotals{};
    return RunSerialLoop(seconds, [&] { return RunRing(&totals_); });
  }

  Status MeasureLayers(MetricList* out) override {
    const double party_rings = static_cast<double>(totals_.party_rings);
    if (party_rings > 0) {
      out->Add("pia.compute_ms_per_party", totals_.compute_s * 1e3 / party_rings, "ms");
      out->Add("pia.transport_ms_per_party",
               (totals_.wall_s - totals_.compute_s) * 1e3 / party_rings, "ms");
      out->Add("pia.encrypt_ops_per_party",
               static_cast<double>(totals_.encrypt_ops) / party_rings, "count");
      out->Add("pia.bytes_sent_per_party", static_cast<double>(totals_.bytes_sent) / party_rings,
               "B");
    }
    // crypto + bignum on the workload's own elements and group.
    INDAAS_ASSIGN_OR_RETURN(indaas::CommutativeGroup group,
                            indaas::CommutativeGroup::CreateWellKnown(params_.group_bits));
    indaas::Rng rng(seed_);
    INDAAS_ASSIGN_OR_RETURN(indaas::CommutativeKey key,
                            indaas::CommutativeKey::Generate(group, rng));
    const std::vector<std::string> elements = indaas::DisambiguateMultiset(datasets_[0]);
    const size_t n = elements.size();
    std::vector<indaas::BigUint> points(n);
    const double hash_us = MicrosPerCall(3, n, [&](size_t i) {
      points[i] = group.HashToElement(elements[i], indaas::HashAlgorithm::kSha256);
    });
    indaas::BigUint sink;
    const double encrypt_us =
        MicrosPerCall(3, n, [&](size_t i) { sink = key.Encrypt(group, points[i]); });
    INDAAS_ASSIGN_OR_RETURN(indaas::MontgomeryContext montgomery,
                            indaas::MontgomeryContext::Create(group.p()));
    const indaas::BigUint& exponent = key.exponent();
    const double modexp_us =
        MicrosPerCall(3, n, [&](size_t i) { sink = montgomery.ModExp(points[i], exponent); });
    out->Add("crypto.hash_to_element_us", hash_us, "us");
    out->Add("crypto.encrypt_us", encrypt_us, "us");
    out->Add("bignum.modexp_us", modexp_us, "us");
    // net: framing one dataset hop as the ring pump does. It does not call
    // net::EncodeFrame: it writes the header and the session's trace
    // context, then appends the payload.
    svc::PsopDataset dataset;
    dataset.origin = 0;
    dataset.element_bytes = static_cast<uint32_t>(group.ElementBytes());
    dataset.elements = points;
    const std::string payload = svc::EncodePsopDataset(dataset);
    const indaas::obs::TraceContext session{indaas::obs::DeriveTraceId(seed_), 0};
    size_t framed = 0;
    const double encode_frame_us = MedianMicros(20, [&] {
      std::string bytes = indaas::net::EncodeFrameHeader(
          static_cast<uint8_t>(svc::MsgType::kPsopDataset), static_cast<uint32_t>(payload.size()),
          indaas::net::kFrameFlagTraceContext);
      bytes += indaas::net::EncodeTraceContext(session);
      bytes.append(payload);
      framed += bytes.size();
    });
    out->Add("net.encode_frame_us", encode_frame_us, "us");
    return Status::Ok();
  }

  Result<WorkCounters> CountWork() override {
    totals_ = PartyTotals{};
    const uint64_t bytes = CounterValue("net.bytes_sent");
    if (!RunRing(&totals_)) {
      return indaas::InternalError("ring differs from the in-process RunPsop");
    }
    return WorkCounters{{"encrypt_ops", totals_.encrypt_ops},
                        {"bytes", CounterValue("net.bytes_sent") - bytes}};
  }

 private:
  struct PartyTotals {
    uint64_t party_rings = 0;
    double wall_s = 0;     // ring wall time, once per party
    double compute_s = 0;  // the party's own crypto time
    uint64_t encrypt_ops = 0;
    uint64_t bytes_sent = 0;
  };

  // One ring: every peer runs its session on its own thread; the op ends
  // when the last peer finishes. Each peer's counts must equal RunPsop's.
  bool RunRing(PartyTotals* totals) {
    const size_t k = peers_.size();
    std::vector<Result<indaas::PsopResult>> results(k, indaas::InternalError("not run"));
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < k; ++i) {
      threads.emplace_back(
          [&, i] { results[i] = peers_[i].RunPsop(datasets_[i], options_[i]); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    const double wall_s = SecondsSince(start);
    bool ok = true;
    for (size_t i = 0; i < k; ++i) {
      if (!results[i].ok()) {
        std::fprintf(stderr, "perfbench: ring peer %zu: %s\n", i,
                     results[i].status().ToString().c_str());
        ok = false;
        continue;
      }
      const indaas::PsopResult& result = *results[i];
      ok = ok && !result.degraded() && result.intersection == reference_.intersection &&
           result.union_size == reference_.union_size && result.jaccard == reference_.jaccard;
      if (totals != nullptr && i < result.party_stats.size()) {
        const indaas::PartyStats& stats = result.party_stats[i];
        ++totals->party_rings;
        totals->wall_s += wall_s;
        totals->compute_s += stats.compute_seconds;
        totals->encrypt_ops += stats.encrypt_ops;
        totals->bytes_sent += stats.bytes_sent;
      }
    }
    return ok;
  }

  uint64_t seed_;
  RingParams params_;
  std::vector<std::vector<std::string>> datasets_;
  indaas::PsopResult reference_;
  std::vector<svc::PiaPeer> peers_;
  std::vector<svc::PiaPeerOptions> options_;
  PartyTotals totals_;
};

// ---------------------------------------------------------------------------
// sketch_allpairs: the in-process all-pairs audit over a provider fleet.

struct SketchWorkloadParams {
  size_t providers = 512;
  size_t components = 2000;
  uint32_t k = 256;
  uint32_t bands = 64;
  uint32_t rows = 4;
  size_t planted = 8;
};

class SketchWorkload : public Workload {
 public:
  SketchWorkload(uint64_t seed, SketchWorkloadParams params) : seed_(seed), params_(params) {
    options_.sketch.k = params.k;
    options_.sketch.seed = seed;
    options_.lsh.bands = params.bands;
    options_.lsh.rows = params.rows;
  }

  Status Setup() override {
    inputs_ = MakeSketchInputs(seed_, params_.providers, params_.components, params_.planted);
    INDAAS_ASSIGN_OR_RETURN(reference_, indaas::RunAllPairsPiaAudit(inputs_.providers, options_));
    if (PlantedRecall(reference_) != 1.0) {
      return indaas::InternalError("planted near-duplicate pairs missing from the ranking");
    }
    if (!RunOp()) {
      return indaas::InternalError("warm-up ranking differs from the reference");
    }
    return Status::Ok();
  }

  void Teardown() override {}

  LoopStats Run(double seconds) override {
    LoopStats stats = RunSerialLoop(seconds, [&] { return RunOp(); });
    stats.bytes = stats.attempted * reference_.sketch_bytes;
    return stats;
  }

  Status MeasureLayers(MetricList* out) override {
    std::vector<std::vector<std::string>> sets;
    for (const indaas::CloudProvider& provider : inputs_.providers) {
      sets.push_back(provider.components);
    }
    indaas::sketch::AllPairsOptions engine;
    engine.sketch = options_.sketch;
    engine.lsh = options_.lsh;
    engine.verify = options_.verify;
    engine.top = options_.top;
    std::vector<double> build, lsh, verify;
    indaas::sketch::AllPairsResult result;
    for (int rep = 0; rep < 3; ++rep) {
      result = indaas::sketch::RunAllPairs(sets, engine);
      build.push_back(result.build_seconds * 1e3);
      lsh.push_back(result.lsh_seconds * 1e3);
      verify.push_back(result.verify_seconds * 1e3);
    }
    const double build_ms = Median(build), lsh_ms = Median(lsh), verify_ms = Median(verify);
    out->Add("sketch.build_ms", build_ms, "ms");
    out->Add("sketch.lsh_ms", lsh_ms, "ms");
    out->Add("sketch.verify_ms", verify_ms, "ms");
    out->Add("sketch.verify_share", verify_ms / (build_ms + lsh_ms + verify_ms), "ratio");
    out->Add("sketch.candidate_pairs", static_cast<double>(result.lsh.candidate_pairs), "count");
    out->Add("sketch.candidate_ratio",
             static_cast<double>(result.pairs_evaluated) /
                 static_cast<double>(result.pairs_possible),
             "ratio");
    // AgreeCount over the LSH candidates, per pair: the kernel the audit
    // scores its candidates with.
    indaas::sketch::SketchArena arena = indaas::sketch::BuildSketches(options_.sketch, sets);
    std::vector<std::pair<uint32_t, uint32_t>> candidates =
        indaas::sketch::LshCandidatePairs(arena, options_.lsh);
    size_t agree = 0;
    const indaas::sketch::SimdLevel simd = indaas::sketch::BestSimdLevel();
    if (!candidates.empty()) {
      const double agree_us = MicrosPerCall(5, candidates.size(), [&](size_t i) {
        agree += indaas::sketch::AgreeCount(arena.At(candidates[i].first),
                                            arena.At(candidates[i].second), arena.k(), simd);
      });
      out->Add("sketch.agree_count_ns", 1e3 * agree_us, "ns");
    }
    return Status::Ok();
  }

  Result<WorkCounters> CountWork() override {
    const uint64_t built = CounterValue("sketch.allpairs.sketches_built");
    INDAAS_ASSIGN_OR_RETURN(indaas::PiaAllPairsReport report,
                            indaas::RunAllPairsPiaAudit(inputs_.providers, options_));
    return WorkCounters{{"sketches_built", CounterValue("sketch.allpairs.sketches_built") - built},
                        {"bytes", report.sketch_bytes}};
  }

 private:
  // The ranking must be identical from op to op (names, order and the
  // Jaccard estimates, bit for bit), with every planted pair found.
  bool RunOp() {
    Result<indaas::PiaAllPairsReport> report =
        indaas::RunAllPairsPiaAudit(inputs_.providers, options_);
    if (!report.ok() || report->pairs.size() != reference_.pairs.size() ||
        report->pairs_evaluated != reference_.pairs_evaluated) {
      return false;
    }
    for (size_t i = 0; i < report->pairs.size(); ++i) {
      const indaas::RankedProviderPair& got = report->pairs[i];
      const indaas::RankedProviderPair& want = reference_.pairs[i];
      if (got.a != want.a || got.b != want.b || got.jaccard != want.jaccard) {
        return false;
      }
    }
    return PlantedRecall(*report) == 1.0;
  }

  double PlantedRecall(const indaas::PiaAllPairsReport& report) const {
    size_t found = 0;
    for (const auto& [a, b] : inputs_.planted) {
      for (const indaas::RankedProviderPair& pair : report.pairs) {
        if (pair.a == a && pair.b == b) {
          ++found;
          break;
        }
      }
    }
    return inputs_.planted.empty()
               ? 1.0
               : static_cast<double>(found) / static_cast<double>(inputs_.planted.size());
  }

  uint64_t seed_;
  SketchWorkloadParams params_;
  indaas::PiaAllPairsOptions options_;
  SketchInputs inputs_;
  indaas::PiaAllPairsReport reference_;
};

// Sets up `workload`, counts one pass of work, tears it down.
Result<WorkCounters> CountOnce(Workload& workload) {
  INDAAS_RETURN_IF_ERROR(workload.Setup());
  Result<WorkCounters> counters = workload.CountWork();
  workload.Teardown();
  return counters;
}

std::string Describe(const WorkCounters& counters) {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += (out.empty() ? "" : " ") + name + "=" + std::to_string(value);
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "sia_fat_tree") {
    return std::make_unique<FatTreeWorkload>(seed, FatTreeParams{});
  }
  if (name == "svc_mixed") {
    return std::make_unique<MixedWorkload>(seed, MixedParams{});
  }
  if (name == "pia_ring") {
    return std::make_unique<RingWorkload>(seed, RingParams{});
  }
  if (name == "sketch_allpairs") {
    return std::make_unique<SketchWorkload>(seed, SketchWorkloadParams{});
  }
  return nullptr;
}

Status RunScalingSelfTest(uint64_t seed) {
  using Factory = std::function<std::unique_ptr<Workload>()>;
  struct Growth {
    std::string parameter;
    Factory larger;
  };
  struct Case {
    std::string workload;
    Factory base;
    std::vector<Growth> growths;
  };
  auto fat_tree = [seed](uint32_t ports, size_t deployment_servers) -> Factory {
    return [=] {
      return std::make_unique<FatTreeWorkload>(
          seed, FatTreeParams{ports, 2, deployment_servers, 2, 2});
    };
  };
  auto mixed = [seed](size_t paths, size_t fragment_servers) -> Factory {
    return [=] {
      return std::make_unique<MixedWorkload>(seed,
                                             MixedParams{32, paths, fragment_servers, 9, 10});
    };
  };
  auto ring = [seed](size_t parties, size_t components) -> Factory {
    return [=] {
      return std::make_unique<RingWorkload>(seed, RingParams{parties, components, 1024});
    };
  };
  auto sketches = [seed](size_t providers, uint32_t k) -> Factory {
    return [=] {
      return std::make_unique<SketchWorkload>(seed,
                                              SketchWorkloadParams{providers, 200, k, 16, 4, 4});
    };
  };
  const std::vector<Case> cases = {
      {"sia_fat_tree", fat_tree(4, 3), {{"ports 4->8", fat_tree(8, 3)},
                                        {"deployment_servers 3->4", fat_tree(4, 4)}}},
      {"svc_mixed", mixed(2, 4), {{"paths 2->3", mixed(3, 4)},
                                  {"fragment_servers 4->8", mixed(2, 8)}}},
      {"pia_ring", ring(3, 30), {{"components 30->60", ring(3, 60)},
                                 {"parties 3->4", ring(4, 30)}}},
      {"sketch_allpairs", sketches(64, 128), {{"providers 64->128", sketches(128, 128)},
                                              {"k 128->256", sketches(64, 256)}}},
  };
  bool all_ok = true;
  for (const Case& c : cases) {
    std::unique_ptr<Workload> first = c.base();
    std::unique_ptr<Workload> second = c.base();
    INDAAS_ASSIGN_OR_RETURN(WorkCounters a, CountOnce(*first));
    INDAAS_ASSIGN_OR_RETURN(WorkCounters b, CountOnce(*second));
    const bool repeats = a == b;
    all_ok &= repeats;
    std::printf("%s %s repeats at seed %llu: %s | %s\n", repeats ? "PASS" : "FAIL",
                c.workload.c_str(), static_cast<unsigned long long>(seed), Describe(a).c_str(),
                Describe(b).c_str());
    for (const Growth& growth : c.growths) {
      std::unique_ptr<Workload> larger = growth.larger();
      INDAAS_ASSIGN_OR_RETURN(WorkCounters bigger, CountOnce(*larger));
      // Each parameter must grow at least one counter and shrink none.
      bool grows = false;
      bool shrinks = false;
      for (const auto& [name, value] : a) {
        grows |= bigger[name] > value;
        shrinks |= bigger[name] < value;
      }
      const bool ok = grows && !shrinks;
      all_ok &= ok;
      std::printf("%s %s grows with %s: %s -> %s\n", ok ? "PASS" : "FAIL", c.workload.c_str(),
                  growth.parameter.c_str(), Describe(a).c_str(), Describe(bigger).c_str());
    }
  }
  return all_ok ? Status::Ok() : indaas::InternalError("scaling self-test failed");
}

}  // namespace perfbench
