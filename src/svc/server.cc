#include "src/svc/server.h"

#include <sys/epoll.h>

#include <algorithm>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/event_loop.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/propagate.h"
#include "src/obs/trace.h"
#include "src/svc/admission.h"
#include "src/svc/proto.h"
#include "src/util/timer.h"

namespace indaas {
namespace svc {
namespace {

// Read chunk for the reactor's non-blocking receive path. Level-triggered
// epoll re-arms automatically, so a connection with more than this pending
// is simply revisited next iteration instead of monopolizing the loop.
constexpr size_t kReadChunkBytes = 64 * 1024;

const char* RpcName(uint8_t type) { return MsgTypeName(static_cast<MsgType>(type)); }

obs::Histogram* RpcLatency() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "svc.rpc_latency_seconds",
      {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
       2.5, 5.0, 10.0});
  return histogram;
}

// Geometric bucket bounds for the per-RPC latency histograms: 100 µs up to
// ~13 s, doubling per bucket (18 buckets + overflow). Exponential bounds
// keep relative error roughly constant across four decades of latency.
std::vector<double> ExponentialLatencyBounds() {
  std::vector<double> bounds;
  for (double bound = 0.0001; bound < 16.0; bound *= 2.0) {
    bounds.push_back(bound);
  }
  return bounds;
}

obs::Histogram* RpcSeconds(uint8_t type) {
  return obs::MetricsRegistry::Global().GetHistogram(
      std::string("svc.rpc_seconds.") + RpcName(type), ExponentialLatencyBounds());
}

// Stage histograms resolve finer than the per-RPC ones: stages bottom out
// around a microsecond (decode/encode of small payloads), so the buckets
// start three decades lower.
std::vector<double> StageLatencyBounds() {
  std::vector<double> bounds;
  for (double bound = 0.000001; bound < 8.0; bound *= 2.0) {
    bounds.push_back(bound);
  }
  return bounds;
}

// svc.stage.<read|decode|queue|compute|encode|write>_seconds — the
// per-stage latency decomposition of every finished RPC, exemplared with
// the trace id of the worst request seen.
obs::Histogram* StageSeconds(int stage) {
  static obs::Histogram* histograms[obs::kRpcStageCount] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    for (int i = 0; i < obs::kRpcStageCount; ++i) {
      histograms[i] = obs::MetricsRegistry::Global().GetHistogram(
          std::string("svc.stage.") + obs::RpcStageName(static_cast<obs::RpcStage>(i)) +
              "_seconds",
          StageLatencyBounds());
    }
  });
  return histograms[stage];
}

// Dispatch→worker-pickup delay under its ROADMAP name: this is the signal
// adaptive shed thresholds will key on, so it gets a dedicated series in
// addition to svc.stage.queue_seconds.
obs::Histogram* QueueDelaySeconds() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "svc.queue_delay_seconds", StageLatencyBounds());
  return histogram;
}

// Adds `timer`'s elapsed time to one stage; tolerates a null decomposition
// so the handler works for callers that don't measure stages.
void AddStage(obs::RpcStageSeconds* stages, obs::RpcStage stage, const WallTimer& timer) {
  if (stages != nullptr) {
    stages->Add(stage, timer.ElapsedSeconds());
  }
}

// Records a finished RPC's full decomposition into the stage histograms.
void RecordStages(const obs::RpcStageSeconds& stages, uint64_t trace_id) {
  for (int i = 0; i < obs::kRpcStageCount; ++i) {
    StageSeconds(i)->RecordWithExemplar(stages.s[i], trace_id);
  }
  QueueDelaySeconds()->RecordWithExemplar(
      stages.s[static_cast<int>(obs::RpcStage::kQueue)], trace_id);
}

obs::Counter* ConnectionsAccepted() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.connections_accepted");
  return counter;
}

obs::Counter* ConnectionsDropped() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.connections_dropped");
  return counter;
}

obs::Counter* RequestsShed() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter("svc.requests_shed");
  return counter;
}

obs::Counter* RequestsShedAdaptive() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.requests_shed_adaptive");
  return counter;
}

AdmissionOptions AdmissionFromServer(const AuditServerOptions& opts) {
  AdmissionOptions admission;
  admission.target_delay_s = opts.target_queue_delay_s;
  return admission;
}

obs::Counter* SlowReaderDrops() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.slow_reader_drops");
  return counter;
}

obs::Gauge* RequestsActive() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge("svc.requests_active");
  return gauge;
}

obs::Gauge* ConnectionsActive() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge("svc.connections_active");
  return gauge;
}

// The reactor parses frames itself from its receive buffers, so it keeps
// the frame-layer counters honest by hand (ReadFrame does this for
// blocking readers).
obs::Counter* FramesRecv() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter("net.frames_recv");
  return counter;
}

obs::Counter* FramesRejected() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("net.frames_rejected");
  return counter;
}

// Add(+delta) now, Add(-delta) at scope exit — keeps the gauge honest on
// every early return.
class GaugeScope {
 public:
  GaugeScope(obs::Gauge* gauge, int64_t delta) : gauge_(gauge), delta_(delta) {
    gauge_->Add(delta_);
  }
  ~GaugeScope() { gauge_->Add(-delta_); }
  GaugeScope(const GaugeScope&) = delete;
  GaugeScope& operator=(const GaugeScope&) = delete;

 private:
  obs::Gauge* gauge_;
  int64_t delta_;
};

// The server-wide part of a kGetDebugInfo answer: recent flight-recorder
// events and the slowest tail-sampled RPCs.
void FillRecorderDetail(DebugInfo* info) {
  std::vector<obs::FlightEvent> events = obs::FlightRecorder::Global().Snapshot();
  constexpr size_t kMaxEvents = 128;
  size_t first = events.size() > kMaxEvents ? events.size() - kMaxEvents : 0;
  info->events.reserve(events.size() - first);
  for (size_t i = first; i < events.size(); ++i) {
    const obs::FlightEvent& e = events[i];
    DebugFlightEvent out;
    out.t_us = e.t_us;
    out.trace_id = e.trace_id;
    out.a = e.a;
    out.b = e.b;
    out.tid = e.tid;
    out.type = static_cast<uint16_t>(e.type);
    out.code = e.code;
    info->events.push_back(out);
  }
  for (const obs::TailSample& s : obs::TailSampler::Global().TopSlowest(32)) {
    DebugSlowRpc out;
    out.trace_id = s.trace_id;
    out.request_id = s.request_id;
    out.rpc_type = s.rpc_type;
    out.outcome = static_cast<uint8_t>(s.outcome);
    out.ok = s.ok;
    out.conn_id = s.conn_id;
    out.end_us = s.end_us;
    out.total_s = s.total_s;
    for (int i = 0; i < obs::kRpcStageCount; ++i) out.stage_s[i] = s.stages.s[i];
    info->slowest.push_back(out);
  }
}

}  // namespace

// One epoll shard per thread; each shard owns its loop, its (optional)
// listener and every connection the kernel or the fallback acceptor handed
// it. All Conn state is loop-thread-only — the only cross-thread traffic is
// worker completions entering through EventLoop::Post and the global
// in-flight counter, which is atomic.
struct AuditServer::Reactor {
  // Everything needed to finish accounting for one RPC once its reply
  // leaves the socket: identity for the flight recorder and tail sampler,
  // plus the stage decomposition accumulated so far (read/decode/queue/
  // compute/encode — write is added at flush time).
  struct RpcFinal {
    uint16_t rpc_type = 0;
    uint8_t reply_type = 0;
    uint64_t request_id = 0;
    uint64_t trace_id = 0;
    uint64_t conn_id = 0;
    uint64_t begin_us = 0;  // first buffered byte of the request frame
    obs::RpcStageSeconds stages;
  };

  // A reply in the connection's write buffer, finalized when the absolute
  // out-stream offset `flush_end` has gone to the kernel.
  struct ReplyMarker {
    uint64_t flush_end = 0;
    uint64_t enqueue_us = 0;
    RpcFinal final;
  };

  struct Conn {
    net::Socket socket;
    std::string in;    // received, not yet parsed
    std::string out;   // encoded replies, not yet sent
    size_t out_pos = 0;
    size_t inflight = 0;       // requests handed to the pool, reply pending
    bool want_write = false;   // EPOLLOUT currently armed
    uint64_t deadline_timer = 0;  // nonzero while a partial-frame timer runs
    bool closed = false;

    // Debug/stage-decomposition state (loop-thread-only, like the rest).
    uint64_t id = 0;              // process-wide connection id
    uint64_t established_us = 0;  // accept time, trace-epoch micros
    uint64_t in_since_us = 0;     // when the current partial frame started
    uint64_t out_base = 0;        // absolute offset of out[0] in the stream
    std::deque<ReplyMarker> markers;  // in out-stream order
    // (request id, admitted time) of requests in the worker pool, for the
    // oldest-pending-request introspection.
    std::vector<std::pair<uint64_t, uint64_t>> pending;
  };

  struct Shard {
    net::EventLoop loop;
    net::Socket listener;  // invalid on non-zero shards in fallback mode
    std::thread thread;
    std::unordered_map<int, std::shared_ptr<Conn>> conns;  // keyed by fd
    size_t index = 0;
  };

  // One in-flight kGetDebugInfo fan-out across shards. The last shard to
  // report posts the encoded reply back to the origin loop.
  struct DebugGather {
    std::mutex mu;
    DebugInfo info;
    size_t remaining = 0;
  };

  explicit Reactor(AuditServer* server)
      : server(server), admission(AdmissionFromServer(server->options_)) {}

  AuditServer* server;
  AdmissionController admission;
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<size_t> inflight_global{0};
  std::atomic<size_t> next_shard{0};  // fallback round-robin cursor
  bool sharded_accept = true;

  Status Start() {
    const AuditServerOptions& opts = server->options_;
    size_t num_shards = std::max<size_t>(1, opts.reactor_shards);
    // Shard 0 always listens. With several shards it asks for SO_REUSEPORT
    // so its siblings can bind the same port; a single shard needs neither.
    bool want_reuse_port = num_shards > 1;
    Result<net::Socket> first =
        net::TcpListen(opts.port, opts.listen_backlog, want_reuse_port);
    if (!first.ok() && first.status().code() == StatusCode::kUnimplemented) {
      sharded_accept = false;
      first = net::TcpListen(opts.port, opts.listen_backlog, false);
    }
    INDAAS_RETURN_IF_ERROR(first.status());
    INDAAS_ASSIGN_OR_RETURN(server->port_, first->LocalPort());

    for (size_t i = 0; i < num_shards; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->index = i;
      if (!shard->loop.ok()) {
        return InternalError("reactor shard setup failed (epoll unavailable)");
      }
      if (i == 0) {
        shard->listener = std::move(*first);
      } else if (sharded_accept) {
        Result<net::Socket> sibling =
            net::TcpListen(server->port_, opts.listen_backlog, true);
        if (!sibling.ok()) {
          // Lost the SO_REUSEPORT race (or support) mid-way: fall back to
          // shard 0 accepting for everyone. Already-bound siblings keep
          // their listeners; un-bound ones just run connections.
          INDAAS_SLOG(Warn, "svc.shard_listener_unavailable")
              .Kv("shard", i)
              .Kv("fallback", "single_acceptor")
              .Kv("error", sibling.status().ToString());
          sharded_accept = false;
        } else {
          shard->listener = std::move(*sibling);
        }
      }
      shards.push_back(std::move(shard));
    }

    for (auto& shard : shards) {
      Shard* raw = shard.get();
      if (raw->listener.valid()) {
        INDAAS_RETURN_IF_ERROR(raw->loop.Add(raw->listener.fd(), EPOLLIN,
                                             [this, raw](uint32_t) { OnAcceptable(raw); }));
      }
    }
    for (auto& shard : shards) {
      Shard* raw = shard.get();
      raw->thread = std::thread([raw] {
        // Loop threads do the read/parse/flush work; a profile that can't
        // see them misattributes the whole transport layer.
        obs::Profiler::Global().RegisterCurrentThread();
        raw->loop.Run();
      });
    }
    return Status::Ok();
  }

  // Phase one of shutdown: stop accepting. Runs on the caller's thread;
  // the actual closes run on each shard's loop.
  void CloseListeners() {
    for (auto& shard : shards) {
      Shard* raw = shard.get();
      raw->loop.Post([raw] {
        if (raw->listener.valid()) {
          raw->loop.Remove(raw->listener.fd());
          raw->listener.Close();
        }
      });
    }
  }

  // Phase two: stop the loops (pending completions posted by the — by now
  // drained — worker pool run before each loop exits), join, and release
  // whatever connections remain.
  void Join() {
    for (auto& shard : shards) {
      shard->loop.Stop();
    }
    for (auto& shard : shards) {
      if (shard->thread.joinable()) {
        shard->thread.join();
      }
    }
    for (auto& shard : shards) {
      for (auto& [fd, conn] : shard->conns) {
        conn->closed = true;
        conn->socket.Close();
        ConnectionsActive()->Add(-1);
      }
      shard->conns.clear();
      shard->listener.Close();
    }
  }

  // ---- Everything below runs on a shard's loop thread. ----

  void OnAcceptable(Shard* shard) {
    while (true) {
      Result<net::Socket> accepted = net::TcpAccept(shard->listener, 0);
      if (!accepted.ok()) {
        // kDeadlineExceeded = accept queue drained; level-triggered epoll
        // will call us again for the next arrival.
        if (accepted.status().code() != StatusCode::kDeadlineExceeded) {
          INDAAS_SLOG_EVERY(Warn, "svc.accept_failed", 1.0)
              .Kv("shard", shard->index)
              .Kv("error", accepted.status().ToString());
        }
        return;
      }
      ConnectionsAccepted()->Increment();
      if (sharded_accept) {
        AdoptSocket(shard, std::move(*accepted));
        continue;
      }
      Shard* target =
          shards[next_shard.fetch_add(1, std::memory_order_relaxed) % shards.size()].get();
      if (target == shard) {
        AdoptSocket(shard, std::move(*accepted));
      } else {
        // shared_ptr: Post takes a std::function, which must be copyable;
        // the socket itself is move-only.
        auto socket = std::make_shared<net::Socket>(std::move(*accepted));
        target->loop.Post([this, target, socket] { AdoptSocket(target, std::move(*socket)); });
      }
    }
  }

  void AdoptSocket(Shard* shard, net::Socket socket) {
    auto conn = std::make_shared<Conn>();
    conn->socket = std::move(socket);
    conn->id = server->next_conn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    conn->established_us = obs::TraceNowMicros();
    int fd = conn->socket.fd();
    Status added = shard->loop.Add(
        fd, EPOLLIN, [this, shard, conn](uint32_t events) { OnConnEvent(shard, conn, events); });
    if (!added.ok()) {
      INDAAS_SLOG(Warn, "svc.conn_register_failed")
          .Kv("conn", conn->id)
          .Kv("error", added.ToString());
      return;  // Conn and its socket die here
    }
    shard->conns[fd] = conn;
    ConnectionsActive()->Add(1);
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kAccept, conn->id,
                                         shard->index, 0, 0);
  }

  void OnConnEvent(Shard* shard, const std::shared_ptr<Conn>& conn, uint32_t events) {
    if (conn->closed) {
      return;
    }
    if (events & (EPOLLERR | EPOLLHUP)) {
      CloseConn(shard, conn, /*count_drop=*/false);
      return;
    }
    if (events & EPOLLOUT) {
      FlushWrites(shard, conn);
      if (conn->closed) {
        return;
      }
    }
    if (events & EPOLLIN) {
      ReadAndDispatch(shard, conn);
    }
  }

  void ReadAndDispatch(Shard* shard, const std::shared_ptr<Conn>& conn) {
    char buffer[kReadChunkBytes];
    while (true) {
      Result<size_t> received = conn->socket.RecvSome(buffer, sizeof(buffer));
      if (!received.ok()) {
        // Peer closed (kUnavailable) or errored. A close between frames
        // with nothing owed is the normal end of a keep-alive session; a
        // close mid-frame or with replies still queued is a drop.
        bool mid_stream = !conn->in.empty() || conn->inflight > 0 ||
                          conn->out_pos < conn->out.size();
        CloseConn(shard, conn, mid_stream);
        return;
      }
      if (*received == 0) {
        break;  // would block: receive queue drained
      }
      if (conn->in.empty()) {
        conn->in_since_us = obs::TraceNowMicros();  // a new frame starts here
      }
      conn->in.append(buffer, *received);
      if (*received < sizeof(buffer)) {
        break;  // short read — likely drained; epoll re-arms if not
      }
    }
    ParseFrames(shard, conn);
  }

  void ParseFrames(Shard* shard, const std::shared_ptr<Conn>& conn) {
    const net::FrameLimits& limits = server->options_.limits;
    std::string_view view(conn->in);
    size_t pos = 0;
    while (view.size() - pos >= net::kFrameHeaderBytes) {
      Result<net::FrameHeader> header =
          net::DecodeFrameHeader(view.substr(pos, net::kFrameHeaderBytes), limits);
      if (!header.ok()) {
        INDAAS_SLOG(Warn, "svc.frame_rejected")
            .Kv("conn", conn->id)
            .Kv("error", header.status().ToString());
        FramesRejected()->Increment();
        CloseConn(shard, conn, /*count_drop=*/true);
        return;
      }
      if (view.size() - pos < header->total_bytes()) {
        break;  // partial frame: wait for more bytes (under the deadline)
      }
      size_t offset = pos + net::kFrameHeaderBytes;
      net::Frame frame;
      frame.type = header->type;
      if (header->has_trace_context) {
        Result<obs::TraceContext> trace =
            net::DecodeTraceContext(view.substr(offset, net::kTraceContextBytes));
        if (!trace.ok()) {
          FramesRejected()->Increment();
          CloseConn(shard, conn, /*count_drop=*/true);
          return;
        }
        frame.trace = *trace;
        offset += net::kTraceContextBytes;
      }
      if (header->has_request_id) {
        Result<uint64_t> id =
            net::DecodeRequestId(view.substr(offset, net::kRequestIdBytes));
        if (!id.ok()) {
          INDAAS_SLOG(Warn, "svc.frame_rejected")
              .Kv("conn", conn->id)
              .Kv("error", id.status().ToString());
          FramesRejected()->Increment();
          CloseConn(shard, conn, /*count_drop=*/true);
          return;
        }
        frame.request_id = *id;
        offset += net::kRequestIdBytes;
      }
      frame.payload.assign(view.substr(offset, header->payload_size));
      pos = offset + header->payload_size;
      FramesRecv()->Increment();
      const uint64_t frame_start_us = conn->in_since_us;
      conn->in_since_us = obs::TraceNowMicros();  // remaining bytes = next frame
      DispatchFrame(shard, conn, std::move(frame), frame_start_us);
      if (conn->closed) {
        return;
      }
      view = std::string_view(conn->in);  // DispatchFrame never touches in, but be safe
    }
    conn->in.erase(0, pos);
    if (!conn->in.empty()) {
      ArmReadDeadline(shard, conn);
    } else {
      DisarmReadDeadline(shard, conn);
    }
  }

  void DispatchFrame(Shard* shard, const std::shared_ptr<Conn>& conn, net::Frame frame,
                     uint64_t frame_start_us) {
    MsgType type = static_cast<MsgType>(frame.type);
    uint64_t request_id = frame.request_id;
    const uint64_t now_us = obs::TraceNowMicros();
    const double read_s =
        frame_start_us != 0 && now_us > frame_start_us ? (now_us - frame_start_us) / 1e6 : 0;
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kRpcBegin, request_id,
                                         conn->id, frame.type, frame.trace.trace_id);

    // Seeded with everything the flush-time finalizer needs; each path
    // below fills in its stages before handing it to EnqueueReplyTracked.
    RpcFinal final;
    final.rpc_type = frame.type;
    final.request_id = request_id;
    final.trace_id = frame.trace.trace_id;
    final.conn_id = conn->id;
    final.begin_us = frame_start_us != 0 ? frame_start_us : now_us;
    final.stages.Add(obs::RpcStage::kRead, read_s);

    if (type == MsgType::kGetDebugInfo) {
      // Introspection must answer even when the server is shedding —
      // debugging an overloaded server is this RPC's whole purpose — so it
      // bypasses admission control and fans out across the shards.
      StartDebugGather(shard, conn, request_id);
      return;
    }

    if (type == MsgType::kPing || type == MsgType::kHealth) {
      // Trivial RPCs answer inline on the loop: no locks, no allocation
      // worth a pool round-trip, and they stay responsive under audit load.
      uint8_t reply_type = 0;
      std::string reply_payload;
      WallTimer timer;
      {
        GaugeScope request_scope(RequestsActive(), 1);
        obs::ScopedTraceContext request_trace(frame.trace);
        server->HandleRequest(frame.type, frame.payload, &reply_type, &reply_payload,
                              &final.stages);
      }
      double elapsed = timer.ElapsedSeconds();
      RpcLatency()->Record(elapsed);
      RpcSeconds(frame.type)->Record(elapsed);
      final.reply_type = reply_type;
      EnqueueReplyTracked(shard, conn,
                          net::EncodeFrame(reply_type, reply_payload, {}, request_id), final);
      return;
    }

    const AuditServerOptions& opts = server->options_;
    const bool over_hard_cap =
        !server->running_.load(std::memory_order_relaxed) ||
        conn->inflight >= opts.max_inflight_per_connection ||
        inflight_global.load(std::memory_order_relaxed) >= opts.max_inflight_global;
    // The adaptive controller gets a say only below the hard caps (they
    // already shed) and only for pool-bound work — inline RPCs never queue.
    const bool adaptive_shed =
        !over_hard_cap && opts.adaptive_admission && !admission.Admit();
    if (over_hard_cap || adaptive_shed) {
      RequestsShed()->Increment();
      if (adaptive_shed) {
        RequestsShedAdaptive()->Increment();
      }
      obs::FlightRecorder::Global().Record(obs::FlightEventType::kShed, request_id,
                                           conn->id, frame.type, frame.trace.trace_id);
      INDAAS_SLOG_EVERY(Warn, "svc.request_shed", 1.0)
          .Kv("conn", conn->id)
          .Kv("rpc", RpcName(frame.type))
          .Kv("adaptive", adaptive_shed)
          .Kv("shed_level", static_cast<uint64_t>(admission.shed_level()))
          .Kv("inflight_conn", conn->inflight)
          .Kv("inflight_global", inflight_global.load(std::memory_order_relaxed));
      obs::TailSample shed_sample;
      shed_sample.trace_id = frame.trace.trace_id;
      shed_sample.request_id = request_id;
      shed_sample.rpc_type = frame.type;
      shed_sample.outcome = obs::TailOutcome::kShed;
      shed_sample.conn_id = conn->id;
      shed_sample.end_us = now_us;
      shed_sample.total_s = read_s;
      shed_sample.stages = final.stages;
      obs::TailSampler::Global().Offer(shed_sample);
      Status overloaded =
          adaptive_shed
              ? UnavailableError("server overloaded: queue delay above target (adaptive shed)")
              : UnavailableError("server overloaded: in-flight request cap reached");
      EnqueueReply(shard, conn,
                   net::EncodeFrame(static_cast<uint8_t>(MsgType::kErrorReply),
                                    EncodeErrorReply(overloaded), {}, request_id));
      return;
    }

    conn->inflight++;
    conn->pending.emplace_back(request_id, now_us);
    inflight_global.fetch_add(1, std::memory_order_relaxed);
    // shared_ptr wrappers: ThreadPool tasks are std::function and must be
    // copyable; the payload can be megabytes, so no by-value copies.
    auto payload = std::make_shared<std::string>(std::move(frame.payload));
    uint8_t raw_type = frame.type;
    obs::TraceContext trace = frame.trace;
    const uint64_t dispatch_us = now_us;
    server->workers_->Submit([this, shard, conn, raw_type, request_id, payload, trace,
                              dispatch_us, final]() mutable {
      const uint64_t picked_us = obs::TraceNowMicros();
      const double queue_delay_s =
          picked_us > dispatch_us ? (picked_us - dispatch_us) / 1e6 : 0.0;
      if (queue_delay_s > 0) {
        final.stages.Add(obs::RpcStage::kQueue, queue_delay_s);
      }
      if (server->options_.adaptive_admission) {
        // Every pickup feeds the controller, fast ones included — the
        // window *minimum* is the whole point (a drained queue must pull
        // the shed level back down).
        admission.Record(queue_delay_s);
      }
      uint8_t reply_type = 0;
      std::string reply_payload;
      WallTimer timer;
      {
        GaugeScope request_scope(RequestsActive(), 1);
        // Adopt the request's distributed identity for exactly this
        // request; an invalid context deliberately clears whatever the
        // previous request left on this pool thread.
        obs::ScopedTraceContext request_trace(trace);
        server->HandleRequest(raw_type, *payload, &reply_type, &reply_payload,
                              &final.stages);
      }
      double elapsed = timer.ElapsedSeconds();
      RpcLatency()->Record(elapsed);
      RpcSeconds(raw_type)->Record(elapsed);
      final.reply_type = reply_type;
      // Replies never carry a trace extension (legacy clients expect plain
      // reply frames) and echo the request id so the client can pair them.
      WallTimer frame_encode_timer;
      auto reply =
          std::make_shared<std::string>(net::EncodeFrame(reply_type, reply_payload, {},
                                                         request_id));
      final.stages.Add(obs::RpcStage::kEncode, frame_encode_timer.ElapsedSeconds());
      shard->loop.Post([this, shard, conn, reply, final] {
        inflight_global.fetch_sub(1, std::memory_order_relaxed);
        if (conn->inflight > 0) {
          conn->inflight--;
        }
        for (auto it = conn->pending.begin(); it != conn->pending.end(); ++it) {
          if (it->first == final.request_id) {
            conn->pending.erase(it);
            break;
          }
        }
        if (conn->closed) {
          return;
        }
        EnqueueReplyTracked(shard, conn, std::move(*reply), final);
      });
    });
  }

  void EnqueueReply(Shard* shard, const std::shared_ptr<Conn>& conn, std::string bytes) {
    if (conn->closed) {
      return;
    }
    conn->out.append(bytes);
    FlushWrites(shard, conn);
  }

  // EnqueueReply plus a marker at the reply's end offset: when FlushWrites
  // pushes the last byte to the kernel, the RPC's write stage closes and
  // its full decomposition is recorded.
  void EnqueueReplyTracked(Shard* shard, const std::shared_ptr<Conn>& conn, std::string bytes,
                           const RpcFinal& final) {
    if (conn->closed) {
      return;
    }
    conn->out.append(bytes);
    ReplyMarker marker;
    marker.flush_end = conn->out_base + conn->out.size();
    marker.enqueue_us = obs::TraceNowMicros();
    marker.final = final;
    conn->markers.push_back(std::move(marker));
    FlushWrites(shard, conn);
  }

  // Closes the books on one RPC: write stage, stage histograms with the
  // trace id as exemplar, flight-recorder end event, tail-sampler offer.
  void FinalizeRpc(const ReplyMarker& marker, uint64_t now_us) {
    RpcFinal final = marker.final;
    if (now_us > marker.enqueue_us) {
      final.stages.Add(obs::RpcStage::kWrite, (now_us - marker.enqueue_us) / 1e6);
    }
    RecordStages(final.stages, final.trace_id);
    const double total_s =
        now_us > final.begin_us ? (now_us - final.begin_us) / 1e6 : final.stages.total();
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kRpcEnd, final.request_id,
                                         static_cast<uint64_t>(total_s * 1e6),
                                         final.rpc_type, final.trace_id);
    const bool errored = final.reply_type == static_cast<uint8_t>(MsgType::kErrorReply);
    obs::TailSample sample;
    sample.trace_id = final.trace_id;
    sample.request_id = final.request_id;
    sample.rpc_type = final.rpc_type;
    sample.outcome = errored ? obs::TailOutcome::kError : obs::TailOutcome::kSlow;
    sample.ok = !errored;
    sample.conn_id = final.conn_id;
    sample.end_us = now_us;
    sample.total_s = total_s;
    sample.stages = final.stages;
    obs::TailSampler::Global().Offer(sample);
  }

  void FlushWrites(Shard* shard, const std::shared_ptr<Conn>& conn) {
    while (conn->out_pos < conn->out.size()) {
      Result<size_t> sent =
          conn->socket.SendSome(std::string_view(conn->out).substr(conn->out_pos));
      if (!sent.ok()) {
        INDAAS_SLOG(Warn, "svc.reply_failed")
            .Kv("conn", conn->id)
            .Kv("error", sent.status().ToString());
        CloseConn(shard, conn, /*count_drop=*/true);
        return;
      }
      if (*sent == 0) {
        break;  // kernel send buffer full: wait for EPOLLOUT
      }
      conn->out_pos += *sent;
    }
    // Finalize every RPC whose reply is now fully in the kernel.
    const uint64_t flushed_abs = conn->out_base + conn->out_pos;
    if (!conn->markers.empty() && conn->markers.front().flush_end <= flushed_abs) {
      const uint64_t now_us = obs::TraceNowMicros();
      while (!conn->markers.empty() && conn->markers.front().flush_end <= flushed_abs) {
        FinalizeRpc(conn->markers.front(), now_us);
        conn->markers.pop_front();
      }
    }
    if (conn->out_pos == conn->out.size()) {
      conn->out_base += conn->out.size();
      conn->out.clear();
      conn->out_pos = 0;
      if (conn->want_write) {
        conn->want_write = false;
        (void)shard->loop.Modify(conn->socket.fd(), EPOLLIN);
      }
      return;
    }
    // Blocked with bytes pending: reclaim the sent prefix, then check the
    // slow-reader cap — a peer that reads slower than it asks gets dropped
    // instead of growing an unbounded buffer server-side.
    conn->out.erase(0, conn->out_pos);
    conn->out_base += conn->out_pos;
    conn->out_pos = 0;
    if (conn->out.size() > server->options_.max_write_buffer_bytes) {
      SlowReaderDrops()->Increment();
      obs::FlightRecorder::Global().Record(obs::FlightEventType::kSlowReaderDrop, conn->id,
                                           conn->out.size(), 0, 0);
      INDAAS_SLOG_EVERY(Warn, "svc.slow_reader_drop", 1.0)
          .Kv("conn", conn->id)
          .Kv("unsent_bytes", conn->out.size());
      CloseConn(shard, conn, /*count_drop=*/true);
      return;
    }
    if (!conn->want_write) {
      conn->want_write = true;
      (void)shard->loop.Modify(conn->socket.fd(), EPOLLIN | EPOLLOUT);
    }
  }

  void ArmReadDeadline(Shard* shard, const std::shared_ptr<Conn>& conn) {
    if (conn->deadline_timer != 0 || server->options_.read_deadline_ms <= 0) {
      return;
    }
    conn->deadline_timer = shard->loop.AddTimer(
        server->options_.read_deadline_ms / 1000.0, [this, shard, conn] {
          conn->deadline_timer = 0;
          if (conn->closed) {
            return;
          }
          obs::FlightRecorder::Global().Record(
              obs::FlightEventType::kReadDeadline, conn->id,
              static_cast<uint64_t>(server->options_.read_deadline_ms), 0, 0);
          INDAAS_SLOG(Warn, "svc.read_deadline_drop")
              .Kv("conn", conn->id)
              .Kv("buffered_bytes", conn->in.size())
              .Kv("deadline_ms", server->options_.read_deadline_ms);
          CloseConn(shard, conn, /*count_drop=*/true);
        });
  }

  void DisarmReadDeadline(Shard* shard, const std::shared_ptr<Conn>& conn) {
    if (conn->deadline_timer != 0) {
      shard->loop.CancelTimer(conn->deadline_timer);
      conn->deadline_timer = 0;
    }
  }

  void CloseConn(Shard* shard, const std::shared_ptr<Conn>& conn, bool count_drop) {
    if (conn->closed) {
      return;
    }
    conn->closed = true;
    if (count_drop) {
      ConnectionsDropped()->Increment();
    }
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kConnClose, conn->id,
                                         conn->out.size() - conn->out_pos, 0, 0);
    conn->markers.clear();  // replies that never reached the wire: no write stage
    DisarmReadDeadline(shard, conn);
    int fd = conn->socket.fd();
    shard->loop.Remove(fd);
    shard->conns.erase(fd);
    conn->socket.Close();
    ConnectionsActive()->Add(-1);
  }

  // kGetDebugInfo: collect per-connection detail on every shard's own loop
  // thread (Conn state is loop-thread-only), merge under the gather lock,
  // and have the last shard post the encoded reply back to the origin.
  void StartDebugGather(Shard* origin, const std::shared_ptr<Conn>& conn,
                        uint64_t request_id) {
    auto gather = std::make_shared<DebugGather>();
    FillRecorderDetail(&gather->info);
    gather->info.uptime_us =
        obs::TraceNowMicros() - server->start_us_.load(std::memory_order_relaxed);
    gather->info.reactor_shards = static_cast<uint32_t>(shards.size());
    gather->info.inflight_global = inflight_global.load(std::memory_order_relaxed);
    gather->remaining = shards.size();
    for (auto& shard_owner : shards) {
      Shard* shard = shard_owner.get();
      auto collect = [this, shard, gather, origin, conn, request_id] {
        DebugShard dshard;
        dshard.index = static_cast<uint32_t>(shard->index);
        dshard.has_listener = shard->listener.valid();
        std::vector<DebugConnection> dconns;
        const uint64_t now_us = obs::TraceNowMicros();
        for (const auto& [fd, c] : shard->conns) {
          dshard.connections++;
          dshard.inflight += c->inflight;
          DebugConnection dc;
          dc.id = c->id;
          dc.shard = static_cast<uint32_t>(shard->index);
          dc.age_us = now_us > c->established_us ? now_us - c->established_us : 0;
          dc.in_buffer_bytes = c->in.size();
          dc.write_buffer_bytes = c->out.size() - c->out_pos;
          dc.inflight = c->inflight;
          for (const auto& [id, admitted_us] : c->pending) {
            if (now_us > admitted_us) {
              dc.oldest_pending_us = std::max(dc.oldest_pending_us, now_us - admitted_us);
            }
          }
          dconns.push_back(dc);
        }
        bool last = false;
        {
          std::lock_guard<std::mutex> lock(gather->mu);
          gather->info.shards.push_back(dshard);
          gather->info.connections.insert(gather->info.connections.end(), dconns.begin(),
                                          dconns.end());
          last = --gather->remaining == 0;
        }
        if (!last) {
          return;
        }
        origin->loop.Post([this, origin, conn, request_id, gather] {
          if (conn->closed) {
            return;
          }
          std::sort(gather->info.shards.begin(), gather->info.shards.end(),
                    [](const DebugShard& x, const DebugShard& y) { return x.index < y.index; });
          std::sort(gather->info.connections.begin(), gather->info.connections.end(),
                    [](const DebugConnection& x, const DebugConnection& y) {
                      return x.id < y.id;
                    });
          EnqueueReply(origin, conn,
                       net::EncodeFrame(static_cast<uint8_t>(MsgType::kDebugInfoReply),
                                        EncodeDebugInfo(gather->info), {}, request_id));
        });
      };
      if (shard == origin) {
        collect();  // already on this shard's loop thread
      } else {
        shard->loop.Post(collect);
      }
    }
  }
};

AuditServer::AuditServer(AuditServerOptions options) : options_(std::move(options)) {}

AuditServer::~AuditServer() { Stop(); }

Status AuditServer::Start() {
  if (running_.load()) {
    return FailedPreconditionError("AuditServer already started");
  }
  obs::TailSampler::Global().Configure(options_.slow_rpc_threshold_s, options_.tail_samples);
  // Pre-register the degraded-mode surface so a stats scrape or Prometheus
  // pull shows explicit zeros before the first incident, not absent series
  // (dashboards can then alert on rate() without waiting for first data).
  obs::MetricsRegistry::Global().GetCounter("svc.degraded_audits");
  obs::MetricsRegistry::Global().GetGauge("svc.adaptive_shed_level");
  obs::MetricsRegistry::Global().GetCounter("svc.requests_shed_adaptive");
  // Same rationale for the profiler surface: scrape-visible zeros from the
  // first Start(), whether or not a session ever runs.
  obs::MetricsRegistry::Global().GetCounter("obs.profile.samples");
  obs::MetricsRegistry::Global().GetCounter("obs.profile.dropped");
  obs::MetricsRegistry::Global().GetCounter("obs.profile.truncated_stacks");
  workers_ = std::make_unique<ThreadPool>(std::max<size_t>(1, options_.worker_threads));
  start_us_.store(obs::TraceNowMicros(), std::memory_order_relaxed);
  serving_.store(true, std::memory_order_relaxed);
  running_.store(true);
  reactor_ = std::make_unique<Reactor>(this);
  if (Status started = reactor_->Start(); !started.ok()) {
    running_.store(false);
    serving_.store(false, std::memory_order_relaxed);
    reactor_->Join();
    reactor_.reset();
    workers_.reset();
    return started;
  }
  // Armed only once the reactor serves: a Start() that fails (a taken port)
  // must leave no session behind, and Stop() would not reach it.
  if (options_.profile_hz > 0) {
    obs::ProfileOptions popts;
    popts.hz = std::min(options_.profile_hz, obs::Profiler::kMaxHz);
    popts.alloc = options_.profile_alloc;
    popts.continuous = true;  // sliding-window retention for a server-lifetime session
    Status profiling = obs::Profiler::Global().Start(popts);
    if (profiling.ok()) {
      owns_profiler_session_ = true;
      INDAAS_SLOG(Info, "svc.profiler_started")
          .Kv("hz", static_cast<uint64_t>(popts.hz))
          .Kv("alloc", popts.alloc);
    } else {
      // Another session (a test harness, an embedding process) already owns
      // the profiler; serving without continuous profiles beats not serving.
      INDAAS_SLOG(Warn, "svc.profiler_unavailable")
          .Kv("error", profiling.ToString());
    }
  }
  INDAAS_SLOG(Info, "svc.server_started")
      .Kv("port", port_)
      .Kv("shards", reactor_->shards.size())
      .Kv("workers", workers_->num_threads())
      .Kv("sharded_accept", reactor_->sharded_accept);
  return Status::Ok();
}

void AuditServer::Stop() {
  serving_.store(false, std::memory_order_relaxed);
  if (!running_.exchange(false)) {
    return;
  }
  if (owns_profiler_session_) {
    owns_profiler_session_ = false;
    obs::Profiler::Global().Stop();
  }
  // Order matters: stop accepting, drain the pool (completions are Posted
  // to their shard loops), then stop the loops — EventLoop runs
  // already-posted closures before exiting, so no reply is dropped without
  // at least a flush attempt.
  reactor_->CloseListeners();
  workers_->Wait();
  reactor_->Join();
  reactor_.reset();
  workers_.reset();
}

size_t AuditServer::reactor_shards() const { return reactor_ ? reactor_->shards.size() : 0; }

void AuditServer::HandleRequest(uint8_t type, const std::string& payload, uint8_t* reply_type,
                                std::string* reply_payload, obs::RpcStageSeconds* stages) {
  static obs::Counter* errors = obs::MetricsRegistry::Global().GetCounter("svc.rpc_errors");
  obs::MetricsRegistry::Global()
      .GetCounter(std::string("svc.rpcs.") + RpcName(type))
      ->Increment();
  INDAAS_TRACE_SPAN_NAMED(span, "svc.rpc");
  span.Annotate("type", RpcName(type));

  Status error;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kPing: {
      *reply_type = static_cast<uint8_t>(MsgType::kPong);
      reply_payload->clear();
      return;
    }
    case MsgType::kGetStats: {
      WallTimer compute_timer;
      ServerStats stats;
      stats.uptime_us =
          obs::TraceNowMicros() - start_us_.load(std::memory_order_relaxed);
      {
        std::shared_lock<std::shared_mutex> lock(agent_mu_);
        stats.depdb_records = agent_.depdb().NetworkCount() +
                              agent_.depdb().HardwareCount() +
                              agent_.depdb().SoftwareCount();
      }
      stats.metrics = obs::MetricsRegistry::Global().Snapshot();
      AddStage(stages, obs::RpcStage::kCompute, compute_timer);
      WallTimer encode_timer;
      *reply_type = static_cast<uint8_t>(MsgType::kStatsReply);
      *reply_payload = EncodeServerStats(stats);
      AddStage(stages, obs::RpcStage::kEncode, encode_timer);
      return;
    }
    case MsgType::kHealth: {
      HealthStatus health;
      health.serving = serving();
      health.uptime_us =
          obs::TraceNowMicros() - start_us_.load(std::memory_order_relaxed);
      *reply_type = static_cast<uint8_t>(MsgType::kHealthReply);
      *reply_payload = EncodeHealthStatus(health);
      return;
    }
    case MsgType::kImportDepDb: {
      WallTimer compute_timer;
      std::unique_lock<std::shared_mutex> lock(agent_mu_);
      error = agent_.depdb().ImportText(payload);
      if (error.ok()) {
        ImportAck ack;
        ack.network = agent_.depdb().NetworkCount();
        ack.hardware = agent_.depdb().HardwareCount();
        ack.software = agent_.depdb().SoftwareCount();
        AddStage(stages, obs::RpcStage::kCompute, compute_timer);
        WallTimer encode_timer;
        *reply_type = static_cast<uint8_t>(MsgType::kImportAck);
        *reply_payload = EncodeImportAck(ack);
        AddStage(stages, obs::RpcStage::kEncode, encode_timer);
        return;
      }
      AddStage(stages, obs::RpcStage::kCompute, compute_timer);
      break;
    }
    case MsgType::kAuditRequest: {
      WallTimer decode_timer;
      Result<AuditSpecification> spec = DecodeAuditSpecification(payload);
      AddStage(stages, obs::RpcStage::kDecode, decode_timer);
      if (spec.ok()) {
        WallTimer compute_timer;
        std::shared_lock<std::shared_mutex> lock(agent_mu_);
        Result<SiaAuditReport> report = agent_.AuditStructural(*spec);
        AddStage(stages, obs::RpcStage::kCompute, compute_timer);
        if (report.ok()) {
          WallTimer encode_timer;
          *reply_type = static_cast<uint8_t>(MsgType::kAuditReport);
          *reply_payload = EncodeSiaAuditReport(*report);
          AddStage(stages, obs::RpcStage::kEncode, encode_timer);
          return;
        }
        error = report.status();
      } else {
        error = spec.status();
      }
      break;
    }
    case MsgType::kPiaRequest: {
      WallTimer decode_timer;
      Result<PiaRequest> request = DecodePiaRequest(payload);
      AddStage(stages, obs::RpcStage::kDecode, decode_timer);
      if (request.ok()) {
        // PIA runs over the request's own provider sets, not the DepDB; no
        // agent lock needed.
        WallTimer compute_timer;
        Result<PiaAuditReport> report = agent_.AuditPrivate(request->providers,
                                                            request->options);
        AddStage(stages, obs::RpcStage::kCompute, compute_timer);
        if (report.ok()) {
          WallTimer encode_timer;
          *reply_type = static_cast<uint8_t>(MsgType::kPiaReport);
          *reply_payload = EncodePiaAuditReport(*report);
          AddStage(stages, obs::RpcStage::kEncode, encode_timer);
          return;
        }
        error = report.status();
      } else {
        error = request.status();
      }
      break;
    }
    case MsgType::kGetProfile: {
      // Deliberately slow by design: the handler blocks on the capture
      // window (seconds, capped at kMaxProfileSeconds by the decoder), so
      // it occupies one pool worker — the same admission control that
      // protects audits bounds how many concurrent captures a client can
      // pin, and the profiler itself allows one temporary session at a
      // time anyway.
      WallTimer decode_timer;
      Result<ProfileRequest> request = DecodeProfileRequest(payload);
      AddStage(stages, obs::RpcStage::kDecode, decode_timer);
      if (request.ok()) {
        WallTimer compute_timer;
        Result<obs::ProfileData> window = obs::Profiler::Global().WindowedCapture(
            request->hz, request->seconds, request->alloc);
        AddStage(stages, obs::RpcStage::kCompute, compute_timer);
        if (window.ok()) {
          WallTimer encode_timer;
          ProfileReply profile;
          profile.dump = obs::ProfileToDumpText(*window);
          if (profile.dump.size() > kMaxProfileDumpBytes) {
            error = InternalError("profile dump exceeds wire cap");
          } else {
            *reply_type = static_cast<uint8_t>(MsgType::kProfileReply);
            *reply_payload = EncodeProfileReply(profile);
            AddStage(stages, obs::RpcStage::kEncode, encode_timer);
            return;
          }
        } else {
          error = window.status();
        }
      } else {
        error = request.status();
      }
      break;
    }
    default:
      error = ProtocolError("unknown request type " + std::to_string(type));
      break;
  }
  errors->Increment();
  span.Annotate("error", error.ToString());
  *reply_type = static_cast<uint8_t>(MsgType::kErrorReply);
  *reply_payload = EncodeErrorReply(error);
}

}  // namespace svc
}  // namespace indaas
