#include "src/svc/mux_client.h"

#include <sys/socket.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/propagate.h"
#include "src/obs/trace.h"
#include "src/util/strings.h"
#include "src/util/timer.h"

namespace indaas {
namespace svc {
namespace {

// Reader poll slice: bounds how long Shutdown() waits on an idle connection
// and how far past its deadline an unanswered request can linger.
constexpr int kReaderPollMs = 100;

obs::Histogram* MuxRpcSeconds() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "svc.client.mux_rpc_seconds",
      {0.0001, 0.0002, 0.0004, 0.0008, 0.0016, 0.0032, 0.0064, 0.0128, 0.0256, 0.0512,
       0.1024, 0.2048, 0.4096, 0.8192, 1.6384, 3.2768, 6.5536, 13.1072});
  return histogram;
}

obs::Counter* MuxReconnects() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.client.mux_reconnects");
  return counter;
}

obs::Counter* MuxReplays() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.client.mux_replays");
  return counter;
}

obs::Counter* MuxConnFailures() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("svc.client.mux_conn_failures");
  return counter;
}

Result<net::Socket> ConnectCounted(const net::Endpoint& endpoint, const MuxClientOptions& options) {
  size_t retries = 0;
  Result<net::Socket> socket =
      net::ConnectWithRetry(endpoint, options.connect_timeout_ms, options.retry, &retries);
  if (retries > 0) {
    // Attribute retries to the client on top of the process-wide
    // net.connect_retries the retry layer already counts.
    obs::MetricsRegistry::Global().GetCounter("svc.client.connect_retries")->Add(retries);
  }
  return socket;
}

// ImportDepDb appends records server-side, so an ambiguous transport
// failure must surface rather than risk a double import. GetProfile blocks
// the server for a full capture window: a replay would double the caller's
// wait and race the capture still running. Everything else is a pure read
// or a liveness check.
bool Replayable(MsgType request) {
  return request != MsgType::kImportDepDb && request != MsgType::kGetProfile;
}

// Unwraps a paired reply: kErrorReply into its remote Status, a reply of
// the wrong type into a protocol error.
Result<net::Frame> ReplyResult(net::Frame frame, MsgType expected) {
  if (frame.type == static_cast<uint8_t>(MsgType::kErrorReply)) {
    return DecodeErrorReply(frame.payload);
  }
  if (frame.type != static_cast<uint8_t>(expected)) {
    return ProtocolError(StrFormat("unexpected reply type %u (want %u)", frame.type,
                                   static_cast<uint8_t>(expected)));
  }
  return frame;
}

}  // namespace

struct MuxAuditClient::Impl {
  struct Request {
    MsgType type = MsgType::kPing;
    MsgType expected = MsgType::kPong;
    std::string payload;  // retained only while the replay is unspent
    Completion done;
    WallTimer timer;  // started at issue; the deadline counts from here
    int timeout_ms = 0;
    uint64_t parent_span = 0;  // wire id of the caller's svc.client.rpc span
    bool replay_left = false;
  };

  // One pooled connection. Its reader thread lives as long as the client;
  // a dead connection's reader parks until Revive hands it a fresh socket.
  // The socket is swapped only while the reader is parked, under write_mu
  // and mu, so the reader (which reads it unlocked) and the writers (which
  // write it under write_mu) never see a half-replaced descriptor.
  struct Conn {
    net::Socket socket;
    std::mutex write_mu;   // one frame on the wire at a time
    std::mutex revive_mu;  // serializes in-place reconnection

    std::mutex mu;
    std::condition_variable window_cv;  // a window slot freed, or the conn died
    std::condition_variable park_cv;    // reader parked / conn revived / stopping
    std::unordered_map<uint64_t, Request> pending;
    uint64_t next_id = 1;     // never reused, so a late reply cannot mis-pair
    uint64_t generation = 0;  // bumped by every Revive
    bool stopping = false;
    bool parked = false;           // the reader is off the socket
    Status failed = Status::Ok();  // sticky transport error once !ok

    std::thread reader;  // last: it uses everything above
  };

  MuxClientOptions options;
  net::Endpoint endpoint;
  uint64_t trace_id = 0;
  std::vector<std::unique_ptr<Conn>> conns;
  std::atomic<size_t> next_conn{0};
  bool shut_down = false;

  ~Impl() { Shutdown(); }

  // Completes one request outside any lock (the callback may block).
  static void Complete(Request request, Result<net::Frame> result) {
    MuxRpcSeconds()->Record(request.timer.ElapsedSeconds());
    request.done(std::move(result));
  }

  // Re-issues a transport-failed request once if its replay is unspent;
  // otherwise completes it with `failure`.
  void Retry(Request request, const Status& failure) {
    if (!request.replay_left) {
      Complete(std::move(request), failure);
      return;
    }
    MuxReplays()->Increment();
    request.replay_left = false;
    std::string payload = std::move(request.payload);
    Submit(std::move(request), std::move(payload), /*replay=*/true);
  }

  // Marks the connection dead and retries or fails every pending request.
  // The reader passes `from_reader` so it is marked parked before any
  // replay can route back here and wait on it. Only the first error sticks.
  void FailConn(Conn* conn, const Status& error, bool from_reader) {
    std::unordered_map<uint64_t, Request> orphans;
    Status failure;
    bool stopping;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->failed.ok()) {
        conn->failed = error;
        if (!conn->stopping) {
          MuxConnFailures()->Increment();
        }
      }
      if (from_reader) {
        conn->parked = true;
        conn->park_cv.notify_all();
      }
      failure = conn->failed;
      stopping = conn->stopping;
      orphans.swap(conn->pending);
      conn->window_cv.notify_all();
    }
    for (auto& [id, request] : orphans) {
      if (stopping) {
        Complete(std::move(request), failure);
      } else {
        Retry(std::move(request), failure);
      }
    }
  }

  // Replaces a dead pooled connection's socket in place. The server closing
  // an idle pooled connection must not poison the slot forever — the next
  // request revives it transparently, and the parked reader resumes on the
  // fresh socket.
  Status Revive(Conn* conn) {
    std::lock_guard<std::mutex> revive_lock(conn->revive_mu);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->stopping) {
        return UnavailableError("mux client shutting down");
      }
      if (conn->failed.ok()) {
        return Status::Ok();  // someone else already revived it
      }
    }
    INDAAS_ASSIGN_OR_RETURN(net::Socket socket, ConnectCounted(endpoint, options));
    {
      // A parked reader stays parked until `failed` clears, which only
      // happens below, so it is safe to drop mu before taking write_mu.
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->park_cv.wait(lock, [conn] { return conn->stopping || conn->parked; });
    }
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->stopping) {
      return UnavailableError("mux client shutting down");
    }
    conn->socket = std::move(socket);
    conn->generation++;
    conn->failed = Status::Ok();
    conn->park_cv.notify_all();
    MuxReconnects()->Increment();
    INDAAS_SLOG(Info, "svc.client.mux_reconnect").Kv("endpoint", endpoint.ToString());
    return Status::Ok();
  }

  // Fails every request on `conn` older than its deadline. Runs on the
  // reader every kReaderPollMs; the expired ids stay below next_id, so
  // their late replies are recognised and dropped.
  void ExpireOverdue(Conn* conn) {
    std::vector<Request> overdue;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      for (auto it = conn->pending.begin(); it != conn->pending.end();) {
        if (it->second.timer.ElapsedMillis() >= it->second.timeout_ms) {
          overdue.push_back(std::move(it->second));
          it = conn->pending.erase(it);
        } else {
          ++it;
        }
      }
      if (!overdue.empty()) {
        conn->window_cv.notify_all();
      }
    }
    for (Request& request : overdue) {
      const std::string message = StrFormat("%s: no reply within %d ms",
                                            MsgTypeName(request.type), request.timeout_ms);
      Complete(std::move(request), DeadlineExceededError(message));
    }
  }

  // Reads one reply frame and completes its request. A non-ok return is a
  // transport or stream failure that ends the connection.
  Status ReadReply(Conn* conn) {
    INDAAS_ASSIGN_OR_RETURN(net::Frame frame,
                            net::ReadFrame(conn->socket, options.limits, options.io_timeout_ms));
    if (frame.request_id == 0) {
      return ProtocolError("reply frame missing request id");
    }
    Request request;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->failed.ok()) {
        return Status::Ok();  // failed under us: its requests are already orphaned
      }
      auto it = conn->pending.find(frame.request_id);
      if (it == conn->pending.end()) {
        if (frame.request_id < conn->next_id) {
          return Status::Ok();  // late reply to an expired request
        }
        // An id this client never issued: the stream cannot be trusted.
        return ProtocolError(StrFormat("reply for unknown request id %llu",
                                       (unsigned long long)frame.request_id));
      }
      request = std::move(it->second);
      conn->pending.erase(it);
      conn->window_cv.notify_one();
    }
    const MsgType expected = request.expected;
    Complete(std::move(request), ReplyResult(std::move(frame), expected));
    return Status::Ok();
  }

  void ReaderLoop(Conn* conn) {
    WallTimer since_sweep;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(conn->mu);
        if (!conn->failed.ok() && !conn->stopping) {
          conn->parked = true;
          conn->park_cv.notify_all();
          conn->park_cv.wait(lock, [conn] { return conn->stopping || conn->failed.ok(); });
        }
        if (conn->stopping) {
          return;
        }
        conn->parked = false;
      }
      Status status = conn->socket.WaitReadable(kReaderPollMs);
      if (status.ok()) {
        status = ReadReply(conn);
      } else if (status.code() == StatusCode::kDeadlineExceeded) {
        status = Status::Ok();  // idle slice
      }
      if (!status.ok()) {
        FailConn(conn, status, /*from_reader=*/true);
        continue;
      }
      if (since_sweep.ElapsedMillis() >= kReaderPollMs) {
        ExpireOverdue(conn);
        since_sweep.Reset();
      }
    }
  }

  // Queues `request` on the next connection and writes its frame. A replay
  // skips the window wait: it already held a slot, and a reader replaying
  // its own orphans must never block on a window only it can drain.
  void Submit(Request request, std::string payload, bool replay) {
    Conn* conn =
        conns[next_conn.fetch_add(1, std::memory_order_relaxed) % conns.size()].get();
    bool dead;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      dead = !conn->failed.ok() && !conn->stopping;
    }
    if (dead) {
      Status revived = Revive(conn);
      if (!revived.ok()) {
        Complete(std::move(request), revived);
        return;
      }
    }
    const MsgType type = request.type;
    const obs::TraceContext trace{trace_id, request.parent_span};
    if (request.replay_left) {
      request.payload = payload;  // retained so a transport fault can replay
    }
    uint64_t id = 0;
    uint64_t generation = 0;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      if (!replay) {
        conn->window_cv.wait(lock, [&] {
          return conn->stopping || !conn->failed.ok() ||
                 conn->pending.size() < options.window;
        });
      }
      if (conn->stopping) {
        lock.unlock();
        Complete(std::move(request), UnavailableError("mux client shutting down"));
        return;
      }
      if (!conn->failed.ok()) {
        const Status failed = conn->failed;
        lock.unlock();
        Retry(std::move(request), failed);
        return;
      }
      id = conn->next_id++;
      generation = conn->generation;
      conn->pending.emplace(id, std::move(request));
    }
    Status written;
    {
      std::lock_guard<std::mutex> write_lock(conn->write_mu);
      {
        // If the connection failed since the request was queued, FailConn
        // already took it over: writing it now could run it twice.
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->generation != generation || !conn->failed.ok()) {
          return;
        }
      }
      written = net::WriteFrame(conn->socket, static_cast<uint8_t>(type), payload,
                                options.io_timeout_ms, trace, id);
    }
    if (!written.ok()) {
      FailConn(conn, written, /*from_reader=*/false);  // retries or fails this request too
    }
  }

  void AsyncCall(MsgType type, std::string payload, MsgType expected, Completion done,
                 int timeout_ms, uint64_t parent_span) {
    Request request;
    request.type = type;
    request.expected = expected;
    request.done = std::move(done);
    request.timeout_ms = timeout_ms;
    request.parent_span = parent_span;
    request.replay_left = Replayable(type);
    Submit(std::move(request), std::move(payload), /*replay=*/false);
  }

  Result<net::Frame> Call(MsgType type, std::string payload, MsgType expected, int timeout_ms) {
    // The RPC span must carry this client's trace id even when the calling
    // thread has no ambient context (a bare CLI client): reinstall the id,
    // keeping any ambient parent only if it belongs to the same trace.
    obs::TraceContext ambient = obs::CurrentTraceContext();
    obs::ScopedTraceContext rpc_context(obs::TraceContext{
        trace_id, ambient.trace_id == trace_id ? ambient.parent_span_id : 0});
    INDAAS_TRACE_SPAN_NAMED(span, "svc.client.rpc");
    span.Annotate("type", MsgTypeName(type));
    auto promise = std::make_shared<std::promise<Result<net::Frame>>>();
    std::future<Result<net::Frame>> future = promise->get_future();
    // With tracing disabled the span id is -1 and the wire parent is 0, but
    // the trace id still flows so server metrics stay attributable.
    AsyncCall(
        type, std::move(payload), expected,
        [promise](Result<net::Frame> result) { promise->set_value(std::move(result)); },
        timeout_ms, obs::WireSpanId(span.span_id()));
    Result<net::Frame> result = future.get();
    if (!result.ok()) {
      span.Annotate("error", result.status().ToString());
    }
    return result;
  }

  void Shutdown() {
    if (shut_down) {
      return;
    }
    shut_down = true;
    for (auto& conn : conns) {
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->stopping = true;
        conn->window_cv.notify_all();
        conn->park_cv.notify_all();
      }
      FailConn(conn.get(), UnavailableError("mux client shut down"), /*from_reader=*/false);
      // Wakes a reader blocked on the socket now rather than after its poll
      // slice. Once stopping is set no Revive swaps the socket any more.
      ::shutdown(conn->socket.fd(), SHUT_RDWR);
    }
    for (auto& conn : conns) {
      if (conn->reader.joinable()) {
        conn->reader.join();
      }
      std::lock_guard<std::mutex> write_lock(conn->write_mu);
      conn->socket.Close();
    }
  }
};

Result<MuxAuditClient> MuxAuditClient::Connect(const net::Endpoint& endpoint,
                                               const MuxClientOptions& options) {
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->options.connections = std::max<size_t>(1, options.connections);
  impl->options.window = std::max<size_t>(1, options.window);
  impl->endpoint = endpoint;
  // Join the calling thread's trace if one is installed (e.g. the CLI put
  // the whole run under one trace); otherwise this client starts its own.
  obs::TraceContext ambient = obs::CurrentTraceContext();
  impl->trace_id = ambient.valid() ? ambient.trace_id : obs::NewTraceId();
  for (size_t i = 0; i < impl->options.connections; ++i) {
    INDAAS_ASSIGN_OR_RETURN(net::Socket socket, ConnectCounted(endpoint, options));
    auto conn = std::make_unique<Impl::Conn>();
    conn->socket = std::move(socket);
    impl->conns.push_back(std::move(conn));
  }
  Impl* raw = impl.get();
  for (auto& conn : raw->conns) {
    Impl::Conn* raw_conn = conn.get();
    raw_conn->reader = std::thread([raw, raw_conn] { raw->ReaderLoop(raw_conn); });
  }
  return MuxAuditClient(std::move(impl));
}

MuxAuditClient::MuxAuditClient(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

MuxAuditClient::MuxAuditClient(MuxAuditClient&&) noexcept = default;
MuxAuditClient& MuxAuditClient::operator=(MuxAuditClient&&) noexcept = default;

MuxAuditClient::~MuxAuditClient() = default;

void MuxAuditClient::AsyncCall(MsgType request, std::string payload, MsgType expected,
                               Completion done) {
  impl_->AsyncCall(request, std::move(payload), expected, std::move(done),
                   impl_->options.io_timeout_ms, /*parent_span=*/0);
}

Result<net::Frame> MuxAuditClient::Call(MsgType request, std::string payload,
                                        MsgType expected) {
  return impl_->Call(request, std::move(payload), expected, impl_->options.io_timeout_ms);
}

Status MuxAuditClient::Ping() {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply, Call(MsgType::kPing, "", MsgType::kPong));
  if (!reply.payload.empty()) {
    return ProtocolError("pong carried unexpected payload");
  }
  return Status::Ok();
}

Result<ImportAck> MuxAuditClient::ImportDepDb(const std::string& table1_text) {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply,
                          Call(MsgType::kImportDepDb, table1_text, MsgType::kImportAck));
  return DecodeImportAck(reply.payload);
}

Result<SiaAuditReport> MuxAuditClient::AuditStructural(const AuditSpecification& spec) {
  INDAAS_ASSIGN_OR_RETURN(
      net::Frame reply,
      Call(MsgType::kAuditRequest, EncodeAuditSpecification(spec), MsgType::kAuditReport));
  return DecodeSiaAuditReport(reply.payload);
}

Result<PiaAuditReport> MuxAuditClient::AuditPia(const std::vector<CloudProvider>& providers,
                                                const PiaAuditOptions& options) {
  PiaRequest request;
  request.providers = providers;
  request.options = options;
  INDAAS_ASSIGN_OR_RETURN(
      net::Frame reply,
      Call(MsgType::kPiaRequest, EncodePiaRequest(request), MsgType::kPiaReport));
  return DecodePiaAuditReport(reply.payload);
}

Result<ServerStats> MuxAuditClient::GetStats() {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply, Call(MsgType::kGetStats, "", MsgType::kStatsReply));
  return DecodeServerStats(reply.payload);
}

Result<HealthStatus> MuxAuditClient::Health() {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply, Call(MsgType::kHealth, "", MsgType::kHealthReply));
  return DecodeHealthStatus(reply.payload);
}

Result<DebugInfo> MuxAuditClient::GetDebugInfo() {
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply,
                          Call(MsgType::kGetDebugInfo, "", MsgType::kDebugInfoReply));
  return DecodeDebugInfo(reply.payload);
}

Result<ProfileReply> MuxAuditClient::GetProfile(const ProfileRequest& request) {
  // The server blocks for the whole capture window before answering, so the
  // deadline must cover the window on top of the normal I/O budget.
  const int timeout_ms =
      impl_->options.io_timeout_ms + static_cast<int>(request.seconds) * 1000;
  INDAAS_ASSIGN_OR_RETURN(net::Frame reply,
                          impl_->Call(MsgType::kGetProfile, EncodeProfileRequest(request),
                                      MsgType::kProfileReply, timeout_ms));
  return DecodeProfileReply(reply.payload);
}

void MuxAuditClient::Shutdown() {
  if (impl_) {
    impl_->Shutdown();
  }
}

uint64_t MuxAuditClient::trace_id() const { return impl_->trace_id; }

}  // namespace svc
}  // namespace indaas
