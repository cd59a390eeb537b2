// Client for the INDaaS audit service: connects to an AuditServer (retrying
// with exponential backoff while the server comes up), ships DepDB records,
// and drives remote structural / private audits plus the operator RPCs
// (stats, health, debug, profile).
//
// Multiplexing: the client keeps a bounded window of requests in flight on
// each of a small pool of connections. Every request frame carries the
// request-id extension (src/net/frame.h); the server echoes the id on the
// matching reply, so replies may arrive in any order — a fast ping
// overtakes a slow audit on the same connection — and are paired by id,
// never by position. A client with a window of 1 is a serial client.
//
// Concurrency model: AsyncCall is thread-safe and non-blocking up to the
// window; once a connection's window is full the caller blocks until a
// reply frees a slot (natural backpressure — an open-loop driver that
// outruns the server piles up here instead of allocating without bound).
// Completions are delivered on the connection's reader thread; keep them
// cheap, and never issue a blocking Call from inside one. Requests are
// spread round-robin across the pool's connections. Each connection has
// exactly one reader thread for the client's whole life, so Shutdown joins
// a fixed set of threads.
//
// Deadlines: every request completes within io_timeout_ms (GetProfile adds
// its capture window) — with the server's reply, or with kDeadlineExceeded.
// The reader sweeps for overdue requests every 100 ms, so this holds while
// other replies keep arriving on the same connection. A reply that arrives
// after its request expired is dropped: ids are never reused on a
// connection, so it can never be paired with another request.
//
// Staleness and replay: a pooled connection the server closed while idle is
// revived in place (fresh socket, same reader) the next time a request
// routes to it. A request that dies on a transport fault is re-issued once
// on another connection, unless it is ImportDepDb (a replay could
// double-import) or GetProfile (a replay would double the caller's wait and
// race the capture still running server-side). Decoded kErrorReply answers
// — including server sheds — and expired deadlines are never replayed.
// Reconnects and replays are counted in svc.client.mux_reconnects /
// svc.client.mux_replays.
//
// Observability: the synchronous Call (and every typed RPC built on it)
// opens a "svc.client.rpc" span and sends its wire id as the frame's remote
// parent, so server-side spans join the client's trace
// (src/obs/propagate.h). AsyncCall stamps the trace id only. Completion
// wall time lands in svc.client.mux_rpc_seconds.
//
// Compatibility: a pre-request-id server rejects the unknown flag bit as a
// protocol error and closes the connection, so talking to an old server
// fails loudly (every pending call completes with the transport error)
// instead of mis-pairing replies.

#ifndef SRC_SVC_MUX_CLIENT_H_
#define SRC_SVC_MUX_CLIENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/agent/sia_audit.h"
#include "src/agent/spec.h"
#include "src/net/frame.h"
#include "src/net/retry.h"
#include "src/net/socket.h"
#include "src/pia/audit.h"
#include "src/svc/proto.h"
#include "src/util/status.h"

namespace indaas {
namespace svc {

struct MuxClientOptions {
  size_t connections = 1;  // pool size; requests round-robin across it
  size_t window = 64;      // max in-flight requests per connection
  int connect_timeout_ms = 2000;
  int io_timeout_ms = 30000;  // per-request deadline; audits on large DepDBs take real time
  net::RetryPolicy retry;
  net::FrameLimits limits;
};

class MuxAuditClient {
 public:
  // Invoked exactly once per request with the paired reply (or the error
  // that ended it). Runs on a reader thread — keep it cheap.
  using Completion = std::function<void(Result<net::Frame>)>;

  // Connects the whole pool (each connection retries with backoff while
  // the server comes up).
  static Result<MuxAuditClient> Connect(const net::Endpoint& endpoint,
                                        const MuxClientOptions& options = {});

  MuxAuditClient(MuxAuditClient&&) noexcept;
  MuxAuditClient& operator=(MuxAuditClient&&) noexcept;
  MuxAuditClient(const MuxAuditClient&) = delete;
  MuxAuditClient& operator=(const MuxAuditClient&) = delete;
  ~MuxAuditClient();

  // Issues one request; `done` fires when the matching reply arrives (out
  // of order is fine). Blocks only while the chosen connection's window is
  // full. kErrorReply payloads are unwrapped into their remote Status, and
  // a reply of the wrong type is a kProtocolError.
  void AsyncCall(MsgType request, std::string payload, MsgType expected, Completion done);

  // Synchronous convenience over AsyncCall, traced as "svc.client.rpc".
  // Other requests may still be in flight around it; must not be called
  // from inside a Completion.
  Result<net::Frame> Call(MsgType request, std::string payload, MsgType expected);

  // Round-trip liveness check.
  Status Ping();

  // Imports Table-1 formatted DepDB text into the server's database;
  // returns the server's post-import record counts.
  Result<ImportAck> ImportDepDb(const std::string& table1_text);

  // Runs a structural audit on the server's DepDB.
  Result<SiaAuditReport> AuditStructural(const AuditSpecification& spec);

  // Runs a private audit over the given provider sets on the server.
  Result<PiaAuditReport> AuditPia(const std::vector<CloudProvider>& providers,
                                  const PiaAuditOptions& options = {});

  // Fetches the server's metrics snapshot (counters, gauges, per-RPC
  // latency histograms) plus uptime and DepDB size.
  Result<ServerStats> GetStats();

  // Asks whether the server is serving (false once it begins draining).
  Result<HealthStatus> Health();

  // Fetches live introspection for `indaas debug`: per-shard and
  // per-connection state, recent flight-recorder events, slowest RPCs with
  // their stage breakdowns. Answered even while the server is shedding.
  Result<DebugInfo> GetDebugInfo();

  // Captures a remote profile window (`indaas profile --remote`): the
  // server samples its registered threads for request.seconds and replies
  // with the self-describing dump text (obs::ProfileToDumpText). Blocks for
  // the whole window — the deadline is stretched to cover it.
  Result<ProfileReply> GetProfile(const ProfileRequest& request);

  // Fails every pending request with kUnavailable and joins the reader
  // threads. Idempotent; the destructor calls it.
  void Shutdown();

  // The trace id stamped on every request (ambient at Connect, else fresh).
  uint64_t trace_id() const;

 private:
  struct Impl;
  explicit MuxAuditClient(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace svc
}  // namespace indaas

#endif  // SRC_SVC_MUX_CLIENT_H_
