#ifndef SEQFM_SERVE_RPC_SERVER_H_
#define SEQFM_SERVE_RPC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"
#include "util/ordered_mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace seqfm {
namespace serve {

struct RpcServerOptions {
  /// TCP port to listen on; 0 asks the kernel for an ephemeral port (read it
  /// back from port() after Start).
  uint16_t port = 0;
  /// Listen address. The loopback default serves same-host clients only;
  /// "0.0.0.0" exposes the server to the network.
  std::string bind_address = "127.0.0.1";
  /// Replica mode: when catalog_size > 0 the server also answers
  /// shard-scoped requests (kShardRequestFrame) over its owned slice
  /// [ShardBounds(catalog_size, num_shards)[shard_index],
  ///  ShardBounds(...)[shard_index + 1]) of the identity catalog
  /// {0, ..., catalog_size - 1}, and advertises kRpcCapShardScoring plus
  /// the slice bounds in its HELLO_ACK. Shard requests outside the owned
  /// slice are answered BAD_REQUEST — a misrouted coordinator gets a
  /// precise rejection, never a silently wrong ranking.
  uint64_t catalog_size = 0;
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  /// Parameter fingerprint announced in the HELLO_ACK and stamped on every
  /// shard response (see serve::ParameterVersion). A coordinator refuses to
  /// merge entries scored under different versions, so a mid-fleet
  /// checkpoint swap degrades to PARTIAL instead of mixing models.
  uint64_t model_version = 0;
};

/// Counters exposed by RpcServer::stats(). "Shed" mirrors the BatchServer's
/// requests_rejected for requests that arrived over this server.
struct RpcServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t requests_ok = 0;        // admitted, served, response enqueued
  uint64_t requests_shed = 0;      // answered OVERLOADED at admission
  uint64_t requests_rejected_shutdown = 0;  // answered SHUTTING_DOWN
  uint64_t requests_bad = 0;       // answered BAD_REQUEST (bad shard range
                                   // or an id outside the feature space)
  uint64_t protocol_errors = 0;    // framing/decoding failures (conn closed)
  uint64_t backpressure_pauses = 0;
  /// Requests blackholed by the `rpc.server.shard.drop` failpoint (chaos
  /// only; the slow-replica simulator). These ARE counted in
  /// frames_received, so under chaos the accounting invariant reads
  /// "ok + shed + rejected_shutdown + bad + dropped == frames_received".
  uint64_t requests_dropped = 0;
  /// HELLO handshakes accepted. Hello frames are deliberately NOT counted
  /// in frames_received, so the accounting invariant "requests_ok +
  /// requests_shed + requests_rejected_shutdown + requests_bad ==
  /// frames_received" keeps holding for request traffic.
  uint64_t handshakes_ok = 0;
};

/// \brief Single-threaded epoll TCP front end over a serve::BatchServer.
///
/// The network tier of the serving stack: one event-loop thread owns a
/// level-triggered epoll set (listener + eventfd + every connection),
/// decodes length-prefixed request frames (serve/protocol.h), and feeds
/// them to the BatchServer's wave dispatcher through the non-blocking
/// TrySubmit path. Scoring happens on the BatchServer's dispatcher + the
/// shared thread pool as before — the loop thread only moves bytes — and a
/// completed wave hands its responses back to the loop through an eventfd
/// wakeup, so the loop never blocks on scoring and scoring never touches a
/// socket.
///
/// Admission is the BatchServer's bounded queue: a request hitting
/// max_queue_requests is answered OVERLOADED immediately (load shedding),
/// one arriving after shutdown began is answered SHUTTING_DOWN, and one
/// naming a user or object outside the model's feature space is answered
/// BAD_REQUEST — one hostile frame costs a rejection, never the process.
/// Served rankings are bit-identical to calling BatchServer::Submit in
/// process — the wire adds framing, never arithmetic.
///
/// Robustness contract: a malformed frame (bad magic, oversized declared
/// length, inconsistent element counts) fails that CONNECTION, never the
/// process; a client disconnecting mid-request only drops its own
/// responses; a slow reader is throttled by write backpressure. Shutdown()
/// (idempotent, called by the destructor) stops accepting, drains every
/// admitted request through BatchServer::Shutdown, flushes pending
/// responses (for at most 5 s), and joins the loop.
///
/// The BatchServer is borrowed and must outlive this object; Shutdown()
/// shuts the BatchServer down as part of the drain.
class RpcServer {
 public:
  explicit RpcServer(BatchServer* batch, RpcServerOptions options = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens, and starts the event-loop thread. Returns IoError when
  /// the socket/bind/listen/epoll setup fails (port in use, bad address).
  Status Start();

  /// Graceful drain: stop accepting, serve everything admitted (via
  /// BatchServer::Shutdown), flush responses, close connections, join the
  /// loop. Idempotent and safe to call concurrently with itself.
  void Shutdown();

  /// The bound port (the kernel's pick when options.port was 0). Valid
  /// after a successful Start().
  uint16_t port() const { return port_; }

  RpcServerStats stats() const;

  /// Connections currently held by the loop (diagnostic).
  size_t open_connections() const;

 private:
  struct Connection;
  struct Completion {
    uint64_t conn_id = 0;
    std::string wire;  // one encoded response frame
  };

  void Loop();
  void AcceptAll();
  void HandleConnEvent(uint64_t conn_id, uint32_t events);
  /// Reads until EAGAIN, feeding the connection's FrameReader. Returns
  /// false when the connection was closed.
  bool HandleRead(Connection* conn);
  /// Decodes and dispatches every complete buffered frame. Returns false
  /// when a framing/decoding error closed the connection.
  bool ProcessFrames(Connection* conn);
  /// Processes the connection's mandatory first frame. A well-formed HELLO
  /// with a matching protocol version is acked (status OK) and unlocks the
  /// connection for requests; anything else — a version mismatch, or a v1
  /// client sending a request first — is answered with a BAD_REQUEST ack
  /// naming the problem precisely, then the connection is closed. Returns
  /// false when the connection was closed.
  bool HandleHello(Connection* conn, const std::string& payload);
  void HandleRequest(Connection* conn, RpcRequest req);
  /// Replica mode: scores [req.begin, req.end) of the identity catalog
  /// through the BatchServer (same admission/shedding as slate requests)
  /// and answers with a shard response carrying raw scores.
  void HandleShardRequest(Connection* conn, RpcShardRequest req);
  /// Immediate non-OK shard response (bad range, shed, shutting down).
  void SendShardError(Connection* conn, uint64_t request_id, RpcStatus status);
  /// Counts a request TrySubmit did not admit and returns the status it is
  /// answered with (OVERLOADED, SHUTTING_DOWN or BAD_REQUEST).
  RpcStatus CountRejection(BatchServer::AdmitResult admit)
      SEQFM_EXCLUDES(mu_);
  /// Called on the BatchServer dispatcher thread when a wave completes.
  void OnWaveComplete(uint64_t conn_id, uint64_t request_id,
                      std::vector<ScoredItem> items);
  /// Shard-request flavor of OnWaveComplete: re-labels the ScoredItems as
  /// RpcShardEntries (pos == item under the identity catalog) and stamps
  /// the model version.
  void OnShardComplete(uint64_t conn_id, uint64_t request_id,
                       std::vector<ScoredItem> items);
  /// Appends one encoded frame to the connection's write buffer, attempts a
  /// synchronous flush, and applies backpressure. Returns false when the
  /// flush failed and closed the connection.
  bool EnqueueResponse(Connection* conn, const std::string& wire);
  /// Writes buffered bytes until EAGAIN/empty; rearms EPOLLOUT/EPOLLIN as
  /// needed. Returns false when a write error closed the connection.
  bool FlushWrites(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CloseConn(uint64_t conn_id);
  void DrainCompletions();
  void SignalWakeup();

  BatchServer* batch_;
  RpcServerOptions options_;
  /// Owned identity-catalog slice in replica mode (both 0 otherwise);
  /// computed once from ShardBounds in the constructor.
  uint64_t shard_begin_ = 0;
  uint64_t shard_end_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_;

  /// Epoll-thread-only state: id -> connection. Other threads refer to
  /// connections by id (via completions_), never by pointer, so a close is
  /// a plain erase here.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = eventfd

  /// Ranked above BatchServer::serve_mu_: OnWaveComplete runs on the
  /// dispatcher thread with serve_mu_ held and must enqueue completions.
  mutable util::OrderedMutex mu_{"RpcServer::mu_",
                                 util::lock_rank::kRpcCompletions};
  std::vector<Completion> completions_ SEQFM_GUARDED_BY(mu_);
  RpcServerStats stats_ SEQFM_GUARDED_BY(mu_);
  std::atomic<size_t> open_connections_{0};

  std::atomic<bool> stopping_{false};  // stop accepting new connections
  std::atomic<bool> draining_{false};  // flush + close + exit the loop

  /// Serializes Shutdown callers (idempotence + single join). Outermost
  /// rank: Shutdown holds it across BatchServer::Shutdown (which takes the
  /// batch queue lock to drain).
  util::OrderedMutex shutdown_mu_{"RpcServer::shutdown_mu_",
                                  util::lock_rank::kRpcShutdown};
  bool started_ SEQFM_GUARDED_BY(shutdown_mu_) = false;
  bool joined_ SEQFM_GUARDED_BY(shutdown_mu_) = false;
};

/// Client-side knobs. All-zero defaults reproduce the fully blocking v1
/// behavior (no timeouts). There is no capability knob: servers never read
/// a client's HELLO capabilities, so every client announces none (0).
struct RpcClientOptions {
  /// Bound on establishing the connection INCLUDING the handshake: TCP
  /// connect + HELLO/HELLO_ACK. 0 blocks indefinitely. A server that
  /// accepts but never answers (hung replica, full accept backlog) turns
  /// into a timed-out Status instead of a hang.
  int64_t connect_timeout_ms = 0;
  /// Per-syscall bound on Send/Read after the handshake (SO_SNDTIMEO /
  /// SO_RCVTIMEO). 0 blocks indefinitely. The coordinator sets this to its
  /// per-replica budget so a replica dying mid-call can never wedge a merge.
  int64_t io_timeout_ms = 0;
};

/// \brief Minimal blocking client for the RPC protocol (tests, examples,
/// the coordinator's replica channel, and the parity legs of bench_loadgen;
/// the open-loop load generator runs its own non-blocking loop instead).
///
/// Connect() performs the protocol-v2 handshake transparently: it sends a
/// HELLO and fails with a precise error if the server answers with a
/// non-OK ack (version mismatch) or closes without answering (a pre-v2
/// server). The accepted ack — the server's model version and, for
/// replicas, its owned catalog slice — is kept readable via server_info().
///
/// Responses on a connection are matched by request id — a shed request is
/// answered ahead of earlier admitted ones — so Call() discards responses
/// to other ids (none exist when requests are strictly serial).
class RpcClient {
 public:
  RpcClient() = default;
  ~RpcClient() { Close(); }

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Connects a blocking TCP socket and performs the HELLO handshake.
  /// \p host must be a numeric IPv4 address ("127.0.0.1"). With
  /// options.connect_timeout_ms set, a server that cannot be reached — or
  /// accepts but never completes the handshake — yields a timed-out
  /// IoError within the bound instead of blocking forever.
  Status Connect(const std::string& host, uint16_t port,
                 RpcClientOptions options = {});

  /// Writes one request frame (blocking until fully written, bounded by
  /// io_timeout_ms when set).
  Status Send(const RpcRequest& req);

  /// Blocks until the next complete response frame arrives. IoError when
  /// the server closes the connection first or io_timeout_ms expires.
  Status ReadResponse(RpcResponse* out);

  /// Send + read until the response matching req.id arrives.
  Status Call(const RpcRequest& req, RpcResponse* out);

  /// Shard-scoped flavors of Send/ReadResponse/Call (replica servers only).
  Status SendShard(const RpcShardRequest& req);
  Status ReadShardResponse(RpcShardResponse* out);
  Status CallShard(const RpcShardRequest& req, RpcShardResponse* out);

  void Close();
  bool connected() const { return fd_ >= 0; }
  /// The server's accepted HELLO_ACK (valid after a successful Connect):
  /// protocol version, capabilities, model version, owned catalog slice.
  const RpcHelloAck& server_info() const { return server_info_; }
  /// The raw socket, for tests that need to write bytes below the client
  /// abstraction (split frames, garbage).
  int fd() const { return fd_; }

 private:
  /// Blocking full write of an encoded frame; EAGAIN (send timeout) is a
  /// timed-out IoError.
  Status SendWire(const std::string& wire);
  /// Reads until one complete frame payload is buffered.
  Status ReadFrame(std::string* payload);

  int fd_ = -1;
  int64_t io_timeout_ms_ = 0;
  FrameReader reader_;
  RpcHelloAck server_info_;
};

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_RPC_SERVER_H_
