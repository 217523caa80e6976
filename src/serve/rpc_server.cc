#include "serve/rpc_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "serve/shard.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace seqfm {
namespace serve {

namespace {

constexpr uint64_t kListenerId = 0;
constexpr uint64_t kEventFdId = 1;

/// Write backpressure: once a connection's unflushed response bytes exceed
/// this, the server stops READING that connection (its requests wait in
/// kernel buffers) until the client drains below half of it — a slow reader
/// throttles itself instead of growing server memory.
constexpr size_t kMaxWriteBufferBytes = 4u << 20;
/// Connections held concurrently; accepts beyond this are closed at once.
constexpr size_t kMaxConnections = 1024;
/// Graceful-drain deadline: at Shutdown, connections get this long to drain
/// their pending response bytes before being force-closed, so a stalled
/// client can never wedge Shutdown.
constexpr int64_t kDrainTimeoutMs = 5000;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Applies \p ms as both SO_RCVTIMEO and SO_SNDTIMEO; 0 clears them (block
/// indefinitely). A timed-out syscall then fails with EAGAIN, which the
/// client maps to a precise "timed out" Status.
void SetSocketTimeouts(int fd, int64_t ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

/// Per-connection state, owned and touched by the loop thread only.
struct RpcServer::Connection {
  int fd = -1;
  uint64_t id = 0;
  FrameReader reader;
  std::string out;      // encoded responses not yet fully written
  size_t out_pos = 0;   // flushed prefix of out
  bool want_write = false;   // EPOLLOUT armed
  bool paused_read = false;  // EPOLLIN disarmed by write backpressure
  bool hello_done = false;   // handshake accepted; requests may flow

  size_t pending_out() const { return out.size() - out_pos; }
};

RpcServer::RpcServer(BatchServer* batch, RpcServerOptions options)
    : batch_(batch), options_(std::move(options)) {
  SEQFM_CHECK(batch_ != nullptr) << "RpcServer: null BatchServer";
  if (options_.catalog_size > 0) {
    SEQFM_CHECK_GT(options_.num_shards, 0u);
    SEQFM_CHECK_LT(options_.shard_index, options_.num_shards);
    const std::vector<size_t> bounds =
        ShardBounds(options_.catalog_size, options_.num_shards);
    shard_begin_ = bounds[options_.shard_index];
    shard_end_ = bounds[options_.shard_index + 1];
  }
}

RpcServer::~RpcServer() { Shutdown(); }

Status RpcServer::Start() {
  {
    util::OrderedMutexLock lock(shutdown_mu_);
    if (started_) return Status::FailedPrecondition("RpcServer::Start twice");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IoError(Errno("rpc: socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("rpc: bad bind address " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = Status::IoError(Errno("rpc: bind"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status st = Status::IoError(Errno("rpc: listen"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    const Status st = Status::IoError(Errno("rpc: getsockname"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    const Status st = Status::IoError(Errno("rpc: epoll_create1/eventfd"));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (event_fd_ >= 0) ::close(event_fd_);
    ::close(listen_fd_);
    listen_fd_ = epoll_fd_ = event_fd_ = -1;
    return st;
  }
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kEventFdId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

  {
    util::OrderedMutexLock lock(shutdown_mu_);
    started_ = true;
  }
  loop_ = std::thread([this]() { Loop(); });
  return Status::OK();
}

void RpcServer::Shutdown() {
  // Serializing the whole sequence makes Shutdown idempotent and gives every
  // caller the post-condition "all admitted requests answered, loop joined"
  // — the same guarantee BatchServer::Shutdown documents.
  util::OrderedMutexLock lock(shutdown_mu_);
  if (!started_ || joined_) return;
  stopping_.store(true, std::memory_order_release);
  SignalWakeup();  // loop closes the listener: no new connections
  // Drain the wave dispatcher. Every admitted request's callback fires
  // before this returns, so every response is in completions_ by the time
  // the drain phase below starts flushing.
  batch_->Shutdown();
  draining_.store(true, std::memory_order_release);
  SignalWakeup();  // loop flushes write buffers, closes conns, exits
  loop_.join();
  joined_ = true;
}

RpcServerStats RpcServer::stats() const {
  util::OrderedMutexLock lock(mu_);
  return stats_;
}

size_t RpcServer::open_connections() const {
  return open_connections_.load(std::memory_order_relaxed);
}

void RpcServer::SignalWakeup() {
  const uint64_t one = 1;
  // The eventfd is a counter: writes accumulate, the loop's read clears.
  // EAGAIN (counter saturated) still leaves it readable, so the wakeup is
  // never lost.
  [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

void RpcServer::Loop() {
  bool listener_open = true;
  bool drain_deadline_set = false;
  std::chrono::steady_clock::time_point drain_deadline;
  epoll_event events[64];
  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    // While draining, poll so the drain deadline fires even if no fd does.
    const int timeout_ms = draining ? 20 : -1;
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      SEQFM_LOG(Warning) << "rpc: epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        if (listener_open) AcceptAll();
      } else if (id == kEventFdId) {
        uint64_t val = 0;
        [[maybe_unused]] ssize_t r = ::read(event_fd_, &val, sizeof(val));
        DrainCompletions();
      } else {
        HandleConnEvent(id, events[i].events);
      }
    }
    if (stopping_.load(std::memory_order_acquire) && listener_open) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      listener_open = false;
    }
    if (draining) {
      // Late completions may still be queued (the eventfd event and the
      // draining flag race benignly); sweep them before judging emptiness.
      DrainCompletions();
      if (!drain_deadline_set) {
        drain_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(kDrainTimeoutMs);
        drain_deadline_set = true;
      }
      const bool expired = std::chrono::steady_clock::now() >= drain_deadline;
      // Close everything flushed (or everything, once the deadline passes —
      // a stalled client must not wedge Shutdown). Collect ids first:
      // CloseConn mutates conns_.
      std::vector<uint64_t> to_close;
      for (const auto& [id, conn] : conns_) {
        if (conn->pending_out() == 0 || expired) to_close.push_back(id);
      }
      for (uint64_t id : to_close) CloseConn(id);
      if (conns_.empty()) break;
    }
  }
  // Loop exit: release the epoll set and any stragglers.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConn(id);
  if (listener_open) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::close(epoll_fd_);
  ::close(event_fd_);
  epoll_fd_ = event_fd_ = -1;
}

void RpcServer::AcceptAll() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      SEQFM_LOG(Warning) << "rpc: accept failed: " << std::strerror(errno);
      return;
    }
    if (conns_.size() >= kMaxConnections ||
        stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(conn->id, std::move(conn));
    open_connections_.store(conns_.size(), std::memory_order_relaxed);
    util::OrderedMutexLock lock(mu_);
    ++stats_.connections_accepted;
  }
}

void RpcServer::HandleConnEvent(uint64_t conn_id, uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // closed earlier this iteration
  Connection* conn = it->second.get();
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseConn(conn_id);
    return;
  }
  if (events & EPOLLOUT) {
    if (!FlushWrites(conn)) return;
  }
  if (events & EPOLLIN) {
    if (!HandleRead(conn)) return;
  }
}

bool RpcServer::HandleRead(Connection* conn) {
  if (util::FailPoint::Trigger("rpc.server.read") != 0) {
    // Injected transport failure: the connection dies exactly as it would
    // on a real ECONNRESET — close, drop pending responses, never answer.
    CloseConn(conn->id);
    return false;
  }
  char buf[65536];
  for (;;) {
    const ssize_t r = ::read(conn->fd, buf, sizeof(buf));
    if (r > 0) {
      conn->reader.Feed(buf, static_cast<size_t>(r));
      if (!ProcessFrames(conn)) return false;
      if (static_cast<size_t>(r) < sizeof(buf)) return true;  // drained
      // Backpressure may have disarmed EPOLLIN mid-burst; stop pulling more
      // bytes for this connection and let the kernel buffer throttle it.
      if (conn->paused_read) return true;
      continue;
    }
    if (r == 0) {  // peer closed (possibly mid-request; callbacks will drop)
      CloseConn(conn->id);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    CloseConn(conn->id);
    return false;
  }
}

bool RpcServer::ProcessFrames(Connection* conn) {
  std::string payload;
  bool got = false;
  for (;;) {
    if (Status st = conn->reader.Next(&payload, &got); !st.ok()) {
      SEQFM_LOG(Warning) << "rpc: closing connection: " << st.ToString();
      {
        util::OrderedMutexLock lock(mu_);
        ++stats_.protocol_errors;
      }
      CloseConn(conn->id);
      return false;
    }
    if (!got) return true;
    // The handshake gates everything: until the HELLO is accepted, no frame
    // is counted as request traffic and no request is dispatched.
    if (!conn->hello_done) {
      if (!HandleHello(conn, payload)) return false;
      continue;
    }
    {
      util::OrderedMutexLock lock(mu_);
      ++stats_.frames_received;
    }
    Status st;
    const uint8_t type = FrameType(payload);
    if (type == kRequestFrame) {
      RpcRequest req;
      st = DecodeRequest(payload, &req);
      if (st.ok()) HandleRequest(conn, std::move(req));
    } else if (type == kShardRequestFrame) {
      RpcShardRequest req;
      st = DecodeShardRequest(payload, &req);
      if (st.ok()) HandleShardRequest(conn, std::move(req));
    } else {
      st = Status::InvalidArgument("rpc: unexpected frame type " +
                                   std::to_string(type));
    }
    if (!st.ok()) {
      SEQFM_LOG(Warning) << "rpc: closing connection: " << st.ToString();
      {
        util::OrderedMutexLock lock(mu_);
        ++stats_.protocol_errors;
      }
      CloseConn(conn->id);
      return false;
    }
    // The handlers can only close the connection via a failed response
    // flush; detect that by re-looking the id up.
    if (conns_.find(conn->id) == conns_.end()) return false;
  }
}

bool RpcServer::HandleHello(Connection* conn, const std::string& payload) {
  RpcHelloAck ack;
  ack.capabilities = options_.catalog_size > 0 ? kRpcCapShardScoring : 0;
  ack.model_version = options_.model_version;
  ack.shard_index = options_.shard_index;
  ack.num_shards = options_.num_shards;
  ack.shard_begin = shard_begin_;
  ack.shard_end = shard_end_;
  ack.catalog_size = options_.catalog_size;
  RpcHello hello;
  const uint8_t type = FrameType(payload);
  if (type != kHelloFrame) {
    ack.status = RpcStatus::kBadRequest;
    ack.message = "rpc: connection must start with a HELLO (this server "
                  "speaks protocol v" +
                  std::to_string(kRpcProtocolVersion) + "); got frame type " +
                  std::to_string(type) +
                  " first — the client speaks protocol v1 or earlier";
  } else if (Status st = DecodeHello(payload, &hello); !st.ok()) {
    ack.status = RpcStatus::kBadRequest;
    ack.message = "rpc: malformed HELLO: " + st.ToString();
  } else if (hello.protocol_version != kRpcProtocolVersion) {
    ack.status = RpcStatus::kBadRequest;
    ack.message = "rpc: protocol version mismatch: client speaks v" +
                  std::to_string(hello.protocol_version) +
                  ", server speaks v" +
                  std::to_string(kRpcProtocolVersion);
  }
  if (ack.status != RpcStatus::kOk) {
    SEQFM_LOG(Warning) << "rpc: rejecting handshake: " << ack.message;
    util::OrderedMutexLock lock(mu_);
    ++stats_.protocol_errors;
  } else {
    // Count the accepted handshake BEFORE the ack hits the wire: a client
    // whose Connect() has returned must observe handshakes_ok >= 1, so the
    // increment has to be ordered before the bytes it synchronizes with.
    util::OrderedMutexLock lock(mu_);
    ++stats_.handshakes_ok;
  }
  std::string wire;
  AppendHelloAckFrame(ack, &wire);
  const bool alive = EnqueueResponse(conn, wire);
  if (ack.status != RpcStatus::kOk) {
    // Precise error first, then close. The ack is one small frame, so the
    // synchronous flush inside EnqueueResponse delivers it before the FIN.
    if (alive) CloseConn(conn->id);
    return false;
  }
  if (!alive) return false;
  conn->hello_done = true;
  return true;
}

void RpcServer::HandleRequest(Connection* conn, RpcRequest req) {
  data::SequenceExample ex;
  ex.user = req.user;
  ex.history = std::move(req.history);
  const uint64_t conn_id = conn->id;
  const uint64_t request_id = req.id;
  const BatchServer::AdmitResult admit = batch_->TrySubmit(
      ex, std::move(req.slate), req.k,
      [this, conn_id, request_id](std::vector<ScoredItem> items) {
        OnWaveComplete(conn_id, request_id, std::move(items));
      });
  if (admit == BatchServer::AdmitResult::kAdmitted) return;
  RpcResponse resp;
  resp.id = request_id;
  resp.status = CountRejection(admit);
  std::string wire;
  AppendResponseFrame(resp, &wire);
  EnqueueResponse(conn, wire);
}

RpcStatus RpcServer::CountRejection(BatchServer::AdmitResult admit) {
  util::OrderedMutexLock lock(mu_);
  switch (admit) {
    case BatchServer::AdmitResult::kOverloaded:
      ++stats_.requests_shed;
      return RpcStatus::kOverloaded;
    case BatchServer::AdmitResult::kShutdown:
      ++stats_.requests_rejected_shutdown;
      return RpcStatus::kShuttingDown;
    case BatchServer::AdmitResult::kBadRequest:
    case BatchServer::AdmitResult::kAdmitted:  // not a rejection; unreachable
      break;
  }
  ++stats_.requests_bad;
  return RpcStatus::kBadRequest;
}

void RpcServer::HandleShardRequest(Connection* conn, RpcShardRequest req) {
  if (options_.catalog_size == 0) {
    // Not a replica: reject precisely instead of scoring a catalog this
    // server does not own.
    {
      util::OrderedMutexLock lock(mu_);
      ++stats_.requests_bad;
    }
    SendShardError(conn, req.id, RpcStatus::kBadRequest);
    return;
  }
  if (req.begin > req.end || req.begin < shard_begin_ ||
      req.end > shard_end_) {
    SEQFM_LOG(Warning) << "rpc: shard request [" << req.begin << ", "
                       << req.end << ") outside owned slice [" << shard_begin_
                       << ", " << shard_end_ << ")";
    {
      util::OrderedMutexLock lock(mu_);
      ++stats_.requests_bad;
    }
    SendShardError(conn, req.id, RpcStatus::kBadRequest);
    return;
  }
  if (util::FailPoint::Trigger("rpc.server.shard.drop") != 0) {
    // Slow-replica simulation: the request was accepted (TCP-ack'd, decoded,
    // counted) but no response will ever be produced. The client's io
    // timeout is the only thing that can end the wait — exactly the
    // accepts-but-never-answers failure mode of a wedged process.
    util::OrderedMutexLock lock(mu_);
    ++stats_.requests_dropped;
    return;
  }
  data::SequenceExample ex;
  ex.user = req.user;
  ex.history = std::move(req.history);
  // The replica owns the identity catalog, so the slate is materialized
  // here — [begin, end) item ids — instead of shipped over the wire.
  std::vector<int32_t> candidates;
  candidates.reserve(static_cast<size_t>(req.end - req.begin));
  for (uint64_t p = req.begin; p < req.end; ++p) {
    candidates.push_back(static_cast<int32_t>(p));
  }
  const uint64_t conn_id = conn->id;
  const uint64_t request_id = req.id;
  const size_t k = std::min<uint64_t>(req.k, req.end - req.begin);
  const BatchServer::AdmitResult admit = batch_->TrySubmit(
      ex, std::move(candidates), k,
      [this, conn_id, request_id](std::vector<ScoredItem> items) {
        OnShardComplete(conn_id, request_id, std::move(items));
      });
  if (admit != BatchServer::AdmitResult::kAdmitted) {
    SendShardError(conn, request_id, CountRejection(admit));
  }
}

void RpcServer::SendShardError(Connection* conn, uint64_t request_id,
                               RpcStatus status) {
  RpcShardResponse resp;
  resp.id = request_id;
  resp.status = status;
  resp.model_version = options_.model_version;
  std::string wire;
  AppendShardResponseFrame(resp, &wire);
  EnqueueResponse(conn, wire);
}

void RpcServer::OnShardComplete(uint64_t conn_id, uint64_t request_id,
                                std::vector<ScoredItem> items) {
  RpcShardResponse resp;
  resp.id = request_id;
  resp.status = RpcStatus::kOk;
  resp.model_version = options_.model_version;
  resp.entries.reserve(items.size());
  for (const ScoredItem& item : items) {
    // Identity catalog: an item's global position IS its id, so the
    // coordinator's ScoredItem -> RankEntry reconstruction is lossless and
    // the merged order matches the single-process RankBefore order exactly.
    resp.entries.push_back(
        {item.item, item.score, static_cast<uint64_t>(item.item)});
  }
  Completion completion;
  completion.conn_id = conn_id;
  AppendShardResponseFrame(resp, &completion.wire);
  {
    util::OrderedMutexLock lock(mu_);
    completions_.push_back(std::move(completion));
    ++stats_.requests_ok;
  }
  SignalWakeup();
}

void RpcServer::OnWaveComplete(uint64_t conn_id, uint64_t request_id,
                               std::vector<ScoredItem> items) {
  // Dispatcher thread: encode, queue, wake the loop. No connection state is
  // touched here — the id survives a concurrent close (the completion is
  // simply dropped at drain time).
  RpcResponse resp;
  resp.id = request_id;
  resp.status = RpcStatus::kOk;
  resp.items = std::move(items);
  Completion completion;
  completion.conn_id = conn_id;
  AppendResponseFrame(resp, &completion.wire);
  {
    util::OrderedMutexLock lock(mu_);
    completions_.push_back(std::move(completion));
    ++stats_.requests_ok;
  }
  SignalWakeup();
}

void RpcServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    util::OrderedMutexLock lock(mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // client disconnected mid-request
    EnqueueResponse(it->second.get(), completion.wire);
  }
}

bool RpcServer::EnqueueResponse(Connection* conn, const std::string& wire) {
  // Compact the flushed prefix before growing the buffer further.
  if (conn->out_pos > 0 && conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
  } else if (conn->out_pos > 65536 && conn->out_pos > conn->out.size() / 2) {
    conn->out.erase(0, conn->out_pos);
    conn->out_pos = 0;
  }
  conn->out.append(wire);
  return FlushWrites(conn);
}

bool RpcServer::FlushWrites(Connection* conn) {
  if (conn->out_pos < conn->out.size() &&
      util::FailPoint::Trigger("rpc.server.write") != 0) {
    CloseConn(conn->id);  // injected write failure: as-if EPIPE
    return false;
  }
  while (conn->out_pos < conn->out.size()) {
    // MSG_NOSIGNAL: a client that closed mid-write must produce EPIPE, not
    // a process-killing SIGPIPE.
    const ssize_t w = ::send(conn->fd, conn->out.data() + conn->out_pos,
                             conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (w > 0) {
      conn->out_pos += static_cast<size_t>(w);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn->id);  // EPIPE/ECONNRESET: client went away
    return false;
  }
  const bool fully_flushed = conn->out_pos == conn->out.size();
  if (fully_flushed) {
    conn->out.clear();
    conn->out_pos = 0;
  }
  bool interest_changed = false;
  if (conn->want_write == fully_flushed) {
    conn->want_write = !fully_flushed;
    interest_changed = true;
  }
  // Write backpressure: a connection whose client reads too slowly stops
  // being READ once its pending responses pass the high watermark, and
  // resumes below half of it. Its subsequent requests queue in kernel
  // socket buffers (then block the client's send), so server memory per
  // connection stays bounded by kMaxWriteBufferBytes + one socket buffer.
  if (!conn->paused_read && conn->pending_out() > kMaxWriteBufferBytes) {
    conn->paused_read = true;
    interest_changed = true;
    util::OrderedMutexLock lock(mu_);
    ++stats_.backpressure_pauses;
  } else if (conn->paused_read &&
             conn->pending_out() <= kMaxWriteBufferBytes / 2) {
    conn->paused_read = false;
    interest_changed = true;
  }
  if (interest_changed) UpdateInterest(conn);
  return true;
}

void RpcServer::UpdateInterest(Connection* conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = (conn->paused_read ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void RpcServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
  open_connections_.store(conns_.size(), std::memory_order_relaxed);
  util::OrderedMutexLock lock(mu_);
  ++stats_.connections_closed;
}

// ---------------------------------------------------------------------------
// RpcClient
// ---------------------------------------------------------------------------

Status RpcClient::Connect(const std::string& host, uint16_t port,
                          RpcClientOptions options) {
  Close();
  if (int err = util::FailPoint::Trigger("rpc.client.connect"); err != 0) {
    return Status::IoError(std::string("rpc client: injected connect "
                                       "failure: ") +
                           std::strerror(err));
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::IoError(Errno("rpc client: socket"));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("rpc client: bad address " + host);
  }
  if (options.connect_timeout_ms > 0) {
    // Non-blocking connect + poll: an unreachable host fails within the
    // bound instead of the kernel's minutes-long default.
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      if (errno != EINPROGRESS) {
        const Status st = Status::IoError(Errno("rpc client: connect"));
        Close();
        return st;
      }
      pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      const int pr =
          ::poll(&pfd, 1, static_cast<int>(options.connect_timeout_ms));
      if (pr == 0) {
        Close();
        return Status::IoError(
            "rpc client: connect to " + host + ":" + std::to_string(port) +
            " timed out after " + std::to_string(options.connect_timeout_ms) +
            "ms");
      }
      if (pr < 0) {
        const Status st = Status::IoError(Errno("rpc client: poll"));
        Close();
        return st;
      }
      int err = 0;
      socklen_t err_len = sizeof(err);
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &err_len);
      if (err != 0) {
        Close();
        return Status::IoError(std::string("rpc client: connect: ") +
                               std::strerror(err));
      }
    }
    ::fcntl(fd_, F_SETFL, flags);  // back to blocking for the frame I/O
  } else if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    const Status st = Status::IoError(Errno("rpc client: connect"));
    Close();
    return st;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  reader_ = FrameReader();
  server_info_ = RpcHelloAck();

  // Handshake, bounded by the connect timeout: a server that ACCEPTED the
  // TCP connection but never answers the HELLO — a hung process, or a
  // listener whose accept backlog swallowed the connect — must become a
  // timed-out Status, not a hang. (TCP alone can't distinguish these from
  // a healthy server on loopback: the kernel completes the handshake from
  // the backlog before the process ever calls accept.)
  io_timeout_ms_ = options.connect_timeout_ms > 0 ? options.connect_timeout_ms
                                                  : options.io_timeout_ms;
  SetSocketTimeouts(fd_, io_timeout_ms_);
  if (int err = util::FailPoint::Trigger("rpc.client.hello"); err != 0) {
    Close();
    return Status::IoError(std::string("rpc client: injected handshake "
                                       "failure: ") +
                           std::strerror(err));
  }
  RpcHello hello;
  std::string wire;
  AppendHelloFrame(hello, &wire);
  if (Status st = SendWire(wire); !st.ok()) {
    Close();
    return st;
  }
  std::string payload;
  if (Status st = ReadFrame(&payload); !st.ok()) {
    Close();
    return Status::IoError(
        "rpc client: no HELLO_ACK from " + host + ":" +
        std::to_string(port) + " (" + st.ToString() +
        ") — the server may speak protocol v1 or earlier, which has no "
        "handshake");
  }
  RpcHelloAck ack;
  if (Status st = DecodeHelloAck(payload, &ack); !st.ok()) {
    Close();
    return Status::IoError("rpc client: malformed HELLO_ACK: " +
                           st.ToString());
  }
  if (ack.status != RpcStatus::kOk) {
    Close();
    return Status::FailedPrecondition(
        "rpc client: server rejected handshake: " + ack.message);
  }
  server_info_ = ack;
  io_timeout_ms_ = options.io_timeout_ms;
  SetSocketTimeouts(fd_, io_timeout_ms_);
  return Status::OK();
}

Status RpcClient::SendWire(const std::string& wire) {
  if (fd_ < 0) return Status::FailedPrecondition("rpc client: not connected");
  size_t sent = 0;
  while (sent < wire.size()) {
    // Injected EINTR: a delivered signal interrupts the syscall before any
    // byte moves — the loop must retry at the SAME offset.
    if (util::FailPoint::Trigger("rpc.client.send.eintr") != 0) continue;
    // Injected short write: the kernel accepts one byte of this attempt —
    // the loop must resume at sent + 1, not refuse or restart the frame.
    size_t len = wire.size() - sent;
    if (util::FailPoint::Trigger("rpc.client.send.short") != 0) len = 1;
    if (int err = util::FailPoint::Trigger("rpc.client.send"); err != 0) {
      Close();  // see below: a part-written frame poisons the stream
      return Status::IoError(std::string("rpc client: injected write "
                                         "failure: ") +
                             std::strerror(err));
    }
    const ssize_t w = ::send(fd_, wire.data() + sent, len, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    // A failed send may leave a PREFIX of the frame on the wire: nothing
    // sent afterwards would be parsed at a frame boundary, so the
    // connection is unusable. Close it — connected() turning false is what
    // tells the owner (RemoteReplicaBackend) to reconnect rather than
    // desync the stream.
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Close();
      return Status::IoError("rpc client: write timed out after " +
                             std::to_string(io_timeout_ms_) + "ms");
    }
    const Status st = Status::IoError(Errno("rpc client: write"));
    Close();
    return st;
  }
  return Status::OK();
}

Status RpcClient::ReadFrame(std::string* payload) {
  if (fd_ < 0) return Status::FailedPrecondition("rpc client: not connected");
  char buf[65536];
  for (;;) {
    bool got = false;
    if (Status st = reader_.Next(payload, &got); !st.ok()) {
      Close();  // framing desync (or injected torn frame): stream unusable
      return st;
    }
    if (got) return Status::OK();
    if (int err = util::FailPoint::Trigger("rpc.client.read"); err != 0) {
      Close();
      return Status::IoError(std::string("rpc client: injected read "
                                         "failure: ") +
                             std::strerror(err));
    }
    const ssize_t r = ::read(fd_, buf, sizeof(buf));
    if (r > 0) {
      reader_.Feed(buf, static_cast<size_t>(r));
      continue;
    }
    // Every failure below ends the connection: a timeout or reset may have
    // left a partial frame buffered in reader_, and the response stream has
    // no resync point — the owner must reconnect, not read on.
    if (r == 0) {
      Close();
      return Status::IoError("rpc client: connection closed by server");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Close();
      return Status::IoError("rpc client: read timed out after " +
                             std::to_string(io_timeout_ms_) + "ms");
    }
    const Status st = Status::IoError(Errno("rpc client: read"));
    Close();
    return st;
  }
}

Status RpcClient::Send(const RpcRequest& req) {
  std::string wire;
  AppendRequestFrame(req, &wire);
  return SendWire(wire);
}

Status RpcClient::ReadResponse(RpcResponse* out) {
  std::string payload;
  SEQFM_RETURN_NOT_OK(ReadFrame(&payload));
  return DecodeResponse(payload, out);
}

Status RpcClient::Call(const RpcRequest& req, RpcResponse* out) {
  SEQFM_RETURN_NOT_OK(Send(req));
  do {
    SEQFM_RETURN_NOT_OK(ReadResponse(out));
  } while (out->id != req.id);
  return Status::OK();
}

Status RpcClient::SendShard(const RpcShardRequest& req) {
  std::string wire;
  AppendShardRequestFrame(req, &wire);
  return SendWire(wire);
}

Status RpcClient::ReadShardResponse(RpcShardResponse* out) {
  std::string payload;
  SEQFM_RETURN_NOT_OK(ReadFrame(&payload));
  return DecodeShardResponse(payload, out);
}

Status RpcClient::CallShard(const RpcShardRequest& req,
                            RpcShardResponse* out) {
  SEQFM_RETURN_NOT_OK(SendShard(req));
  do {
    SEQFM_RETURN_NOT_OK(ReadShardResponse(out));
  } while (out->id != req.id);
  return Status::OK();
}

void RpcClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace serve
}  // namespace seqfm
