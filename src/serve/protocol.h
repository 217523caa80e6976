#ifndef SEQFM_SERVE_PROTOCOL_H_
#define SEQFM_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/predictor.h"
#include "util/status.h"

namespace seqfm {
namespace serve {

/// \brief Wire format of the TCP serving tier (see serve::RpcServer).
///
/// Every message is one length-prefixed frame, little-endian:
///
///   uint32 magic 'SQRP' | uint32 payload_len | payload[payload_len]
///
/// and every payload starts with a one-byte frame type. Request payloads
/// (client -> server):
///
///   uint8 type (=kRequestFrame) | uint64 request_id | int32 user |
///   uint32 k | uint32 history_len | uint32 slate_len |
///   int32 history[history_len] | int32 slate[slate_len]
///
/// Response payloads (server -> client):
///
///   uint8 type (=kResponseFrame) | uint64 request_id | uint8 status |
///   uint32 count | { int32 item, float score } * count
///
/// The request_id is an opaque client token echoed back verbatim; responses
/// on one connection are NOT ordered (a shed request is answered immediately
/// while earlier admitted ones are still in their wave), so clients must
/// match responses to requests by id. Framing is validated defensively: a
/// bad magic, a declared payload_len above the reader's limit, or a payload
/// that does not exactly match its declared element counts fails the
/// CONNECTION with a Status — never the process.
///
/// Since protocol version 2 every connection starts with a handshake: the
/// client's FIRST frame must be a HELLO
///
///   uint8 type (=kHelloFrame) | uint32 protocol_version |
///   uint32 capabilities
///
/// answered by exactly one HELLO_ACK
///
///   uint8 type (=kHelloAckFrame) | uint8 status | uint32 protocol_version |
///   uint32 capabilities | uint64 model_version | uint32 shard_index |
///   uint32 num_shards | uint64 shard_begin | uint64 shard_end |
///   uint64 catalog_size | uint32 message_len | message bytes
///
/// A version mismatch (either direction) is answered with status
/// BAD_REQUEST and a message naming both versions, then the connection is
/// closed — a precise error instead of a decode mystery. A v1 client that
/// sends a request as its first frame gets the same treatment. The ack also
/// carries the server's model version and (for replicas) its owned catalog
/// slice, which is what lets a coordinator refuse to merge across model
/// versions before a single request is sent.
///
/// Distributed serving adds shard-scoped frames. A shard request
/// (coordinator -> replica) scores positions [begin, end) of the replica's
/// own identity catalog — the slate is never shipped:
///
///   uint8 type (=kShardRequestFrame) | uint64 request_id | int32 user |
///   uint32 k | uint64 begin | uint64 end | uint32 history_len |
///   int32 history[history_len]
///
/// and the shard response carries the replica's bounded top-K with RAW
/// float scores and GLOBAL catalog positions, best first under
/// serve::RankBefore, plus the model version the entries were scored under:
///
///   uint8 type (=kShardResponseFrame) | uint64 request_id | uint8 status |
///   uint64 model_version | uint32 count |
///   { int32 item, float score, uint64 pos } * count
///
/// Raw scores on the wire are load-bearing: the coordinator's k-way merge
/// (serve::MergeSortedRuns) must reproduce single-process rankings bit for
/// bit, so nothing may round or re-derive a score in transit.

/// First four bytes of every frame ("SQRP" little-endian).
constexpr uint32_t kRpcMagic = 0x50525153;

/// Frame header: magic + payload length.
constexpr size_t kRpcFrameHeaderBytes = 8;

/// Wire protocol version, announced in the HELLO/HELLO_ACK handshake.
/// History: v1 = PR 7 request/response frames, no handshake; v2 = mandatory
/// handshake + shard-scoped scoring + PARTIAL status.
constexpr uint32_t kRpcProtocolVersion = 2;

/// Capability bits carried in the handshake.
/// Server answers shard-scoped score requests (replica mode).
constexpr uint32_t kRpcCapShardScoring = 1u << 0;

/// Payload type byte.
constexpr uint8_t kRequestFrame = 1;
constexpr uint8_t kResponseFrame = 2;
constexpr uint8_t kHelloFrame = 3;
constexpr uint8_t kHelloAckFrame = 4;
constexpr uint8_t kShardRequestFrame = 5;
constexpr uint8_t kShardResponseFrame = 6;

/// Per-frame payload cap (1 MiB ~ a 260k-candidate slate), on both ends of
/// every connection. A frame declaring more poisons the stream.
constexpr size_t kDefaultMaxFrameBytes = 1u << 20;

/// Response status byte.
enum class RpcStatus : uint8_t {
  kOk = 0,
  /// Admission queue at BatchServerOptions::max_queue_requests — the request
  /// was shed, not queued. Clients may retry after backing off.
  kOverloaded = 1,
  /// The server is draining for shutdown; no new work is admitted.
  kShuttingDown = 2,
  /// The request decoded but was semantically unusable.
  kBadRequest = 3,
  /// Degraded result: a coordinator merged fewer than all shards (replica
  /// failure or per-replica timeout). The items carried are a correct
  /// ranking of the shards that DID answer.
  kPartial = 4,
};

/// Human-readable status name for logs ("OK", "OVERLOADED", ...).
const char* RpcStatusToString(RpcStatus status);

/// One scoring request: rank `slate` for (user, history) and return the
/// top k. Mirrors BatchServer::Submit(ex, candidates, k).
struct RpcRequest {
  uint64_t id = 0;
  int32_t user = 0;
  uint32_t k = 0;
  std::vector<int32_t> history;
  std::vector<int32_t> slate;
};

/// One response: the ranked top-K (RankBefore order) on kOk, empty items
/// otherwise.
struct RpcResponse {
  uint64_t id = 0;
  RpcStatus status = RpcStatus::kOk;
  std::vector<ScoredItem> items;
};

/// The client's opening handshake frame.
struct RpcHello {
  uint32_t protocol_version = kRpcProtocolVersion;
  uint32_t capabilities = 0;
};

/// The server's handshake answer. status kOk accepts the connection; any
/// other status carries a precise human-readable \p message (version
/// mismatch, missing hello) and the server closes the connection after
/// sending it. On kOk the ack doubles as the replica's self-description:
/// model version and — when kRpcCapShardScoring is set — the owned
/// identity-catalog slice.
struct RpcHelloAck {
  RpcStatus status = RpcStatus::kOk;
  uint32_t protocol_version = kRpcProtocolVersion;
  uint32_t capabilities = 0;
  uint64_t model_version = 0;
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  uint64_t shard_begin = 0;
  uint64_t shard_end = 0;
  uint64_t catalog_size = 0;
  std::string message;
};

/// One shard-scoped scoring request: rank positions [begin, end) of the
/// replica's identity catalog for (user, history) and return the top k with
/// raw scores. [begin, end) must lie inside the replica's owned slice.
struct RpcShardRequest {
  uint64_t id = 0;
  int32_t user = 0;
  uint32_t k = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
  std::vector<int32_t> history;
};

/// One entry of a shard response: raw score, item id, and the item's GLOBAL
/// position in the replica's catalog (== item id under the identity
/// catalog). Mirrors serve::RankEntry, fixed-width for the wire.
struct RpcShardEntry {
  int32_t item = 0;
  float score = 0.0f;
  uint64_t pos = 0;
};

/// One shard response: the replica's top-min(k, end - begin), sorted best
/// first under serve::RankBefore, on kOk; empty entries otherwise.
/// model_version names the parameters the entries were scored under so a
/// coordinator can refuse to merge across a mid-flight checkpoint swap.
struct RpcShardResponse {
  uint64_t id = 0;
  RpcStatus status = RpcStatus::kOk;
  uint64_t model_version = 0;
  std::vector<RpcShardEntry> entries;
};

/// Serializes one message as one complete frame appended to \p wire.
void AppendRequestFrame(const RpcRequest& req, std::string* wire);
void AppendResponseFrame(const RpcResponse& resp, std::string* wire);
void AppendHelloFrame(const RpcHello& hello, std::string* wire);
void AppendHelloAckFrame(const RpcHelloAck& ack, std::string* wire);
void AppendShardRequestFrame(const RpcShardRequest& req, std::string* wire);
void AppendShardResponseFrame(const RpcShardResponse& resp,
                              std::string* wire);

/// Parses a frame payload (the bytes after the 8-byte header). Returns
/// InvalidArgument when the type byte, element counts, or total size are
/// inconsistent — the payload length must match its contents exactly, so a
/// truncated or padded frame can never half-parse.
Status DecodeRequest(const std::string& payload, RpcRequest* out);
Status DecodeResponse(const std::string& payload, RpcResponse* out);
Status DecodeHello(const std::string& payload, RpcHello* out);
Status DecodeHelloAck(const std::string& payload, RpcHelloAck* out);
Status DecodeShardRequest(const std::string& payload, RpcShardRequest* out);
Status DecodeShardResponse(const std::string& payload, RpcShardResponse* out);

/// The payload's leading type byte (0 for an empty payload) — how a server
/// routes a decoded frame without trial-parsing every message type.
inline uint8_t FrameType(const std::string& payload) {
  return payload.empty() ? 0 : static_cast<uint8_t>(payload[0]);
}

/// \brief Incremental frame extractor for one TCP byte stream.
///
/// Feed() appends whatever bytes the socket produced — frames may arrive
/// split at any offset or coalesced many-per-read — and Next() yields each
/// complete payload once its length prefix is satisfied. A framing
/// violation (bad magic, declared payload above kDefaultMaxFrameBytes)
/// returns InvalidArgument and poisons the reader: the stream has lost sync
/// and the connection must be closed.
class FrameReader {
 public:
  /// Appends \p n raw bytes from the wire.
  void Feed(const char* data, size_t n);

  /// Extracts the next complete frame payload into *payload, setting *got.
  /// OK + *got=false means "need more bytes". InvalidArgument means the
  /// stream is corrupt (and every later call fails the same way).
  Status Next(std::string* payload, bool* got);

  /// Bytes buffered but not yet returned as frames.
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  bool poisoned_ = false;
};

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_PROTOCOL_H_
