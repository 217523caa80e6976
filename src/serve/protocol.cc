#include "serve/protocol.h"

#include <cstring>

#include "util/failpoint.h"

namespace seqfm {
namespace serve {

namespace {

// All wire integers are little-endian; memcpy-based accessors keep every
// read/write alignment-safe regardless of where a frame lands in the stream
// buffer. The library only targets little-endian hosts (same assumption as
// the checkpoint format), so no byte swapping is performed.
template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(const std::string& in, size_t* pos, T* value) {
  if (in.size() - *pos < sizeof(*value)) return false;
  std::memcpy(value, in.data() + *pos, sizeof(*value));
  *pos += sizeof(*value);
  return true;
}

void AppendFrameHeader(std::string* wire, size_t payload_len) {
  AppendPod(wire, kRpcMagic);
  AppendPod(wire, static_cast<uint32_t>(payload_len));
}

}  // namespace

const char* RpcStatusToString(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk: return "OK";
    case RpcStatus::kOverloaded: return "OVERLOADED";
    case RpcStatus::kShuttingDown: return "SHUTTING_DOWN";
    case RpcStatus::kBadRequest: return "BAD_REQUEST";
    case RpcStatus::kPartial: return "PARTIAL";
  }
  return "UNKNOWN";
}

void AppendRequestFrame(const RpcRequest& req, std::string* wire) {
  const size_t payload_len = 1 + 8 + 4 + 4 + 4 + 4 +
                             4 * req.history.size() + 4 * req.slate.size();
  wire->reserve(wire->size() + kRpcFrameHeaderBytes + payload_len);
  AppendFrameHeader(wire, payload_len);
  AppendPod(wire, kRequestFrame);
  AppendPod(wire, req.id);
  AppendPod(wire, req.user);
  AppendPod(wire, req.k);
  AppendPod(wire, static_cast<uint32_t>(req.history.size()));
  AppendPod(wire, static_cast<uint32_t>(req.slate.size()));
  for (int32_t h : req.history) AppendPod(wire, h);
  for (int32_t s : req.slate) AppendPod(wire, s);
}

void AppendResponseFrame(const RpcResponse& resp, std::string* wire) {
  const size_t payload_len = 1 + 8 + 1 + 4 + 8 * resp.items.size();
  wire->reserve(wire->size() + kRpcFrameHeaderBytes + payload_len);
  AppendFrameHeader(wire, payload_len);
  AppendPod(wire, kResponseFrame);
  AppendPod(wire, resp.id);
  AppendPod(wire, static_cast<uint8_t>(resp.status));
  AppendPod(wire, static_cast<uint32_t>(resp.items.size()));
  for (const ScoredItem& item : resp.items) {
    AppendPod(wire, item.item);
    AppendPod(wire, item.score);
  }
}

void AppendHelloFrame(const RpcHello& hello, std::string* wire) {
  const size_t payload_len = 1 + 4 + 4;
  wire->reserve(wire->size() + kRpcFrameHeaderBytes + payload_len);
  AppendFrameHeader(wire, payload_len);
  AppendPod(wire, kHelloFrame);
  AppendPod(wire, hello.protocol_version);
  AppendPod(wire, hello.capabilities);
}

void AppendHelloAckFrame(const RpcHelloAck& ack, std::string* wire) {
  const size_t payload_len =
      1 + 1 + 4 + 4 + 8 + 4 + 4 + 8 + 8 + 8 + 4 + ack.message.size();
  wire->reserve(wire->size() + kRpcFrameHeaderBytes + payload_len);
  AppendFrameHeader(wire, payload_len);
  AppendPod(wire, kHelloAckFrame);
  AppendPod(wire, static_cast<uint8_t>(ack.status));
  AppendPod(wire, ack.protocol_version);
  AppendPod(wire, ack.capabilities);
  AppendPod(wire, ack.model_version);
  AppendPod(wire, ack.shard_index);
  AppendPod(wire, ack.num_shards);
  AppendPod(wire, ack.shard_begin);
  AppendPod(wire, ack.shard_end);
  AppendPod(wire, ack.catalog_size);
  AppendPod(wire, static_cast<uint32_t>(ack.message.size()));
  wire->append(ack.message);
}

void AppendShardRequestFrame(const RpcShardRequest& req, std::string* wire) {
  const size_t payload_len =
      1 + 8 + 4 + 4 + 8 + 8 + 4 + 4 * req.history.size();
  wire->reserve(wire->size() + kRpcFrameHeaderBytes + payload_len);
  AppendFrameHeader(wire, payload_len);
  AppendPod(wire, kShardRequestFrame);
  AppendPod(wire, req.id);
  AppendPod(wire, req.user);
  AppendPod(wire, req.k);
  AppendPod(wire, req.begin);
  AppendPod(wire, req.end);
  AppendPod(wire, static_cast<uint32_t>(req.history.size()));
  for (int32_t h : req.history) AppendPod(wire, h);
}

void AppendShardResponseFrame(const RpcShardResponse& resp,
                              std::string* wire) {
  const size_t payload_len = 1 + 8 + 1 + 8 + 4 + 16 * resp.entries.size();
  wire->reserve(wire->size() + kRpcFrameHeaderBytes + payload_len);
  AppendFrameHeader(wire, payload_len);
  AppendPod(wire, kShardResponseFrame);
  AppendPod(wire, resp.id);
  AppendPod(wire, static_cast<uint8_t>(resp.status));
  AppendPod(wire, resp.model_version);
  AppendPod(wire, static_cast<uint32_t>(resp.entries.size()));
  for (const RpcShardEntry& entry : resp.entries) {
    AppendPod(wire, entry.item);
    AppendPod(wire, entry.score);
    AppendPod(wire, entry.pos);
  }
}

Status DecodeRequest(const std::string& payload, RpcRequest* out) {
  size_t pos = 0;
  uint8_t type = 0;
  uint32_t history_len = 0, slate_len = 0;
  if (!ReadPod(payload, &pos, &type) || type != kRequestFrame) {
    return Status::InvalidArgument("rpc: not a request frame");
  }
  if (!ReadPod(payload, &pos, &out->id) || !ReadPod(payload, &pos, &out->user) ||
      !ReadPod(payload, &pos, &out->k) ||
      !ReadPod(payload, &pos, &history_len) ||
      !ReadPod(payload, &pos, &slate_len)) {
    return Status::InvalidArgument("rpc: truncated request header");
  }
  // The declared element counts must consume the rest of the payload
  // EXACTLY: a frame that declares more ids than it carries (truncated) or
  // carries trailing bytes (padded/desynced) is rejected before any resize
  // can act on an attacker-sized count.
  const size_t remaining = payload.size() - pos;
  if (remaining / 4 < history_len ||
      remaining != 4 * (static_cast<size_t>(history_len) + slate_len)) {
    return Status::InvalidArgument(
        "rpc: request declares " + std::to_string(history_len) +
        " history + " + std::to_string(slate_len) + " slate ids but carries " +
        std::to_string(remaining) + " payload bytes");
  }
  out->history.resize(history_len);
  for (uint32_t i = 0; i < history_len; ++i) {
    ReadPod(payload, &pos, &out->history[i]);
  }
  out->slate.resize(slate_len);
  for (uint32_t i = 0; i < slate_len; ++i) {
    ReadPod(payload, &pos, &out->slate[i]);
  }
  return Status::OK();
}

Status DecodeResponse(const std::string& payload, RpcResponse* out) {
  size_t pos = 0;
  uint8_t type = 0, status = 0;
  uint32_t count = 0;
  if (!ReadPod(payload, &pos, &type) || type != kResponseFrame) {
    return Status::InvalidArgument("rpc: not a response frame");
  }
  if (!ReadPod(payload, &pos, &out->id) || !ReadPod(payload, &pos, &status) ||
      !ReadPod(payload, &pos, &count)) {
    return Status::InvalidArgument("rpc: truncated response header");
  }
  if (status > static_cast<uint8_t>(RpcStatus::kPartial)) {
    return Status::InvalidArgument("rpc: unknown response status " +
                                   std::to_string(status));
  }
  out->status = static_cast<RpcStatus>(status);
  const size_t remaining = payload.size() - pos;
  if (remaining != 8 * static_cast<size_t>(count)) {
    return Status::InvalidArgument(
        "rpc: response declares " + std::to_string(count) +
        " items but carries " + std::to_string(remaining) + " payload bytes");
  }
  out->items.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    ReadPod(payload, &pos, &out->items[i].item);
    ReadPod(payload, &pos, &out->items[i].score);
  }
  return Status::OK();
}

Status DecodeHello(const std::string& payload, RpcHello* out) {
  size_t pos = 0;
  uint8_t type = 0;
  if (!ReadPod(payload, &pos, &type) || type != kHelloFrame) {
    return Status::InvalidArgument("rpc: not a hello frame");
  }
  if (!ReadPod(payload, &pos, &out->protocol_version) ||
      !ReadPod(payload, &pos, &out->capabilities)) {
    return Status::InvalidArgument("rpc: truncated hello");
  }
  if (pos != payload.size()) {
    return Status::InvalidArgument("rpc: hello carries trailing bytes");
  }
  return Status::OK();
}

Status DecodeHelloAck(const std::string& payload, RpcHelloAck* out) {
  size_t pos = 0;
  uint8_t type = 0, status = 0;
  uint32_t message_len = 0;
  if (!ReadPod(payload, &pos, &type) || type != kHelloAckFrame) {
    return Status::InvalidArgument("rpc: not a hello-ack frame");
  }
  if (!ReadPod(payload, &pos, &status) ||
      !ReadPod(payload, &pos, &out->protocol_version) ||
      !ReadPod(payload, &pos, &out->capabilities) ||
      !ReadPod(payload, &pos, &out->model_version) ||
      !ReadPod(payload, &pos, &out->shard_index) ||
      !ReadPod(payload, &pos, &out->num_shards) ||
      !ReadPod(payload, &pos, &out->shard_begin) ||
      !ReadPod(payload, &pos, &out->shard_end) ||
      !ReadPod(payload, &pos, &out->catalog_size) ||
      !ReadPod(payload, &pos, &message_len)) {
    return Status::InvalidArgument("rpc: truncated hello-ack");
  }
  if (status > static_cast<uint8_t>(RpcStatus::kPartial)) {
    return Status::InvalidArgument("rpc: unknown hello-ack status " +
                                   std::to_string(status));
  }
  out->status = static_cast<RpcStatus>(status);
  if (payload.size() - pos != message_len) {
    return Status::InvalidArgument(
        "rpc: hello-ack declares a " + std::to_string(message_len) +
        "-byte message but carries " + std::to_string(payload.size() - pos));
  }
  out->message.assign(payload, pos, message_len);
  return Status::OK();
}

Status DecodeShardRequest(const std::string& payload, RpcShardRequest* out) {
  size_t pos = 0;
  uint8_t type = 0;
  uint32_t history_len = 0;
  if (!ReadPod(payload, &pos, &type) || type != kShardRequestFrame) {
    return Status::InvalidArgument("rpc: not a shard-request frame");
  }
  if (!ReadPod(payload, &pos, &out->id) ||
      !ReadPod(payload, &pos, &out->user) || !ReadPod(payload, &pos, &out->k) ||
      !ReadPod(payload, &pos, &out->begin) ||
      !ReadPod(payload, &pos, &out->end) ||
      !ReadPod(payload, &pos, &history_len)) {
    return Status::InvalidArgument("rpc: truncated shard-request header");
  }
  const size_t remaining = payload.size() - pos;
  if (remaining != 4 * static_cast<size_t>(history_len)) {
    return Status::InvalidArgument(
        "rpc: shard request declares " + std::to_string(history_len) +
        " history ids but carries " + std::to_string(remaining) +
        " payload bytes");
  }
  out->history.resize(history_len);
  for (uint32_t i = 0; i < history_len; ++i) {
    ReadPod(payload, &pos, &out->history[i]);
  }
  return Status::OK();
}

Status DecodeShardResponse(const std::string& payload, RpcShardResponse* out) {
  size_t pos = 0;
  uint8_t type = 0, status = 0;
  uint32_t count = 0;
  if (!ReadPod(payload, &pos, &type) || type != kShardResponseFrame) {
    return Status::InvalidArgument("rpc: not a shard-response frame");
  }
  if (!ReadPod(payload, &pos, &out->id) || !ReadPod(payload, &pos, &status) ||
      !ReadPod(payload, &pos, &out->model_version) ||
      !ReadPod(payload, &pos, &count)) {
    return Status::InvalidArgument("rpc: truncated shard-response header");
  }
  if (status > static_cast<uint8_t>(RpcStatus::kPartial)) {
    return Status::InvalidArgument("rpc: unknown shard-response status " +
                                   std::to_string(status));
  }
  out->status = static_cast<RpcStatus>(status);
  const size_t remaining = payload.size() - pos;
  if (remaining != 16 * static_cast<size_t>(count)) {
    return Status::InvalidArgument(
        "rpc: shard response declares " + std::to_string(count) +
        " entries but carries " + std::to_string(remaining) +
        " payload bytes");
  }
  out->entries.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    ReadPod(payload, &pos, &out->entries[i].item);
    ReadPod(payload, &pos, &out->entries[i].score);
    ReadPod(payload, &pos, &out->entries[i].pos);
  }
  return Status::OK();
}

void FrameReader::Feed(const char* data, size_t n) {
  buf_.append(data, n);
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its stream buffer without bound.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
}

Status FrameReader::Next(std::string* payload, bool* got) {
  *got = false;
  if (poisoned_) {
    return Status::InvalidArgument("rpc: stream already failed framing");
  }
  if (buf_.size() - pos_ < kRpcFrameHeaderBytes) return Status::OK();
  uint32_t magic = 0, payload_len = 0;
  std::memcpy(&magic, buf_.data() + pos_, sizeof(magic));
  std::memcpy(&payload_len, buf_.data() + pos_ + sizeof(magic),
              sizeof(payload_len));
  if (magic != kRpcMagic) {
    poisoned_ = true;
    return Status::InvalidArgument("rpc: bad frame magic (stream desync)");
  }
  if (payload_len > kDefaultMaxFrameBytes) {
    poisoned_ = true;
    return Status::InvalidArgument(
        "rpc: declared frame payload of " + std::to_string(payload_len) +
        " bytes exceeds the " + std::to_string(kDefaultMaxFrameBytes) +
        "-byte limit");
  }
  if (buf_.size() - pos_ < kRpcFrameHeaderBytes + payload_len) {
    return Status::OK();  // frame split across reads; wait for the rest
  }
  if (util::FailPoint::Trigger("rpc.frame.torn") != 0) {
    // Injected torn frame: a complete frame arrived but its bytes are
    // corrupt. Poison like the magic check would — the stream has no
    // resync point past garbage, so the connection must die.
    poisoned_ = true;
    return Status::InvalidArgument("rpc: injected torn frame");
  }
  payload->assign(buf_, pos_ + kRpcFrameHeaderBytes, payload_len);
  pos_ += kRpcFrameHeaderBytes + payload_len;
  *got = true;
  return Status::OK();
}

}  // namespace serve
}  // namespace seqfm
