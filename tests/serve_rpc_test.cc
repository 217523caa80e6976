// Lockdown suite for the TCP serving tier (PR 7: src/serve/protocol.* +
// src/serve/rpc_server.*) and the bounded-admission path under it:
//   - wire protocol round-trips and defensive decoding (truncated, padded,
//     wrong-type payloads reject with Status, never half-parse);
//   - FrameReader incremental framing: frames split at every byte offset,
//     coalesced many-per-feed, bad magic / oversized declared lengths poison
//     the stream;
//   - BatchServer bounded admission: deterministic shedding at
//     max_queue_requests (a blocking done-callback pins the dispatcher so
//     queue depth is exact), Submit's future failing on overload;
//   - RpcServer over real sockets: bit-identical rankings vs direct
//     BatchServer::Submit, pipelining, byte-by-byte writes, framing
//     violations failing only the offending connection, client disconnect
//     mid-request, Shutdown draining admitted work while racing clients, and
//     the answered-exactly-once accounting invariant;
//   - protocol v2 (PR 9): the mandatory HELLO handshake with precise
//     version-mismatch errors in BOTH directions (old client vs new server,
//     new client vs pre-v2 server), client connect/call timeouts against
//     hung servers, and replica-mode shard-scoped scoring;
//   - admission of ids outside the feature space: each is answered
//     BAD_REQUEST on the request and shard paths, and the connection keeps
//     serving bit-identically to a fresh server.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/seqfm.h"
#include "data/dataset.h"
#include "serve/predictor.h"
#include "serve/protocol.h"
#include "serve/rpc_server.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace {

constexpr size_t kSeqLen = 6;

data::FeatureSpace SmallSpace() { return data::FeatureSpace(5, 9); }

core::SeqFmConfig SmallSeqFmConfig(uint64_t seed = 321) {
  core::SeqFmConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.ffn_layers = 2;
  cfg.keep_prob = 1.0f;
  cfg.seed = seed;
  return cfg;
}

std::vector<data::SequenceExample> TestExamples() {
  std::vector<data::SequenceExample> examples(4);
  examples[0] = {/*user=*/0, /*target=*/4, /*rating=*/1.0f,
                 {1, 2, 3, 0, 5, 6, 7, 8}};  // longer than kSeqLen
  examples[1] = {2, 6, 0.5f, {5}};           // single-item history
  examples[2] = {3, 0, 2.0f, {}};            // cold start
  examples[3] = {4, 8, 4.0f, {8, 7, 6}};
  return examples;
}

std::vector<int32_t> FullCatalog(const data::FeatureSpace& space) {
  std::vector<int32_t> catalog;
  for (size_t i = 0; i < space.num_objects(); ++i) {
    catalog.push_back(static_cast<int32_t>(i));
  }
  return catalog;
}

void ExpectRankingEq(const std::vector<serve::ScoredItem>& got,
                     const std::vector<serve::ScoredItem>& want,
                     const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].item, want[j].item) << context << " rank " << j;
    EXPECT_EQ(std::memcmp(&got[j].score, &want[j].score, sizeof(float)), 0)
        << context << " rank " << j;
  }
}

/// The full serving stack one RPC test needs, constructed bottom-up and
/// destroyed top-down (RpcServer::~ shuts the BatchServer down first).
struct ServingStack {
  explicit ServingStack(serve::BatchServerOptions batch_opts = {},
                        serve::RpcServerOptions rpc_opts = {})
      : builder(space, kSeqLen),
        model(space, SmallSeqFmConfig()),
        predictor(&model, &builder, PredictorOpts()),
        batch(&predictor, batch_opts),
        rpc(&batch, rpc_opts) {}

  static serve::PredictorOptions PredictorOpts() {
    serve::PredictorOptions opts;
    opts.micro_batch = 4;
    opts.context_cache_bytes = 1 << 20;
    return opts;
  }

  data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder;
  core::SeqFm model;
  serve::Predictor predictor;
  serve::BatchServer batch;
  serve::RpcServer rpc;
};

// ---------------------------------------------------------------------------
// Protocol: encoding round-trips
// ---------------------------------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  serve::RpcRequest req;
  req.id = 0x1122334455667788ull;
  req.user = -7;
  req.k = 10;
  req.history = {1, -1, 3};
  req.slate = {4, 5, 6, 7};
  std::string wire;
  serve::AppendRequestFrame(req, &wire);
  ASSERT_EQ(wire.size(),
            serve::kRpcFrameHeaderBytes + 1 + 8 + 4 + 4 + 4 + 4 + 12 + 16);

  serve::FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  std::string payload;
  bool got = false;
  ASSERT_TRUE(reader.Next(&payload, &got).ok());
  ASSERT_TRUE(got);
  serve::RpcRequest out;
  ASSERT_TRUE(serve::DecodeRequest(payload, &out).ok());
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.user, req.user);
  EXPECT_EQ(out.k, req.k);
  EXPECT_EQ(out.history, req.history);
  EXPECT_EQ(out.slate, req.slate);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ProtocolTest, ResponseRoundTripAllStatuses) {
  for (const serve::RpcStatus status :
       {serve::RpcStatus::kOk, serve::RpcStatus::kOverloaded,
        serve::RpcStatus::kShuttingDown, serve::RpcStatus::kBadRequest,
        serve::RpcStatus::kPartial}) {
    serve::RpcResponse resp;
    resp.id = 42;
    resp.status = status;
    if (status == serve::RpcStatus::kOk) {
      resp.items = {{3, 1.5f}, {1, -0.25f}};
    }
    std::string wire;
    serve::AppendResponseFrame(resp, &wire);
    serve::FrameReader reader;
    reader.Feed(wire.data(), wire.size());
    std::string payload;
    bool got = false;
    ASSERT_TRUE(reader.Next(&payload, &got).ok());
    ASSERT_TRUE(got);
    serve::RpcResponse out;
    ASSERT_TRUE(serve::DecodeResponse(payload, &out).ok());
    EXPECT_EQ(out.id, 42u);
    EXPECT_EQ(out.status, status);
    ASSERT_EQ(out.items.size(), resp.items.size());
    for (size_t i = 0; i < out.items.size(); ++i) {
      EXPECT_EQ(out.items[i].item, resp.items[i].item);
      EXPECT_EQ(std::memcmp(&out.items[i].score, &resp.items[i].score,
                            sizeof(float)),
                0);
    }
  }
}

TEST(ProtocolTest, StatusNamesAreStable) {
  EXPECT_STREQ(serve::RpcStatusToString(serve::RpcStatus::kOk), "OK");
  EXPECT_STREQ(serve::RpcStatusToString(serve::RpcStatus::kOverloaded),
               "OVERLOADED");
  EXPECT_STREQ(serve::RpcStatusToString(serve::RpcStatus::kShuttingDown),
               "SHUTTING_DOWN");
  EXPECT_STREQ(serve::RpcStatusToString(serve::RpcStatus::kBadRequest),
               "BAD_REQUEST");
  EXPECT_STREQ(serve::RpcStatusToString(serve::RpcStatus::kPartial),
               "PARTIAL");
}

// ---------------------------------------------------------------------------
// Protocol: defensive decoding
// ---------------------------------------------------------------------------

TEST(ProtocolTest, DecodeRejectsWrongTypeAndEmptyPayloads) {
  serve::RpcRequest req;
  serve::RpcResponse resp;
  EXPECT_FALSE(serve::DecodeRequest("", &req).ok());
  EXPECT_FALSE(serve::DecodeResponse("", &resp).ok());
  // A response payload handed to the request decoder (and vice versa).
  std::string wire;
  serve::AppendResponseFrame(serve::RpcResponse{}, &wire);
  const std::string resp_payload = wire.substr(serve::kRpcFrameHeaderBytes);
  EXPECT_FALSE(serve::DecodeRequest(resp_payload, &req).ok());
  wire.clear();
  serve::AppendRequestFrame(serve::RpcRequest{}, &wire);
  const std::string req_payload = wire.substr(serve::kRpcFrameHeaderBytes);
  EXPECT_FALSE(serve::DecodeResponse(req_payload, &resp).ok());
}

TEST(ProtocolTest, DecodeRejectsTruncatedAndPaddedElementArrays) {
  serve::RpcRequest req;
  req.id = 1;
  req.history = {1, 2, 3};
  req.slate = {4, 5};
  std::string wire;
  serve::AppendRequestFrame(req, &wire);
  std::string payload = wire.substr(serve::kRpcFrameHeaderBytes);

  serve::RpcRequest out;
  // Truncated: the declared counts exceed the bytes actually present.
  EXPECT_FALSE(
      serve::DecodeRequest(payload.substr(0, payload.size() - 4), &out).ok());
  // Padded: trailing bytes beyond the declared counts mean stream desync.
  EXPECT_FALSE(serve::DecodeRequest(payload + "....", &out).ok());
  // Header alone, counts promising data that never came.
  EXPECT_FALSE(serve::DecodeRequest(payload.substr(0, 25), &out).ok());
  // An absurd declared count must be rejected BEFORE any resize happens.
  std::string huge = payload;
  const uint32_t bogus = 0x7fffffffu;
  std::memcpy(&huge[17], &bogus, sizeof(bogus));  // history_len field
  EXPECT_FALSE(serve::DecodeRequest(huge, &out).ok());

  serve::RpcResponse resp_out;
  serve::RpcResponse resp;
  resp.items = {{1, 1.0f}};
  wire.clear();
  serve::AppendResponseFrame(resp, &wire);
  payload = wire.substr(serve::kRpcFrameHeaderBytes);
  EXPECT_FALSE(
      serve::DecodeResponse(payload.substr(0, payload.size() - 1), &resp_out)
          .ok());
  EXPECT_FALSE(serve::DecodeResponse(payload + "x", &resp_out).ok());
  // Unknown status byte.
  std::string bad_status = payload;
  bad_status[9] = 0x7f;
  EXPECT_FALSE(serve::DecodeResponse(bad_status, &resp_out).ok());
}

TEST(FrameReaderTest, ReassemblesFramesSplitAtEveryByte) {
  serve::RpcRequest req;
  req.id = 9;
  req.history = {1, 2};
  req.slate = {3};
  std::string wire;
  serve::AppendRequestFrame(req, &wire);
  serve::AppendRequestFrame(req, &wire);  // two frames back to back

  serve::FrameReader reader;
  std::string payload;
  bool got = false;
  size_t frames = 0;
  for (size_t i = 0; i < wire.size(); ++i) {
    reader.Feed(wire.data() + i, 1);  // one byte at a time
    ASSERT_TRUE(reader.Next(&payload, &got).ok());
    if (got) {
      ++frames;
      serve::RpcRequest out;
      ASSERT_TRUE(serve::DecodeRequest(payload, &out).ok());
      EXPECT_EQ(out.id, 9u);
    }
  }
  EXPECT_EQ(frames, 2u);
}

TEST(FrameReaderTest, YieldsCoalescedFramesOneByOne) {
  std::string wire;
  for (uint64_t id = 0; id < 5; ++id) {
    serve::RpcRequest req;
    req.id = id;
    serve::AppendRequestFrame(req, &wire);
  }
  serve::FrameReader reader;
  reader.Feed(wire.data(), wire.size());  // one read, five frames
  std::string payload;
  bool got = false;
  for (uint64_t id = 0; id < 5; ++id) {
    ASSERT_TRUE(reader.Next(&payload, &got).ok());
    ASSERT_TRUE(got);
    serve::RpcRequest out;
    ASSERT_TRUE(serve::DecodeRequest(payload, &out).ok());
    EXPECT_EQ(out.id, id);
  }
  ASSERT_TRUE(reader.Next(&payload, &got).ok());
  EXPECT_FALSE(got);
}

TEST(FrameReaderTest, BadMagicPoisonsTheStream) {
  serve::FrameReader reader;
  const char garbage[] = "NOPE\x04\x00\x00\x00" "abcd";
  reader.Feed(garbage, sizeof(garbage) - 1);
  std::string payload;
  bool got = false;
  EXPECT_FALSE(reader.Next(&payload, &got).ok());
  // Poisoned: even a valid frame fed afterwards cannot resync the stream.
  std::string wire;
  serve::AppendRequestFrame(serve::RpcRequest{}, &wire);
  reader.Feed(wire.data(), wire.size());
  EXPECT_FALSE(reader.Next(&payload, &got).ok());
}

TEST(FrameReaderTest, OversizedDeclaredLengthPoisonsWithoutAllocating) {
  // Declared lengths at the cap, one past it, and ~4 GiB; none of them is
  // ever allocated, since only the 8-byte header is fed.
  const uint32_t cap = static_cast<uint32_t>(serve::kDefaultMaxFrameBytes);
  for (const uint32_t declared : {cap, cap + 1, 0xffffffffu}) {
    SCOPED_TRACE(declared);
    serve::FrameReader reader;
    std::string header;
    const uint32_t magic = serve::kRpcMagic;
    header.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
    header.append(reinterpret_cast<const char*>(&declared), sizeof(declared));
    reader.Feed(header.data(), header.size());
    std::string payload;
    bool got = false;
    // At the cap the reader just waits for the payload; above it the
    // stream is poisoned, and stays so.
    const bool within_cap = declared <= cap;
    EXPECT_EQ(reader.Next(&payload, &got).ok(), within_cap);
    EXPECT_FALSE(got);
    EXPECT_EQ(reader.Next(&payload, &got).ok(), within_cap);
    EXPECT_EQ(reader.buffered_bytes(), header.size());
  }
}

TEST(FrameReaderTest, LongLivedStreamReclaimsConsumedPrefix) {
  serve::RpcRequest req;
  req.slate.assign(512, 1);  // ~2 KiB frames
  std::string wire;
  serve::AppendRequestFrame(req, &wire);
  serve::FrameReader reader;
  std::string payload;
  bool got = false;
  for (int i = 0; i < 64; ++i) {
    reader.Feed(wire.data(), wire.size());
    ASSERT_TRUE(reader.Next(&payload, &got).ok());
    ASSERT_TRUE(got);
    // Everything consumed: the stream buffer must not accumulate history.
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// BatchServer bounded admission (deterministic, no sockets)
// ---------------------------------------------------------------------------

TEST(BoundedAdmissionTest, TrySubmitShedsDeterministicallyAtTheBound) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  const auto catalog = FullCatalog(space);
  const auto ex = TestExamples()[0];
  serve::Predictor predictor(&model, &builder, ServingStack::PredictorOpts());

  serve::BatchServerOptions opts;
  opts.max_wave_requests = 1;
  opts.max_queue_requests = 1;

  // These outlive the server: its destructor re-runs Shutdown after the
  // blocking callback below has already fired.
  std::promise<void> entered, release;
  std::promise<std::vector<serve::ScoredItem>> queued_result;
  {
    serve::BatchServer server(&predictor, opts);
    // Request A blocks the dispatcher inside its done-callback, pinning the
    // server in wave delivery — from here on, queue depth is under exact
    // test control instead of racing the dispatcher.
    ASSERT_EQ(server.TrySubmit(ex, catalog, 2,
                               [&](std::vector<serve::ScoredItem>) {
                                 entered.set_value();
                                 release.get_future().wait();
                               }),
              serve::BatchServer::AdmitResult::kAdmitted);
    entered.get_future().wait();  // dispatcher is now parked; queue is empty

    // B fills the queue to its bound of 1.
    ASSERT_EQ(server.TrySubmit(ex, catalog, 2,
                               [&](std::vector<serve::ScoredItem> items) {
                                 queued_result.set_value(std::move(items));
                               }),
              serve::BatchServer::AdmitResult::kAdmitted);
    // C and D must shed: the queue is provably full right now.
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(server.TrySubmit(ex, catalog, 2,
                                 [](std::vector<serve::ScoredItem>) {
                                   FAIL() << "shed callback must never fire";
                                 }),
                serve::BatchServer::AdmitResult::kOverloaded);
    }
    // Submit() maps the same rejection onto a failed future.
    auto overloaded = server.Submit(ex, catalog, 2);
    EXPECT_THROW(overloaded.get(), std::runtime_error);

    release.set_value();  // unblock A; B drains normally
    EXPECT_EQ(queued_result.get_future().get().size(), 2u);

    const auto stats = server.stats();
    EXPECT_EQ(stats.requests_admitted, 2u);   // A and B
    EXPECT_EQ(stats.requests_rejected, 3u);   // C, D, and the Submit
    server.Shutdown();
    EXPECT_EQ(server.stats().requests_served, 2u);
    // Post-shutdown admission is kShutdown, not kOverloaded, and not counted
    // as a shed.
    EXPECT_EQ(server.TrySubmit(ex, catalog, 2,
                               [](std::vector<serve::ScoredItem>) {}),
              serve::BatchServer::AdmitResult::kShutdown);
    EXPECT_EQ(server.stats().requests_rejected, 3u);
  }
}

TEST(BoundedAdmissionTest, UnboundedQueueNeverSheds) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  const auto catalog = FullCatalog(space);
  serve::Predictor predictor(&model, &builder, ServingStack::PredictorOpts());
  serve::BatchServer server(&predictor, {});  // max_queue_requests = 0
  std::vector<std::future<std::vector<serve::ScoredItem>>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(server.Submit(TestExamples()[i % 4], catalog, 2));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().size(), 2u);
  EXPECT_EQ(server.stats().requests_rejected, 0u);
}

// ---------------------------------------------------------------------------
// RpcServer over real sockets
// ---------------------------------------------------------------------------

TEST(RpcServerTest, StartReportsBadAddressAndDoubleStart) {
  {
    serve::RpcServerOptions opts;
    opts.bind_address = "not-an-address";
    ServingStack stack({}, opts);
    EXPECT_FALSE(stack.rpc.Start().ok());
  }
  {
    ServingStack stack;
    ASSERT_TRUE(stack.rpc.Start().ok());
    EXPECT_FALSE(stack.rpc.Start().ok());
    EXPECT_GT(stack.rpc.port(), 0);
  }
}

TEST(RpcServerTest, ServedTopKBitIdenticalToDirectSubmit) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  const auto catalog = FullCatalog(stack.space);

  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  uint64_t next_id = 1;
  for (const auto& ex : TestExamples()) {
    for (const size_t k : {1u, 3u, 100u}) {
      serve::RpcRequest req;
      req.id = next_id++;
      req.user = ex.user;
      req.k = static_cast<uint32_t>(k);
      req.history = ex.history;
      req.slate = catalog;
      serve::RpcResponse resp;
      ASSERT_TRUE(client.Call(req, &resp).ok());
      EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
      // The acceptance criterion: the wire adds framing, never arithmetic.
      const auto want = stack.batch.Submit(ex, catalog, k).get();
      ExpectRankingEq(resp.items, want,
                      "user " + std::to_string(ex.user) + " k " +
                          std::to_string(k));
    }
  }
}

TEST(RpcServerTest, EdgeRequestsServeCleanly) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());

  serve::RpcRequest req;
  req.id = 7;
  req.user = 1;
  req.k = 5;  // empty slate
  serve::RpcResponse resp;
  ASSERT_TRUE(client.Call(req, &resp).ok());
  EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
  EXPECT_TRUE(resp.items.empty());

  req.id = 8;
  req.k = 0;  // k == 0
  req.slate = {0, 1, 2};
  ASSERT_TRUE(client.Call(req, &resp).ok());
  EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
  EXPECT_TRUE(resp.items.empty());
}

TEST(RpcServerTest, PipelinedRequestsAllAnsweredById) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  const auto catalog = FullCatalog(stack.space);
  const auto examples = TestExamples();

  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  // Fire a burst without reading anything back, then collect.
  constexpr uint64_t kBurst = 32;
  for (uint64_t id = 0; id < kBurst; ++id) {
    serve::RpcRequest req;
    req.id = id;
    req.user = examples[id % examples.size()].user;
    req.k = 2;
    req.history = examples[id % examples.size()].history;
    req.slate = catalog;
    ASSERT_TRUE(client.Send(req).ok());
  }
  std::vector<bool> seen(kBurst, false);
  for (uint64_t i = 0; i < kBurst; ++i) {
    serve::RpcResponse resp;
    ASSERT_TRUE(client.ReadResponse(&resp).ok());
    ASSERT_LT(resp.id, kBurst);
    EXPECT_FALSE(seen[resp.id]) << "response " << resp.id << " repeated";
    seen[resp.id] = true;
    EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
    EXPECT_EQ(resp.items.size(), 2u);
  }
}

TEST(RpcServerTest, RequestsSplitAcrossManyWritesAreReassembled) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());

  serve::RpcRequest req;
  req.id = 77;
  req.user = 2;
  req.k = 2;
  req.history = {5};
  req.slate = FullCatalog(stack.space);
  std::string wire;
  serve::AppendRequestFrame(req, &wire);
  // Dribble the frame across dozens of tiny writes, straddling the header /
  // payload boundary and every element boundary.
  for (size_t i = 0; i < wire.size(); i += 3) {
    const size_t n = std::min<size_t>(3, wire.size() - i);
    ASSERT_EQ(::write(client.fd(), wire.data() + i, n),
              static_cast<ssize_t>(n));
  }
  serve::RpcResponse resp;
  ASSERT_TRUE(client.ReadResponse(&resp).ok());
  EXPECT_EQ(resp.id, 77u);
  EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
  EXPECT_EQ(resp.items.size(), 2u);
}

TEST(RpcServerTest, GarbageMagicFailsOnlyThatConnection) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());

  serve::RpcClient bad;
  ASSERT_TRUE(bad.Connect("127.0.0.1", stack.rpc.port()).ok());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::write(bad.fd(), garbage, sizeof(garbage) - 1), 0);
  serve::RpcResponse resp;
  EXPECT_FALSE(bad.ReadResponse(&resp).ok());  // server closed us

  // The process and other connections are unaffected.
  serve::RpcClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", stack.rpc.port()).ok());
  serve::RpcRequest req;
  req.id = 1;
  req.user = 0;
  req.k = 1;
  req.slate = {0, 1};
  ASSERT_TRUE(good.Call(req, &resp).ok());
  EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
  EXPECT_GE(stack.rpc.stats().protocol_errors, 1u);
}

TEST(RpcServerTest, OversizedDeclaredFrameFailsTheConnection) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());

  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  std::string header;
  const uint32_t magic = serve::kRpcMagic;
  const uint32_t huge = 1u << 30;
  header.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  header.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  ASSERT_EQ(::write(client.fd(), header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  serve::RpcResponse resp;
  EXPECT_FALSE(client.ReadResponse(&resp).ok());
  EXPECT_GE(stack.rpc.stats().protocol_errors, 1u);

  // A frame under the limit still serves on a fresh connection.
  serve::RpcClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", stack.rpc.port()).ok());
  serve::RpcRequest req;
  req.id = 1;
  req.k = 1;
  req.slate = {0};
  ASSERT_TRUE(good.Call(req, &resp).ok());
  EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
}

TEST(RpcServerTest, ClientDisconnectMidRequestDropsOnlyItsResponses) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  const auto catalog = FullCatalog(stack.space);

  {
    serve::RpcClient ghost;
    ASSERT_TRUE(ghost.Connect("127.0.0.1", stack.rpc.port()).ok());
    serve::RpcRequest req;
    req.id = 13;
    req.user = 0;
    req.k = 3;
    req.history = {1, 2};
    req.slate = catalog;
    ASSERT_TRUE(ghost.Send(req).ok());
    ghost.Close();  // gone before the wave completes
  }

  // The orphaned completion must be discarded without tripping anything;
  // the stack keeps serving other clients before and after it drains.
  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  for (uint64_t id = 0; id < 8; ++id) {
    serve::RpcRequest req;
    req.id = id;
    req.user = 4;
    req.k = 2;
    req.history = {8, 7, 6};
    req.slate = catalog;
    serve::RpcResponse resp;
    ASSERT_TRUE(client.Call(req, &resp).ok());
    EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
    EXPECT_EQ(resp.items.size(), 2u);
  }
}

TEST(RpcServerTest, BoundedQueueShedsAnswerOverloadedAndAccountingBalances) {
  serve::BatchServerOptions batch_opts;
  batch_opts.max_wave_requests = 1;  // one request per wave: maximum pressure
  batch_opts.max_queue_requests = 1;
  ServingStack stack(batch_opts);
  ASSERT_TRUE(stack.rpc.Start().ok());
  const auto catalog = FullCatalog(stack.space);

  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  // A pipelined burst: the loop thread admits these back-to-back while each
  // wave scores a full catalog, so the depth-1 queue must shed some (the
  // exact count depends on scheduling; the invariant below does not).
  constexpr uint64_t kBurst = 64;
  for (uint64_t id = 0; id < kBurst; ++id) {
    serve::RpcRequest req;
    req.id = id;
    req.user = 0;
    req.k = 2;
    req.history = {1, 2, 3};
    req.slate = catalog;
    ASSERT_TRUE(client.Send(req).ok());
  }
  uint64_t ok = 0, shed = 0;
  for (uint64_t i = 0; i < kBurst; ++i) {
    serve::RpcResponse resp;
    ASSERT_TRUE(client.ReadResponse(&resp).ok());
    if (resp.status == serve::RpcStatus::kOk) {
      ++ok;
      EXPECT_EQ(resp.items.size(), 2u);
    } else {
      ASSERT_EQ(resp.status, serve::RpcStatus::kOverloaded);
      EXPECT_TRUE(resp.items.empty());
      ++shed;
    }
  }
  // Every request answered exactly once — no broken promises, no duplicates.
  EXPECT_EQ(ok + shed, kBurst);
  const auto stats = stack.rpc.stats();
  EXPECT_EQ(stats.requests_ok, ok);
  EXPECT_EQ(stats.requests_shed, shed);
  EXPECT_EQ(stats.frames_received, kBurst);
  EXPECT_EQ(stack.batch.stats().requests_rejected, shed);
}

TEST(RpcServerTest, ShutdownDrainsAdmittedWorkWhileClientsRace) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  const auto catalog = FullCatalog(stack.space);
  const uint16_t port = stack.rpc.port();

  std::atomic<uint64_t> ok{0}, rejected{0}, disconnected{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c]() {
      serve::RpcClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        ++disconnected;
        return;
      }
      while (!go.load()) std::this_thread::yield();
      for (uint64_t id = 0; id < 32; ++id) {
        serve::RpcRequest req;
        req.id = id;
        req.user = static_cast<int32_t>(c);
        req.k = 2;
        req.history = {1, 2};
        req.slate = catalog;
        serve::RpcResponse resp;
        if (!client.Call(req, &resp).ok()) {
          // Shutdown closed the connection: every outcome before this one
          // was still answered exactly once.
          ++disconnected;
          return;
        }
        if (resp.status == serve::RpcStatus::kOk) {
          if (resp.items.size() == 2) ++ok;
        } else {
          ++rejected;  // OVERLOADED or SHUTTING_DOWN, both legitimate
        }
      }
    });
  }
  go.store(true);
  std::this_thread::yield();
  stack.rpc.Shutdown();  // races the in-flight calls; must not hang or crash
  for (auto& t : clients) t.join();

  // No client hung (the join above returned) and nobody got a torn result.
  const auto stats = stack.rpc.stats();
  EXPECT_EQ(stats.requests_ok + stats.requests_shed +
                stats.requests_rejected_shutdown,
            stats.frames_received)
      << "every decoded request must be answered exactly once";
  EXPECT_EQ(stack.rpc.open_connections(), 0u);
  // Idempotent: a second Shutdown (and the destructor's) is a no-op.
  stack.rpc.Shutdown();
}

// ---------------------------------------------------------------------------
// Protocol v2: handshake frames and shard frames
// ---------------------------------------------------------------------------

/// Connects a plain blocking TCP socket with NO handshake — how a protocol
/// v1 (or hand-rolled) client reaches the server. Returns -1 on failure.
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking read of exactly one frame payload from a raw fd.
bool ReadFrameFrom(int fd, std::string* payload) {
  serve::FrameReader reader;
  char buf[4096];
  for (;;) {
    bool got = false;
    if (!reader.Next(payload, &got).ok()) return false;
    if (got) return true;
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) return false;
    reader.Feed(buf, static_cast<size_t>(r));
  }
}

bool WriteAll(int fd, const std::string& wire) {
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t w = ::write(fd, wire.data() + sent, wire.size() - sent);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

TEST(HandshakeProtocolTest, HelloAndAckRoundTrip) {
  serve::RpcHello hello;
  hello.protocol_version = 7;
  hello.capabilities = 0xa5a5u;
  std::string wire;
  serve::AppendHelloFrame(hello, &wire);
  serve::RpcHello hello_out;
  ASSERT_TRUE(
      serve::DecodeHello(wire.substr(serve::kRpcFrameHeaderBytes), &hello_out)
          .ok());
  EXPECT_EQ(hello_out.protocol_version, 7u);
  EXPECT_EQ(hello_out.capabilities, 0xa5a5u);

  serve::RpcHelloAck ack;
  ack.status = serve::RpcStatus::kBadRequest;
  ack.protocol_version = 2;
  ack.capabilities = serve::kRpcCapShardScoring;
  ack.model_version = 0xdeadbeefcafeull;
  ack.shard_index = 1;
  ack.num_shards = 3;
  ack.shard_begin = 100;
  ack.shard_end = 200;
  ack.catalog_size = 300;
  ack.message = "nope";
  wire.clear();
  serve::AppendHelloAckFrame(ack, &wire);
  serve::RpcHelloAck ack_out;
  ASSERT_TRUE(serve::DecodeHelloAck(wire.substr(serve::kRpcFrameHeaderBytes),
                                    &ack_out)
                  .ok());
  EXPECT_EQ(ack_out.status, serve::RpcStatus::kBadRequest);
  EXPECT_EQ(ack_out.protocol_version, 2u);
  EXPECT_EQ(ack_out.capabilities, serve::kRpcCapShardScoring);
  EXPECT_EQ(ack_out.model_version, 0xdeadbeefcafeull);
  EXPECT_EQ(ack_out.shard_index, 1u);
  EXPECT_EQ(ack_out.num_shards, 3u);
  EXPECT_EQ(ack_out.shard_begin, 100u);
  EXPECT_EQ(ack_out.shard_end, 200u);
  EXPECT_EQ(ack_out.catalog_size, 300u);
  EXPECT_EQ(ack_out.message, "nope");
}

TEST(HandshakeProtocolTest, ShardFramesRoundTripWithRawScores) {
  serve::RpcShardRequest req;
  req.id = 11;
  req.user = -3;
  req.k = 5;
  req.begin = 40;
  req.end = 90;
  req.history = {4, 5, 6};
  std::string wire;
  serve::AppendShardRequestFrame(req, &wire);
  serve::RpcShardRequest req_out;
  ASSERT_TRUE(serve::DecodeShardRequest(
                  wire.substr(serve::kRpcFrameHeaderBytes), &req_out)
                  .ok());
  EXPECT_EQ(req_out.id, 11u);
  EXPECT_EQ(req_out.user, -3);
  EXPECT_EQ(req_out.k, 5u);
  EXPECT_EQ(req_out.begin, 40u);
  EXPECT_EQ(req_out.end, 90u);
  EXPECT_EQ(req_out.history, req.history);

  serve::RpcShardResponse resp;
  resp.id = 11;
  resp.status = serve::RpcStatus::kOk;
  resp.model_version = 77;
  // A NaN and a negative zero: the wire must carry score BITS verbatim,
  // because the coordinator's merge re-runs RankBefore on them.
  float nan_score = std::numeric_limits<float>::quiet_NaN();
  resp.entries = {{42, 1.5f, 42}, {7, -0.0f, 7}, {3, nan_score, 3}};
  wire.clear();
  serve::AppendShardResponseFrame(resp, &wire);
  serve::RpcShardResponse resp_out;
  ASSERT_TRUE(serve::DecodeShardResponse(
                  wire.substr(serve::kRpcFrameHeaderBytes), &resp_out)
                  .ok());
  EXPECT_EQ(resp_out.id, 11u);
  EXPECT_EQ(resp_out.model_version, 77u);
  ASSERT_EQ(resp_out.entries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resp_out.entries[i].item, resp.entries[i].item);
    EXPECT_EQ(resp_out.entries[i].pos, resp.entries[i].pos);
    EXPECT_EQ(std::memcmp(&resp_out.entries[i].score,
                          &resp.entries[i].score, sizeof(float)),
              0);
  }
}

TEST(HandshakeProtocolTest, DecodeRejectsMalformedV2Frames) {
  serve::RpcHello hello;
  serve::RpcHelloAck ack;
  serve::RpcShardRequest sreq;
  serve::RpcShardResponse sresp;
  EXPECT_FALSE(serve::DecodeHello("", &hello).ok());
  EXPECT_FALSE(serve::DecodeHelloAck("", &ack).ok());
  EXPECT_FALSE(serve::DecodeShardRequest("", &sreq).ok());
  EXPECT_FALSE(serve::DecodeShardResponse("", &sresp).ok());

  std::string wire;
  serve::AppendHelloFrame(serve::RpcHello{}, &wire);
  std::string payload = wire.substr(serve::kRpcFrameHeaderBytes);
  // Wrong decoder for the type byte.
  EXPECT_FALSE(serve::DecodeHelloAck(payload, &ack).ok());
  // Truncated and padded.
  EXPECT_FALSE(
      serve::DecodeHello(payload.substr(0, payload.size() - 1), &hello).ok());
  EXPECT_FALSE(serve::DecodeHello(payload + "x", &hello).ok());

  serve::RpcShardResponse good;
  good.entries = {{1, 1.0f, 1}};
  wire.clear();
  serve::AppendShardResponseFrame(good, &wire);
  payload = wire.substr(serve::kRpcFrameHeaderBytes);
  EXPECT_FALSE(
      serve::DecodeShardResponse(payload.substr(0, payload.size() - 1), &sresp)
          .ok());
  EXPECT_FALSE(serve::DecodeShardResponse(payload + "x", &sresp).ok());
  std::string bad_status = payload;
  bad_status[9] = 0x7f;  // status byte after type + id
  EXPECT_FALSE(serve::DecodeShardResponse(bad_status, &sresp).ok());
}

// ---------------------------------------------------------------------------
// Protocol v2: version handshake against a live server (satellite: precise
// mismatch errors in both directions)
// ---------------------------------------------------------------------------

TEST(HandshakeTest, OldClientSendingRequestFirstGetsPreciseVersionError) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  const int fd = RawConnect(stack.rpc.port());
  ASSERT_GE(fd, 0);
  // A v1 client has no HELLO: its first frame is a request.
  serve::RpcRequest req;
  req.id = 1;
  req.k = 1;
  req.slate = {0, 1};
  std::string wire;
  serve::AppendRequestFrame(req, &wire);
  ASSERT_TRUE(WriteAll(fd, wire));
  std::string payload;
  ASSERT_TRUE(ReadFrameFrom(fd, &payload));
  serve::RpcHelloAck ack;
  ASSERT_TRUE(serve::DecodeHelloAck(payload, &ack).ok());
  EXPECT_EQ(ack.status, serve::RpcStatus::kBadRequest);
  // The error must NAME the problem: the client's generation and the
  // server's version, not a generic decode failure.
  EXPECT_NE(ack.message.find("protocol v1"), std::string::npos)
      << ack.message;
  EXPECT_NE(ack.message.find("HELLO"), std::string::npos) << ack.message;
  // ... then the server closes the connection.
  char c;
  EXPECT_EQ(::read(fd, &c, 1), 0);
  ::close(fd);
  EXPECT_GE(stack.rpc.stats().protocol_errors, 1u);
  EXPECT_EQ(stack.rpc.stats().frames_received, 0u)
      << "a rejected handshake is not request traffic";
}

TEST(HandshakeTest, FutureClientVersionMismatchNamesBothVersions) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  const int fd = RawConnect(stack.rpc.port());
  ASSERT_GE(fd, 0);
  serve::RpcHello hello;
  hello.protocol_version = 99;
  std::string wire;
  serve::AppendHelloFrame(hello, &wire);
  ASSERT_TRUE(WriteAll(fd, wire));
  std::string payload;
  ASSERT_TRUE(ReadFrameFrom(fd, &payload));
  serve::RpcHelloAck ack;
  ASSERT_TRUE(serve::DecodeHelloAck(payload, &ack).ok());
  EXPECT_EQ(ack.status, serve::RpcStatus::kBadRequest);
  EXPECT_NE(ack.message.find("v99"), std::string::npos) << ack.message;
  EXPECT_NE(ack.message.find(
                "v" + std::to_string(serve::kRpcProtocolVersion)),
            std::string::npos)
      << ack.message;
  char c;
  EXPECT_EQ(::read(fd, &c, 1), 0);
  ::close(fd);
}

TEST(HandshakeTest, NewClientAgainstPreV2ServerFailsPrecisely) {
  // A pre-v2 server cannot decode a HELLO; it closes the connection without
  // ever answering. Emulate one: accept, read a bit, close.
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const uint16_t port = ntohs(addr.sin_port);
  std::thread v1_server([listener]() {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd >= 0) {
      char buf[64];
      [[maybe_unused]] ssize_t r = ::read(fd, buf, sizeof(buf));
      ::close(fd);  // "protocol error" close, no ack — the v1 behavior
    }
  });
  serve::RpcClient client;
  const Status st = client.Connect("127.0.0.1", port);
  v1_server.join();
  ::close(listener);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("HELLO_ACK"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("protocol v1"), std::string::npos)
      << st.ToString();
}

TEST(HandshakeTest, AcceptedHandshakeExposesServerInfo) {
  serve::RpcServerOptions opts;
  opts.catalog_size = 9;
  opts.num_shards = 3;
  opts.shard_index = 1;
  opts.model_version = 42;
  ServingStack stack({}, opts);
  ASSERT_TRUE(stack.rpc.Start().ok());
  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  const serve::RpcHelloAck& info = client.server_info();
  EXPECT_EQ(info.protocol_version, serve::kRpcProtocolVersion);
  EXPECT_TRUE(info.capabilities & serve::kRpcCapShardScoring);
  EXPECT_EQ(info.model_version, 42u);
  EXPECT_EQ(info.shard_index, 1u);
  EXPECT_EQ(info.num_shards, 3u);
  EXPECT_EQ(info.catalog_size, 9u);
  const auto bounds = serve::ShardBounds(9, 3);
  EXPECT_EQ(info.shard_begin, bounds[1]);
  EXPECT_EQ(info.shard_end, bounds[2]);
  EXPECT_GE(stack.rpc.stats().handshakes_ok, 1u);
}

// ---------------------------------------------------------------------------
// Client timeouts (satellite: a hung replica becomes a timed-out Status)
// ---------------------------------------------------------------------------

TEST(ClientTimeoutTest, NonAcceptingServerTimesOutConnect) {
  // A listener that never calls accept: the kernel completes the TCP
  // handshake from the backlog, so connect() alone would "succeed" and the
  // handshake read would block forever without the timeout.
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);

  serve::RpcClient client;
  serve::RpcClientOptions copts;
  copts.connect_timeout_ms = 200;
  const auto t0 = std::chrono::steady_clock::now();
  const Status st =
      client.Connect("127.0.0.1", ntohs(addr.sin_port), copts);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ::close(listener);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("timed out"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(client.connected());
  EXPECT_LT(elapsed, 5000) << "must fail within the bound, not hang";
}

TEST(ClientTimeoutTest, HungServerTimesOutCall) {
  // A server that completes the handshake and then goes silent — the
  // mid-call hang a coordinator must survive.
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  std::thread hung_server([listener]() {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string hello_payload;
    if (ReadFrameFrom(fd, &hello_payload)) {
      serve::RpcHelloAck ack;  // accept the handshake...
      std::string wire;
      serve::AppendHelloAckFrame(ack, &wire);
      WriteAll(fd, wire);
      // ... then never answer anything again. Hold the socket open until
      // the client gives up and closes.
      char buf[64];
      while (::read(fd, buf, sizeof(buf)) > 0) {
      }
    }
    ::close(fd);
  });

  serve::RpcClient client;
  serve::RpcClientOptions copts;
  copts.connect_timeout_ms = 2000;
  copts.io_timeout_ms = 200;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", ntohs(addr.sin_port), copts).ok());
  serve::RpcRequest req;
  req.id = 1;
  req.k = 1;
  req.slate = {0};
  serve::RpcResponse resp;
  const Status st = client.Call(req, &resp);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("timed out"), std::string::npos)
      << st.ToString();
  client.Close();  // unblocks the hung server's read
  hung_server.join();
  ::close(listener);
}

// ---------------------------------------------------------------------------
// Replica mode: shard-scoped scoring over the wire
// ---------------------------------------------------------------------------

TEST(ShardServingTest, ShardRequestMatchesDirectSubmitOverIdentitySlice) {
  serve::RpcServerOptions opts;
  opts.catalog_size = 9;  // == SmallSpace().num_objects()
  opts.num_shards = 2;
  opts.shard_index = 0;
  opts.model_version = 7;
  ServingStack stack({}, opts);
  ASSERT_TRUE(stack.rpc.Start().ok());
  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  const serve::RpcHelloAck& info = client.server_info();

  const auto ex = TestExamples()[0];
  serve::RpcShardRequest sreq;
  sreq.id = 21;
  sreq.user = ex.user;
  sreq.k = 3;
  sreq.begin = info.shard_begin;
  sreq.end = info.shard_end;
  sreq.history = ex.history;
  serve::RpcShardResponse sresp;
  ASSERT_TRUE(client.CallShard(sreq, &sresp).ok());
  ASSERT_EQ(sresp.status, serve::RpcStatus::kOk);
  EXPECT_EQ(sresp.model_version, 7u);

  // Ground truth: the same slice scored through the local path.
  std::vector<int32_t> slice;
  for (uint64_t p = sreq.begin; p < sreq.end; ++p) {
    slice.push_back(static_cast<int32_t>(p));
  }
  const auto want = stack.batch.Submit(ex, slice, 3).get();
  ASSERT_EQ(sresp.entries.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(sresp.entries[i].item, want[i].item);
    EXPECT_EQ(std::memcmp(&sresp.entries[i].score, &want[i].score,
                          sizeof(float)),
              0);
    // Identity catalog: global position == item id.
    EXPECT_EQ(sresp.entries[i].pos,
              static_cast<uint64_t>(sresp.entries[i].item));
  }

  // A range outside the owned slice is a precise BAD_REQUEST, not a wrong
  // answer.
  sreq.id = 22;
  sreq.end = opts.catalog_size;  // spills into shard 1's slice
  ASSERT_TRUE(client.CallShard(sreq, &sresp).ok());
  EXPECT_EQ(sresp.status, serve::RpcStatus::kBadRequest);
  EXPECT_TRUE(sresp.entries.empty());
  EXPECT_GE(stack.rpc.stats().requests_bad, 1u);
}

TEST(ShardServingTest, NonReplicaServerRejectsShardRequests) {
  ServingStack stack;  // catalog_size = 0: plain slate server
  ASSERT_TRUE(stack.rpc.Start().ok());
  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  EXPECT_FALSE(client.server_info().capabilities &
               serve::kRpcCapShardScoring);
  serve::RpcShardRequest sreq;
  sreq.id = 5;
  sreq.k = 1;
  sreq.begin = 0;
  sreq.end = 3;
  serve::RpcShardResponse sresp;
  ASSERT_TRUE(client.CallShard(sreq, &sresp).ok());
  EXPECT_EQ(sresp.status, serve::RpcStatus::kBadRequest);
  // The connection survives and still serves slate requests.
  serve::RpcRequest req;
  req.id = 6;
  req.k = 1;
  req.slate = {0, 1};
  serve::RpcResponse resp;
  ASSERT_TRUE(client.Call(req, &resp).ok());
  EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
}

TEST(RpcServerTest, OutOfRangeIdsAreAnsweredBadRequestAndServingGoesOn) {
  serve::RpcServerOptions opts;
  opts.catalog_size = 12;  // a replica slice three ids past the 9 objects
  ServingStack stack({}, opts);
  ServingStack fresh;  // answers the valid request for comparison
  ASSERT_TRUE(stack.rpc.Start().ok());
  ASSERT_TRUE(fresh.rpc.Start().ok());
  serve::RpcClient client;
  serve::RpcClient fresh_client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  ASSERT_TRUE(fresh_client.Connect("127.0.0.1", fresh.rpc.port()).ok());

  const auto ex = TestExamples()[0];
  auto valid = [&](uint64_t id) {
    serve::RpcRequest req;
    req.id = id;
    req.user = ex.user;
    req.k = 5;
    req.history = ex.history;
    req.slate = FullCatalog(stack.space);
    return req;
  };
  serve::RpcResponse want;
  ASSERT_TRUE(fresh_client.Call(valid(1), &want).ok());
  ASSERT_EQ(want.status, serve::RpcStatus::kOk);

  struct Bad {
    const char* what;
    int32_t user;
    std::vector<int32_t> history;
    std::vector<int32_t> slate;
  };
  const std::vector<Bad> bad = {
      {"slate id == num_objects", 0, {1, 2}, {0, 9}},
      {"negative slate id", 0, {1, 2}, {-3, 1}},
      {"history id past the catalog", 0, {1, 40}, {0, 1}},
      {"negative history id", 0, {-1, 2}, {0, 1}},
      {"user == num_users", 5, {1, 2}, {0, 1}},
      {"negative user", -1, {1, 2}, {0, 1}},
  };
  uint64_t id = 100;
  for (const Bad& b : bad) {
    serve::RpcRequest req;
    req.id = ++id;
    req.user = b.user;
    req.k = 3;
    req.history = b.history;
    req.slate = b.slate;
    serve::RpcResponse resp;
    ASSERT_TRUE(client.Call(req, &resp).ok()) << b.what;
    EXPECT_EQ(resp.status, serve::RpcStatus::kBadRequest) << b.what;
    EXPECT_TRUE(resp.items.empty()) << b.what;
    // Same connection, next request: answered as a fresh server answers it.
    serve::RpcResponse next;
    ASSERT_TRUE(client.Call(valid(++id), &next).ok()) << b.what;
    ASSERT_EQ(next.status, serve::RpcStatus::kOk) << b.what;
    ExpectRankingEq(next.items, want.items, b.what);
  }

  // The shard path: a user outside the space, then a slice reaching past
  // the model's objects, then the in-range slice.
  serve::RpcShardRequest sreq;
  sreq.id = ++id;
  sreq.user = 5;
  sreq.k = 3;
  sreq.begin = 0;
  sreq.end = 9;
  sreq.history = ex.history;
  serve::RpcShardResponse sresp;
  ASSERT_TRUE(client.CallShard(sreq, &sresp).ok());
  EXPECT_EQ(sresp.status, serve::RpcStatus::kBadRequest);
  sreq.id = ++id;
  sreq.user = ex.user;
  sreq.end = 12;
  ASSERT_TRUE(client.CallShard(sreq, &sresp).ok());
  EXPECT_EQ(sresp.status, serve::RpcStatus::kBadRequest);
  sreq.id = ++id;
  sreq.end = 9;
  ASSERT_TRUE(client.CallShard(sreq, &sresp).ok());
  EXPECT_EQ(sresp.status, serve::RpcStatus::kOk);
  EXPECT_EQ(sresp.entries.size(), 3u);
  EXPECT_EQ(stack.rpc.stats().requests_bad, bad.size() + 2);

  // In process, the rejection fails Submit's future.
  data::SequenceExample stray = ex;
  stray.user = 5;
  EXPECT_THROW(stack.batch.Submit(stray, {0, 1}, 1).get(),
               std::invalid_argument);
}

TEST(RpcServerTest, ShutdownWithIdleConnectionsCompletesImmediately) {
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  serve::RpcClient idle1, idle2;
  ASSERT_TRUE(idle1.Connect("127.0.0.1", stack.rpc.port()).ok());
  ASSERT_TRUE(idle2.Connect("127.0.0.1", stack.rpc.port()).ok());
  // Idle connections have nothing to drain; Shutdown must not wait for the
  // drain deadline on them.
  stack.rpc.Shutdown();
  EXPECT_EQ(stack.rpc.open_connections(), 0u);
  serve::RpcResponse resp;
  EXPECT_FALSE(idle1.ReadResponse(&resp).ok());
}

// ---------------------------------------------------------------------------
// Fault injection on the client's I/O boundary (util::FailPoint)
// ---------------------------------------------------------------------------

serve::RpcRequest SmallRequest(uint64_t id) {
  serve::RpcRequest req;
  req.id = id;
  req.user = 0;
  req.k = 3;
  req.history = {1, 2, 3};
  req.slate = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  return req;
}

TEST(RpcClientFaultTest, ShortWritesAndEintrAreResumedNotCorrupted) {
  // Regression for the partial-write path of RpcClient's send loop: with
  // every send truncated to ONE byte and every third loop iteration hit by
  // a synthetic EINTR, a request frame must still arrive intact and the
  // response must round-trip — the resume logic may never duplicate, drop,
  // or reorder a byte.
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());

  util::FailPoint::Spec one_byte;
  one_byte.mode = util::FailPoint::Mode::kEveryK;
  one_byte.n = 1;  // every send
  util::ScopedFailPoint shorten("rpc.client.send.short", one_byte);
  util::FailPoint::Spec eintr;
  eintr.mode = util::FailPoint::Mode::kEveryK;
  eintr.n = 3;
  util::ScopedFailPoint interrupt("rpc.client.send.eintr", eintr);

  const data::SequenceExample ex = TestExamples()[0];
  serve::RpcRequest req;
  req.id = 1;
  req.user = ex.user;
  req.k = 3;
  req.history = ex.history;
  req.slate = FullCatalog(stack.space);
  serve::RpcResponse resp;
  ASSERT_TRUE(client.Call(req, &resp).ok());
  EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
  const auto want = stack.batch.Submit(ex, FullCatalog(stack.space), 3).get();
  ExpectRankingEq(resp.items, want, "byte-at-a-time send");
  // The schedule really ran: a frame is dozens of bytes, so the 1-byte
  // sends must have looped at least that many times.
  EXPECT_GT(util::FailPoint::Stats("rpc.client.send.short").failures, 20u);
  EXPECT_GT(util::FailPoint::Stats("rpc.client.send.eintr").failures, 5u);
}

TEST(RpcClientFaultTest, SendFailureClosesTheConnection) {
  // A failed send leaves a part-written frame on the wire — there is no
  // resync point, so the client must close rather than let the next frame
  // be parsed mid-stream. Reconnecting restores service.
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());

  {
    util::FailPoint::Spec first;
    first.mode = util::FailPoint::Mode::kNth;
    first.n = 1;
    first.error = EPIPE;
    util::ScopedFailPoint fp("rpc.client.send", first);
    const Status st = client.Send(SmallRequest(1));
    EXPECT_EQ(st.code(), StatusCode::kIoError);
    EXPECT_FALSE(client.connected())
        << "a part-written frame must poison (close) the stream";
  }

  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  serve::RpcResponse resp;
  ASSERT_TRUE(client.Call(SmallRequest(2), &resp).ok());
  EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
}

TEST(RpcClientFaultTest, ReadFailureClosesTheConnection) {
  // Same poisoning rule on the read side: a failed read may have consumed a
  // partial frame; the only safe continuation is a fresh connection.
  ServingStack stack;
  ASSERT_TRUE(stack.rpc.Start().ok());
  serve::RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());

  {
    util::FailPoint::Spec first;
    first.mode = util::FailPoint::Mode::kNth;
    first.n = 1;
    util::ScopedFailPoint fp("rpc.client.read", first);
    serve::RpcResponse resp;
    const Status st = client.Call(SmallRequest(1), &resp);
    EXPECT_EQ(st.code(), StatusCode::kIoError);
    EXPECT_FALSE(client.connected());
  }

  ASSERT_TRUE(client.Connect("127.0.0.1", stack.rpc.port()).ok());
  serve::RpcResponse resp;
  ASSERT_TRUE(client.Call(SmallRequest(2), &resp).ok());
  EXPECT_EQ(resp.status, serve::RpcStatus::kOk);
}

}  // namespace
}  // namespace seqfm
