#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/compress/codec.h"
#include "net/frame.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "net/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedgta {
namespace net {
namespace {

// Handcrafts the defined 12-byte little-endian wire header so tests can
// send malformed frames byte by byte. Deliberately NOT a struct copy: the
// header is a specified byte layout, independent of any compiler's padding
// or endianness (frame.h documents it).
std::string MakeHeader(uint32_t magic, uint64_t payload_size) {
  std::string h(kFrameHeaderBytes, '\0');
  for (int i = 0; i < 4; ++i) {
    h[static_cast<size_t>(i)] = static_cast<char>((magic >> (8 * i)) & 0xFF);
  }
  for (int i = 0; i < 8; ++i) {
    h[static_cast<size_t>(4 + i)] =
        static_cast<char>((payload_size >> (8 * i)) & 0xFF);
  }
  return h;
}

// Listens on an ephemeral port and returns {server, connected client pair}.
struct Loop {
  ServerSocket server;
  Socket client;  // dialing side
  Socket peer;    // accepted side
};

Loop MakeLoop() {
  Loop loop;
  Result<ServerSocket> server = ServerSocket::Listen(0);
  EXPECT_TRUE(server.ok()) << server.status();
  loop.server = std::move(*server);
  Result<Socket> client = Connect("127.0.0.1", loop.server.port(), 2000);
  EXPECT_TRUE(client.ok()) << client.status();
  loop.client = std::move(*client);
  Result<Socket> peer = loop.server.Accept(2000);
  EXPECT_TRUE(peer.ok()) << peer.status();
  loop.peer = std::move(*peer);
  return loop;
}

TEST(SocketTest, ReadFullReassemblesByteAtATimeWrites) {
  Loop loop = MakeLoop();
  std::vector<char> sent(1000);
  for (size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<char>(i * 31 + 7);
  }
  std::thread writer([&] {
    for (char byte : sent) {
      ASSERT_TRUE(loop.peer.WriteFull(&byte, 1).ok());
    }
  });
  std::vector<char> got(sent.size());
  const Status read = loop.client.ReadFull(got.data(), got.size());
  writer.join();
  ASSERT_TRUE(read.ok()) << read;
  EXPECT_EQ(got, sent);
}

TEST(SocketTest, PeerCloseMidMessageIsErrorNotCrash) {
  Loop loop = MakeLoop();
  std::thread writer([&] {
    const char some[10] = {};
    ASSERT_TRUE(loop.peer.WriteFull(some, sizeof(some)).ok());
    loop.peer.Close();
  });
  char buf[64];
  const Status read = loop.client.ReadFull(buf, sizeof(buf));
  writer.join();
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kInternal) << read;
}

TEST(SocketTest, RecvTimeoutSurfacesAsDeadlineExceeded) {
  Loop loop = MakeLoop();
  ASSERT_TRUE(loop.client.SetRecvTimeout(50).ok());
  char buf[8];
  const Status read = loop.client.ReadFull(buf, sizeof(buf));
  EXPECT_EQ(read.code(), StatusCode::kDeadlineExceeded) << read;
}

TEST(SocketTest, ConnectToClosedPortFails) {
  // Grab an ephemeral port, then close it so nothing listens there.
  int dead_port = 0;
  {
    Result<ServerSocket> server = ServerSocket::Listen(0);
    ASSERT_TRUE(server.ok());
    dead_port = server->port();
  }
  Result<Socket> conn = Connect("127.0.0.1", dead_port, 500);
  EXPECT_FALSE(conn.ok());
}

TEST(FrameTest, RoundTripsAWriterPayload) {
  Loop loop = MakeLoop();
  serialize::Writer writer;
  writer.WriteU32(0xDEADu);
  writer.WriteString("hello frame");
  const std::vector<float> floats = {1.5f, -2.5f, 3.25f};
  writer.WriteFloatVec(floats);
  std::thread sender(
      [&] { ASSERT_TRUE(SendFrame(loop.peer, writer).ok()); });
  Result<serialize::Reader> reader = RecvFrame(loop.client);
  sender.join();
  ASSERT_TRUE(reader.ok()) << reader.status();
  uint32_t tag = 0;
  std::string text;
  std::vector<float> vec;
  ASSERT_TRUE(reader->ReadU32(&tag).ok());
  ASSERT_TRUE(reader->ReadString(&text).ok());
  ASSERT_TRUE(reader->ReadFloatVec(&vec).ok());
  EXPECT_EQ(tag, 0xDEADu);
  EXPECT_EQ(text, "hello frame");
  EXPECT_EQ(vec, (std::vector<float>{1.5f, -2.5f, 3.25f}));
  EXPECT_TRUE(reader->AtEnd());
}

TEST(FrameTest, FlippedPayloadBitIsErrorStatus) {
  Loop loop = MakeLoop();
  serialize::Writer writer;
  writer.WriteString("soon to be corrupted");
  std::string encoded = writer.Encode();
  encoded.back() = static_cast<char>(encoded.back() ^ 0x40);

  const std::string header = MakeHeader(kFrameMagic, encoded.size());
  ASSERT_TRUE(loop.peer.WriteFull(header.data(), header.size()).ok());
  ASSERT_TRUE(loop.peer.WriteFull(encoded.data(), encoded.size()).ok());

  Result<serialize::Reader> reader = RecvFrame(loop.client);
  EXPECT_FALSE(reader.ok());
}

TEST(FrameTest, TruncatedFrameIsErrorStatus) {
  Loop loop = MakeLoop();
  // Declares 100 payload bytes... but only 10 follow.
  const std::string header = MakeHeader(kFrameMagic, 100);
  ASSERT_TRUE(loop.peer.WriteFull(header.data(), header.size()).ok());
  const char partial[10] = {};
  ASSERT_TRUE(loop.peer.WriteFull(partial, sizeof(partial)).ok());
  loop.peer.Close();
  Result<serialize::Reader> reader = RecvFrame(loop.client);
  EXPECT_FALSE(reader.ok());
}

TEST(FrameTest, BadMagicIsErrorStatus) {
  Loop loop = MakeLoop();
  const std::string header = MakeHeader(0x12345678, 4);
  ASSERT_TRUE(loop.peer.WriteFull(header.data(), header.size()).ok());
  Result<serialize::Reader> reader = RecvFrame(loop.client);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, OversizeDeclaredPayloadIsRejectedBeforeAllocation) {
  Loop loop = MakeLoop();
  const std::string header = MakeHeader(kFrameMagic, kMaxFramePayload + 1);
  ASSERT_TRUE(loop.peer.WriteFull(header.data(), header.size()).ok());
  Result<serialize::Reader> reader = RecvFrame(loop.client);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(RpcTest, WireFedConfigRoundTrips) {
  WireFedConfig in;
  in.dataset = "citeseer";
  in.seed = 1234;
  in.split_method = "metis";
  in.num_clients = 7;
  in.overlap_fraction = 0.25;
  in.model = "sgc";
  in.hidden = 32;
  in.num_layers = 3;
  in.model_k = 4;
  in.dropout = 0.1f;
  in.optimizer = "sgd";
  in.lr = 0.05f;
  in.strategy = "fedprox";
  in.prox_mu = 0.125f;
  in.gta_alpha = 0.75f;
  in.gta_k = 2;
  in.gta_use_feature_moments = true;
  in.local_epochs = 4;
  in.batch_size = 64;
  in.fail_dropout = 0.125;
  in.fail_seed = 99;
  in.async = true;
  in.staleness_tau = 3;
  in.staleness_decay = 0.625;

  serialize::Writer writer;
  in.Encode(&writer);
  Result<serialize::Reader> reader =
      serialize::Reader::FromBuffer(writer.Encode());
  ASSERT_TRUE(reader.ok()) << reader.status();
  WireFedConfig out;
  ASSERT_TRUE(out.Decode(&*reader).ok());
  EXPECT_TRUE(reader->AtEnd());
  EXPECT_EQ(out.dataset, in.dataset);
  EXPECT_EQ(out.seed, in.seed);
  EXPECT_EQ(out.split_method, in.split_method);
  EXPECT_EQ(out.num_clients, in.num_clients);
  EXPECT_EQ(out.overlap_fraction, in.overlap_fraction);
  EXPECT_EQ(out.model, in.model);
  EXPECT_EQ(out.hidden, in.hidden);
  EXPECT_EQ(out.num_layers, in.num_layers);
  EXPECT_EQ(out.model_k, in.model_k);
  EXPECT_EQ(out.dropout, in.dropout);
  EXPECT_EQ(out.optimizer, in.optimizer);
  EXPECT_EQ(out.lr, in.lr);
  EXPECT_EQ(out.strategy, in.strategy);
  EXPECT_EQ(out.prox_mu, in.prox_mu);
  EXPECT_EQ(out.gta_alpha, in.gta_alpha);
  EXPECT_EQ(out.gta_k, in.gta_k);
  EXPECT_EQ(out.gta_use_feature_moments, in.gta_use_feature_moments);
  EXPECT_EQ(out.local_epochs, in.local_epochs);
  EXPECT_EQ(out.batch_size, in.batch_size);
  EXPECT_EQ(out.fail_dropout, in.fail_dropout);
  EXPECT_EQ(out.fail_seed, in.fail_seed);
  EXPECT_EQ(out.async, in.async);
  EXPECT_EQ(out.staleness_tau, in.staleness_tau);
  EXPECT_EQ(out.staleness_decay, in.staleness_decay);
}

TEST(RpcTest, ChannelEchoesARequestResponseExchange) {
  Loop loop = MakeLoop();
  std::thread server([&] {
    EvalRequestMsg req;
    ASSERT_TRUE(ExpectMessage(loop.peer, &req).ok());
    EvalResponseMsg resp;
    resp.client_id = req.client_id;
    resp.test_accuracy = 0.75;
    resp.val_accuracy = 0.5;
    ASSERT_TRUE(SendMessage(loop.peer, resp).ok());
  });
  RpcOptions options;
  options.deadline_ms = 2000;
  RpcChannel channel(std::move(loop.client), options);
  ASSERT_TRUE(channel.ok());
  EvalRequestMsg req;
  req.client_id = 7;
  req.weights = {1.0f, 2.0f};
  EvalResponseMsg resp;
  const Status called = channel.Call(req, &resp);
  server.join();
  ASSERT_TRUE(called.ok()) << called;
  EXPECT_EQ(resp.client_id, 7);
  EXPECT_EQ(resp.test_accuracy, 0.75);
  EXPECT_TRUE(channel.ok());
}

TEST(RpcTest, BlownDeadlinePoisonsTheChannel) {
  Loop loop = MakeLoop();
  RpcOptions options;
  options.deadline_ms = 100;
  options.max_attempts = 3;
  options.backoff_ms = 10;
  RpcChannel channel(std::move(loop.client), options);
  EvalRequestMsg req;
  req.client_id = 1;
  EvalResponseMsg resp;
  // The peer never answers: the deadline expires and — because a late
  // response would desynchronize the stream — there is no retry.
  const Status first = channel.Call(req, &resp);
  EXPECT_EQ(first.code(), StatusCode::kDeadlineExceeded) << first;
  EXPECT_FALSE(channel.ok());
  const Status second = channel.Call(req, &resp);
  EXPECT_FALSE(second.ok());
}

TEST(RpcTest, ErrorMsgSurfacesAsFailedPreconditionWithText) {
  Loop loop = MakeLoop();
  std::thread server([&] {
    ErrorMsg err;
    err.message = "unknown strategy: gcfl+";
    ASSERT_TRUE(SendMessage(loop.peer, err).ok());
  });
  ShutdownAckMsg ack;
  const Status got = ExpectMessage(loop.client, &ack);
  server.join();
  ASSERT_EQ(got.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.ToString().find("unknown strategy"), std::string::npos);
}

TEST(RpcTest, TypeMismatchIsProtocolError) {
  Loop loop = MakeLoop();
  std::thread server([&] {
    HelloMsg hello;
    ASSERT_TRUE(SendMessage(loop.peer, hello).ok());
  });
  ShutdownAckMsg ack;
  const Status got = ExpectMessage(loop.client, &ack);
  server.join();
  EXPECT_EQ(got.code(), StatusCode::kInvalidArgument);
}

TEST(RpcTest, ConnectWithRetryCountsRetriesAndGivesUp) {
  int dead_port = 0;
  {
    Result<ServerSocket> server = ServerSocket::Listen(0);
    ASSERT_TRUE(server.ok());
    dead_port = server->port();
  }
  Counter& retries = GlobalMetrics().GetCounter("net.connect_retries");
  const int64_t before = retries.value();
  RpcOptions options;
  options.max_attempts = 3;
  options.backoff_ms = 5;
  options.deadline_ms = 200;
  Result<Socket> conn = ConnectWithRetry("127.0.0.1", dead_port, options);
  EXPECT_FALSE(conn.ok());
  EXPECT_GE(retries.value() - before, 2);
}

TEST(RpcTest, EnvelopeCarriesTheSendersTraceContext) {
  Loop loop = MakeLoop();
  TraceContext ctx;
  ctx.trace_id = 0x1234ABCDu;
  ctx.span_id = 0x42u;
  ctx.round = 9;
  std::thread sender([&] {
    ScopedTraceContext install(ctx);
    HelloMsg hello;
    ASSERT_TRUE(SendMessage(loop.peer, hello).ok());
  });
  Result<serialize::Reader> reader = RecvMessage(loop.client);
  sender.join();
  ASSERT_TRUE(reader.ok()) << reader.status();
  TraceContext got;
  Result<MsgType> type = ReadMsgType(&*reader, &got);
  ASSERT_TRUE(type.ok()) << type.status();
  EXPECT_EQ(*type, MsgType::kHello);
  EXPECT_EQ(got.trace_id, ctx.trace_id);
  EXPECT_EQ(got.span_id, ctx.span_id);
  EXPECT_EQ(got.round, 9);
  // The envelope is consumed even when the caller does not ask for it —
  // the payload that follows must decode either way.
  HelloMsg hello;
  EXPECT_TRUE(hello.Decode(&*reader).ok());
  EXPECT_TRUE(reader->AtEnd());
}

TEST(RpcTest, EnvelopeIsConsumedWithoutAContextPointer) {
  Loop loop = MakeLoop();
  std::thread sender([&] {
    HelloMsg hello;
    ASSERT_TRUE(SendMessage(loop.peer, hello).ok());
  });
  Result<serialize::Reader> reader = RecvMessage(loop.client);
  sender.join();
  ASSERT_TRUE(reader.ok()) << reader.status();
  Result<MsgType> type = ReadMsgType(&*reader);
  ASSERT_TRUE(type.ok()) << type.status();
  HelloMsg hello;
  EXPECT_TRUE(hello.Decode(&*reader).ok());
  EXPECT_TRUE(reader->AtEnd());
}

TEST(RpcTest, HelloAssignClockStampsRoundTrip) {
  Loop loop = MakeLoop();
  std::thread sender([&] {
    AssignConfigMsg assign;
    assign.hello_recv_us = 111;
    assign.assign_send_us = 222;
    assign.worker_index = 3;
    ASSERT_TRUE(SendMessage(loop.peer, assign).ok());
  });
  AssignConfigMsg got;
  const Status received = ExpectMessage(loop.client, &got);
  sender.join();
  ASSERT_TRUE(received.ok()) << received;
  EXPECT_EQ(got.hello_recv_us, 111);
  EXPECT_EQ(got.assign_send_us, 222);
  EXPECT_EQ(got.worker_index, 3);
}

TEST(RpcTest, TrainResponsePiggybacksAMetricsDelta) {
  Loop loop = MakeLoop();
  std::thread sender([&] {
    TrainResponseMsg resp;
    resp.client_id = 4;
    // v3 round echo: async responses arrive out of round order, so the
    // dispatch round must survive the wire rather than being inferred.
    resp.round = 9;
    resp.metrics.seq = 17;
    resp.metrics.counters["phase.remote_train.calls"] = 2;
    ASSERT_TRUE(SendMessage(loop.peer, resp).ok());
  });
  TrainResponseMsg got;
  const Status received = ExpectMessage(loop.client, &got);
  sender.join();
  ASSERT_TRUE(received.ok()) << received;
  EXPECT_EQ(got.client_id, 4);
  EXPECT_EQ(got.round, 9);
  EXPECT_EQ(got.metrics.seq, 17u);
  EXPECT_EQ(got.metrics.counters.at("phase.remote_train.calls"), 2);
}

TEST(StatusServerTest, ServesLineRequestsUntilStopped) {
  StatusServer status;
  ASSERT_TRUE(status.Bind(0).ok());
  ASSERT_TRUE(status.bound());
  ASSERT_GT(status.port(), 0);
  status.Start([](const std::string& request) {
    return "echo:" + request + "\n";
  });

  const auto query = [&](const std::string& request) {
    Result<Socket> conn = Connect("127.0.0.1", status.port(), 2000);
    EXPECT_TRUE(conn.ok()) << conn.status();
    const std::string line = request + "\n";
    EXPECT_TRUE(conn->WriteFull(line.data(), line.size()).ok());
    std::string reply;
    char byte = 0;
    while (conn->ReadFull(&byte, 1).ok()) reply.push_back(byte);
    return reply;
  };

  EXPECT_EQ(query("status"), "echo:status\n");
  // CRLF clients (telnet-style) get the same answer.
  Result<Socket> crlf = Connect("127.0.0.1", status.port(), 2000);
  ASSERT_TRUE(crlf.ok());
  const std::string line = "metrics\r\n";
  ASSERT_TRUE(crlf->WriteFull(line.data(), line.size()).ok());
  std::string reply;
  char byte = 0;
  while (crlf->ReadFull(&byte, 1).ok()) reply.push_back(byte);
  EXPECT_EQ(reply, "echo:metrics\n");

  status.Stop();
  // After Stop the port no longer accepts.
  Result<Socket> dead = Connect("127.0.0.1", status.port(), 200);
  EXPECT_FALSE(dead.ok());
}

TEST(StatusServerTest, UnboundServerIsInertAndStopIsIdempotent) {
  StatusServer status;
  EXPECT_FALSE(status.bound());
  EXPECT_EQ(status.port(), -1);
  status.Start([](const std::string&) { return std::string(); });  // no-op
  status.Stop();
  status.Stop();
}

TEST(RpcTest, MessageBytesAreCountedByTheFrameLayer) {
  Counter& sent = GlobalMetrics().GetCounter("net.bytes_sent");
  Counter& recv = GlobalMetrics().GetCounter("net.bytes_recv");
  Counter& messages = GlobalMetrics().GetCounter("net.messages");
  const int64_t sent0 = sent.value();
  const int64_t recv0 = recv.value();
  const int64_t messages0 = messages.value();

  Loop loop = MakeLoop();
  std::thread server([&] {
    HelloMsg hello;
    ASSERT_TRUE(ExpectMessage(loop.peer, &hello).ok());
  });
  HelloMsg hello;
  ASSERT_TRUE(SendMessage(loop.client, hello).ok());
  server.join();
  EXPECT_GT(sent.value(), sent0);
  EXPECT_GT(recv.value(), recv0);
  EXPECT_GE(messages.value() - messages0, 2);
}

TEST(FrameTest, WireHeaderIsExactTwelveByteLittleEndianLayout) {
  Loop loop = MakeLoop();
  serialize::Writer writer;
  writer.WriteU32(0xABCDu);
  const std::string encoded = writer.Encode();
  std::thread sender(
      [&] { ASSERT_TRUE(SendFrame(loop.peer, writer).ok()); });
  std::vector<char> raw(kFrameHeaderBytes + encoded.size());
  ASSERT_TRUE(loop.client.ReadFull(raw.data(), raw.size()).ok());
  sender.join();
  // Bytes 0-3: the raw-frame magic, little-endian "FGNF".
  EXPECT_EQ(raw[0], 'F');
  EXPECT_EQ(raw[1], 'G');
  EXPECT_EQ(raw[2], 'N');
  EXPECT_EQ(raw[3], 'F');
  // Bytes 4-11: payload size, little-endian u64.
  uint64_t size = 0;
  for (int i = 0; i < 8; ++i) {
    size |= static_cast<uint64_t>(static_cast<uint8_t>(raw[4 + i]))
            << (8 * i);
  }
  EXPECT_EQ(size, encoded.size());
  // The payload follows verbatim.
  EXPECT_EQ(std::string(raw.begin() + kFrameHeaderBytes, raw.end()), encoded);
}

TEST(FrameTest, CompressedFrameKindRoundTripsWithDistinctMagic) {
  Loop loop = MakeLoop();
  serialize::Writer writer;
  writer.WriteString("compressed-kind payload");
  std::thread sender([&] {
    ASSERT_TRUE(SendFrame(loop.peer, writer, FrameKind::kCompressed).ok());
  });
  FrameKind kind = FrameKind::kRaw;
  Result<serialize::Reader> reader = RecvFrame(loop.client, &kind);
  sender.join();
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(kind, FrameKind::kCompressed);
  std::string text;
  ASSERT_TRUE(reader->ReadString(&text).ok());
  EXPECT_EQ(text, "compressed-kind payload");
  // The compressed magic is "FGNZ" — a v3 binary's magic check rejects it
  // rather than misparsing (compressed frames are only sent after a v4
  // negotiation, so this is belt and braces).
  EXPECT_NE(kFrameMagic, kFrameMagicCompressed);
}

TEST(RpcTest, HelloCodecCapabilitiesRoundTrip) {
  Loop loop = MakeLoop();
  std::thread sender([&] {
    HelloMsg hello;
    hello.codec_capabilities = compress::AllCapabilities();
    ASSERT_TRUE(SendMessage(loop.peer, hello).ok());
  });
  HelloMsg got;
  const Status received = ExpectMessage(loop.client, &got);
  sender.join();
  ASSERT_TRUE(received.ok()) << received;
  EXPECT_EQ(got.protocol_version, kProtocolVersion);
  EXPECT_EQ(got.codec_capabilities, compress::AllCapabilities());
}

TEST(RpcTest, AssignConfigCodecFieldsRoundTrip) {
  AssignConfigMsg in;
  in.worker_index = 1;
  in.codec_id = static_cast<uint32_t>(compress::CodecId::kDelta);
  in.compress_topk = 64;
  serialize::Writer w;
  in.Encode(&w);
  const std::string encoded = w.Encode();
  Result<serialize::Reader> reader = serialize::Reader::FromBuffer(encoded);
  ASSERT_TRUE(reader.ok()) << reader.status();
  AssignConfigMsg out;
  ASSERT_TRUE(out.Decode(&*reader).ok());
  EXPECT_TRUE(reader->AtEnd());
  EXPECT_EQ(out.codec_id, static_cast<uint32_t>(compress::CodecId::kDelta));
  EXPECT_EQ(out.compress_topk, 64);
}

TEST(RpcTest, CompressedLinkRoundTripsTrainTensors) {
  // End-to-end over a socket pair: server-side link encodes the download,
  // worker-side link decodes it, and the worker's upload (top-k delta
  // against that download) reconstructs exactly at the shipped indices.
  const compress::Codec* delta = compress::FindCodec("delta");
  ASSERT_NE(delta, nullptr);
  DownloadStash server_stash;
  DownloadStash worker_stash;
  compress::Link server_link(delta, 0, &server_stash);
  compress::Link worker_link(delta, 0, &worker_stash);
  Loop loop = MakeLoop();

  std::vector<float> download(256);
  for (size_t i = 0; i < download.size(); ++i) {
    download[i] = 0.01f * static_cast<float>(i);
  }
  std::thread server([&] {
    TrainRequestMsg req;
    req.client_id = 7;
    req.round = 1;
    req.weights = download;
    server_stash.Store(req.client_id, download);
    ASSERT_TRUE(SendMessage(loop.peer, req, &server_link).ok());
    TrainResponseMsg resp;
    ASSERT_TRUE(ExpectMessage(loop.peer, &resp, &server_link).ok());
    EXPECT_EQ(resp.client_id, 7);
    ASSERT_EQ(resp.weights.size(), download.size());
    // Unchanged elements reconstruct from the base; changed ones exactly.
    EXPECT_EQ(resp.weights[3], 42.0f);
    EXPECT_EQ(resp.weights[10], download[10]);
  });

  TrainRequestMsg req;
  ASSERT_TRUE(ExpectMessage(loop.client, &req, &worker_link).ok());
  ASSERT_EQ(req.weights.size(), download.size());
  EXPECT_EQ(req.weights, download);  // downloads ship dense: bit-exact
  worker_stash.Store(req.client_id, req.weights);
  TrainResponseMsg resp;
  resp.client_id = 7;
  resp.round = 1;
  resp.weights = req.weights;
  resp.weights[3] = 42.0f;  // one changed element; top-k auto = 256/8 = 32
  ASSERT_TRUE(SendMessage(loop.client, resp, &worker_link).ok());
  server.join();
}

TEST(RpcTest, V6MessageLayoutsArePinned) {
  // The frozen v6 layouts, field by field: every field is fixed (no
  // version-gated trailers), and a download section is a bool reuse marker
  // followed by the weights only when the marker is clear.
  auto bytes = [](const auto& msg) {
    serialize::Writer w;
    msg.Encode(&w);
    return w.Encode();
  };
  HelloMsg hello;
  hello.t_send_us = 777;
  hello.codec_capabilities = 0x0Fu;
  hello.node_role = static_cast<uint32_t>(NodeRole::kAggregator);
  serialize::Writer hello_ref;
  hello_ref.WriteU32(6u);
  hello_ref.WriteI64(777);
  hello_ref.WriteU32(0x0Fu);
  hello_ref.WriteU32(1u);  // NodeRole::kAggregator
  EXPECT_EQ(bytes(hello), hello_ref.Encode());

  AssignConfigMsg assign;
  assign.client_ids = {2, 5};
  assign.hello_recv_us = 11;
  assign.assign_send_us = 12;
  assign.worker_index = 3;
  assign.codec_id = static_cast<uint32_t>(compress::CodecId::kInt8);
  assign.compress_topk = 16;
  serialize::Writer assign_ref;
  assign.config.Encode(&assign_ref);
  assign_ref.WriteI32Vec(assign.client_ids);
  assign_ref.WriteI64(11);
  assign_ref.WriteI64(12);
  assign_ref.WriteI32(3);
  assign_ref.WriteU32(2u);  // CodecId::kInt8
  assign_ref.WriteI32(16);
  EXPECT_EQ(bytes(assign), assign_ref.Encode());

  TrainRequestMsg train;
  train.round = 4;
  train.client_id = 9;
  train.weights = {1.5f, -2.0f};
  serialize::Writer train_ref;
  train_ref.WriteI32(4);
  train_ref.WriteI32(9);
  train_ref.WriteBool(false);
  train_ref.WriteFloatVec(train.weights);
  EXPECT_EQ(bytes(train), train_ref.Encode());

  train.reuse = true;  // the weights are not sent, whatever they hold
  serialize::Writer reuse_ref;
  reuse_ref.WriteI32(4);
  reuse_ref.WriteI32(9);
  reuse_ref.WriteBool(true);
  EXPECT_EQ(bytes(train), reuse_ref.Encode());

  EvalRequestMsg eval;
  eval.client_id = 9;
  eval.reuse = true;
  serialize::Writer eval_ref;
  eval_ref.WriteI32(9);
  eval_ref.WriteBool(true);
  EXPECT_EQ(bytes(eval), eval_ref.Encode());
}

TEST(RpcTest, ReuseMarkerDecodesWithoutWeightsAndRejectsTrailingTensor) {
  serialize::Writer w;
  w.WriteI32(9);
  w.WriteBool(true);
  std::string encoded = w.Encode();
  Result<serialize::Reader> reader = serialize::Reader::FromBuffer(encoded);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EvalRequestMsg eval;
  eval.weights = {3.0f};  // a decoded marker leaves no stale weights
  ASSERT_TRUE(eval.Decode(&*reader).ok());
  EXPECT_TRUE(eval.reuse);
  EXPECT_TRUE(eval.weights.empty());

  // A marker that still drags a tensor behind it is malformed.
  w.WriteFloatVec(std::vector<float>{1.0f, 2.0f});
  encoded = w.Encode();
  reader = serialize::Reader::FromBuffer(encoded);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const Status st = eval.Decode(&*reader);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
}

TEST(RpcTest, RoutedMsgRoundTripsOverSocket) {
  // The v5 generic envelope: kind + routing header + opaque body. The
  // hierarchy's typed payloads all ride inside `body`, so the transport
  // layer only needs this frame to round-trip losslessly.
  Loop loop = MakeLoop();
  std::thread sender([&] {
    RoutedMsg msg;
    msg.kind = static_cast<uint32_t>(EnvelopeKind::kSignatureExchange);
    msg.round = 12;
    msg.src = 0;
    msg.dst = 2;
    msg.body = std::string("\x00\x01payload\xFF", 10);
    ASSERT_TRUE(SendMessage(loop.peer, msg).ok());
  });
  RoutedMsg got;
  const Status received = ExpectMessage(loop.client, &got);
  sender.join();
  ASSERT_TRUE(received.ok()) << received;
  EXPECT_EQ(got.kind, static_cast<uint32_t>(EnvelopeKind::kSignatureExchange));
  EXPECT_EQ(got.round, 12);
  EXPECT_EQ(got.src, 0);
  EXPECT_EQ(got.dst, 2);
  EXPECT_EQ(got.body, std::string("\x00\x01payload\xFF", 10));
  EXPECT_STREQ(EnvelopeKindName(static_cast<EnvelopeKind>(got.kind)),
               "SignatureExchange");
}

}  // namespace
}  // namespace net
}  // namespace fedgta
