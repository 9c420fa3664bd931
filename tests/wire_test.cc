#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "wire/connection.h"
#include "wire/messages.h"
#include "wire/rpc.h"

namespace dlog::wire {
namespace {

// --- Message codecs ---

LogRecord MakeRecord(Lsn lsn, Epoch epoch, bool present,
                     std::string_view data) {
  LogRecord r;
  r.lsn = lsn;
  r.epoch = epoch;
  r.present = present;
  r.data = ToBytes(data);
  return r;
}

TEST(MessagesTest, RecordBatchRoundTrip) {
  RecordBatch batch;
  batch.client = 42;
  batch.epoch = 3;
  batch.records = {MakeRecord(1, 3, true, "alpha"),
                   MakeRecord(2, 3, false, "")};
  Bytes wire = EncodeRecordBatch(MessageType::kForceLog, batch);

  Result<Envelope> env = DecodeEnvelope(wire);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->type, MessageType::kForceLog);
  EXPECT_EQ(env->rpc_id, 0u);
  Result<RecordBatch> decoded = DecodeRecordBatch(env->body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->client, 42u);
  EXPECT_EQ(decoded->epoch, 3u);
  ASSERT_EQ(decoded->records.size(), 2u);
  EXPECT_EQ(decoded->records[0], batch.records[0]);
  EXPECT_EQ(decoded->records[1], batch.records[1]);
}

TEST(MessagesTest, AsyncMessagesRoundTrip) {
  {
    Bytes w = EncodeNewInterval({7, 4, 100});
    Result<Envelope> env = DecodeEnvelope(w);
    ASSERT_TRUE(env.ok());
    EXPECT_EQ(env->type, MessageType::kNewInterval);
    auto m = DecodeNewInterval(env->body);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->client, 7u);
    EXPECT_EQ(m->epoch, 4u);
    EXPECT_EQ(m->starting_lsn, 100u);
  }
  {
    Bytes w = EncodeNewHighLsn({55});
    auto env = DecodeEnvelope(w);
    ASSERT_TRUE(env.ok());
    EXPECT_EQ(DecodeNewHighLsn(env->body)->new_high_lsn, 55u);
  }
  {
    Bytes w = EncodeMissingInterval({10, 19});
    auto env = DecodeEnvelope(w);
    ASSERT_TRUE(env.ok());
    auto m = DecodeMissingInterval(env->body);
    EXPECT_EQ(m->low, 10u);
    EXPECT_EQ(m->high, 19u);
  }
}

TEST(MessagesTest, RpcMessagesRoundTrip) {
  {
    Bytes w = EncodeIntervalListReq({9}, 77);
    auto env = DecodeEnvelope(w);
    ASSERT_TRUE(env.ok());
    EXPECT_EQ(env->rpc_id, 77u);
    EXPECT_EQ(DecodeIntervalListReq(env->body)->client, 9u);
  }
  {
    IntervalListResp resp;
    resp.intervals = {{1, 1, 3}, {3, 3, 9}};
    Bytes w = EncodeIntervalListResp(resp, 77);
    auto env = DecodeEnvelope(w);
    auto m = DecodeIntervalListResp(env->body);
    ASSERT_TRUE(m.ok());
    ASSERT_EQ(m->intervals.size(), 2u);
    EXPECT_EQ(m->intervals[1], (Interval{3, 3, 9}));
  }
  {
    Bytes w = EncodeReadLogReq(MessageType::kReadLogBackwardReq, {4, 12}, 5);
    auto env = DecodeEnvelope(w);
    EXPECT_EQ(env->type, MessageType::kReadLogBackwardReq);
    auto m = DecodeReadLogReq(env->body);
    EXPECT_EQ(m->lsn, 12u);
  }
  {
    ReadLogResp resp;
    resp.status = RpcStatus::kNotFound;
    Bytes w = EncodeReadLogResp(resp, 5);
    auto env = DecodeEnvelope(w);
    EXPECT_EQ(DecodeReadLogResp(env->body)->status, RpcStatus::kNotFound);
  }
  {
    CopyLogReq req;
    req.client = 1;
    req.epoch = 4;
    req.records = {MakeRecord(9, 4, true, "copy")};
    Bytes w = EncodeCopyLogReq(req, 8);
    auto env = DecodeEnvelope(w);
    auto m = DecodeCopyLogReq(env->body);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->records[0].data, ToBytes("copy"));
  }
  {
    Bytes w = EncodeInstallCopiesReq({1, 4}, 9);
    auto env = DecodeEnvelope(w);
    EXPECT_EQ(DecodeInstallCopiesReq(env->body)->epoch, 4u);
  }
  {
    Bytes w = EncodeGenWriteReq({3, 1234}, 10);
    auto env = DecodeEnvelope(w);
    auto m = DecodeGenWriteReq(env->body);
    EXPECT_EQ(m->client, 3u);
    EXPECT_EQ(m->value, 1234u);
  }
  {
    GenReadResp resp;
    resp.value = 88;
    Bytes w = EncodeGenReadResp(resp, 11);
    auto env = DecodeEnvelope(w);
    EXPECT_EQ(DecodeGenReadResp(env->body)->value, 88u);
  }
}

TEST(MessagesTest, GarbageIsRejected) {
  EXPECT_FALSE(DecodeEnvelope(ToBytes("")).ok());
  EXPECT_FALSE(DecodeEnvelope(ToBytes("\xFFgarbage")).ok());
}

TEST(MessagesTest, EncodedRecordSizeMatchesActual) {
  RecordBatch batch;
  batch.client = 1;
  batch.epoch = 1;
  const LogRecord r = MakeRecord(5, 1, true, "0123456789");
  Bytes empty = EncodeRecordBatch(MessageType::kWriteLog, batch);
  batch.records.push_back(r);
  Bytes one = EncodeRecordBatch(MessageType::kWriteLog, batch);
  EXPECT_EQ(one.size() - empty.size(), EncodedRecordSize(r));
  EXPECT_EQ(empty.size(), RecordBatchOverhead());
}

// --- Connection / Endpoint ---

struct TestPeer {
  TestPeer(sim::Simulator* sim, net::Network* network, net::NodeId id,
           const WireConfig& cfg = WireConfig{})
      : cpu(sim, 100.0), nic(sim, 64), endpoint(sim, &cpu, id, cfg) {
    network->Attach(id, &nic);
    endpoint.AttachNetwork(network, &nic);
  }
  sim::Cpu cpu;
  net::Nic nic;
  Endpoint endpoint;
};

struct WirePair {
  explicit WirePair(net::NetworkConfig net_cfg = {},
                    WireConfig wire_cfg = WireConfig{})
      : network(&sim, net_cfg),
        a(&sim, &network, 1, wire_cfg),
        b(&sim, &network, 2, wire_cfg) {
    b.endpoint.SetAcceptHandler([this](Connection* conn) {
      accepted = conn;
      conn->SetMessageHandler([this](const SharedBytes& payload) {
        b_received.push_back(payload);
      });
    });
  }
  sim::Simulator sim;
  net::Network network;
  TestPeer a, b;
  Connection* accepted = nullptr;
  std::vector<SharedBytes> b_received;
};

TEST(ConnectionTest, HandshakeEstablishes) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  EXPECT_TRUE(conn->IsEstablished());
  ASSERT_NE(p.accepted, nullptr);
  EXPECT_TRUE(p.accepted->IsEstablished());
  EXPECT_EQ(p.accepted->peer(), 1u);
}

TEST(ConnectionTest, DataFlowsBothWays) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  std::vector<SharedBytes> a_received;
  conn->SetMessageHandler(
      [&](const SharedBytes& payload) { a_received.push_back(payload); });

  conn->Send(ToBytes("hello"));
  conn->Send(ToBytes("world"));
  p.sim.Run();
  ASSERT_EQ(p.b_received.size(), 2u);
  EXPECT_EQ(ToString(p.b_received[0]), "hello");
  EXPECT_EQ(ToString(p.b_received[1]), "world");

  p.accepted->Send(ToBytes("reply"));
  p.sim.Run();
  ASSERT_EQ(a_received.size(), 1u);
  EXPECT_EQ(ToString(a_received[0]), "reply");
}

TEST(ConnectionTest, SendBeforeEstablishedIsQueued) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  conn->Send(ToBytes("early"));  // handshake not yet complete
  p.sim.Run();
  ASSERT_EQ(p.b_received.size(), 1u);
  EXPECT_EQ(ToString(p.b_received[0]), "early");
}

TEST(ConnectionTest, DuplicatesAreSuppressed) {
  net::NetworkConfig net_cfg;
  net_cfg.duplicate_probability = 0.5;
  net_cfg.seed = 11;
  WirePair p(net_cfg);
  Connection* conn = p.a.endpoint.Connect(2);
  for (int i = 0; i < 50; ++i) {
    conn->Send(ToBytes(std::string("m").append(std::to_string(i))));
  }
  p.sim.Run();
  // Every payload delivered exactly once despite wire duplication.
  ASSERT_EQ(p.b_received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ToString(p.b_received[i]),
              std::string("m").append(std::to_string(i)));
  }
}

TEST(ConnectionTest, HandshakeRetriesThroughLossyNetwork) {
  net::NetworkConfig net_cfg;
  net_cfg.loss_probability = 0.4;
  net_cfg.seed = 3;
  WirePair p(net_cfg);
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  EXPECT_TRUE(conn->IsEstablished());
}

TEST(ConnectionTest, HandshakeExhaustionCloses) {
  WireConfig cfg;
  cfg.handshake_max_retries = 2;
  sim::Simulator sim;
  net::Network network(&sim, net::NetworkConfig{});
  TestPeer a(&sim, &network, 1, cfg);
  // No peer 2 attached: SYNs vanish.
  bool closed = false;
  Connection* conn = a.endpoint.Connect(2);
  conn->SetCloseHandler([&]() { closed = true; });
  sim.Run();
  EXPECT_TRUE(closed);
  EXPECT_TRUE(conn->IsClosed());
}

TEST(ConnectionTest, CrashOfPeerResetsConnection) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  ASSERT_TRUE(conn->IsEstablished());

  p.b.endpoint.Crash();  // b loses all connection state
  bool closed = false;
  conn->SetCloseHandler([&]() { closed = true; });
  conn->Send(ToBytes("into the void"));
  p.sim.Run();
  // b answers with RESET for the unknown connection; a closes.
  EXPECT_TRUE(closed);
}

TEST(ConnectionTest, FlowControlBlocksBeyondAllocationUntilGranted) {
  WireConfig cfg;
  cfg.window_packets = 4;
  cfg.window_update_threshold = 2;
  cfg.allocation_override_delay = 60 * sim::kSecond;  // effectively off
  WirePair p(net::NetworkConfig{}, cfg);
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  // The receiver grants allocation as it consumes, so a long stream
  // still flows completely.
  for (int i = 0; i < 100; ++i) conn->Send(Bytes(10, 'x'));
  p.sim.Run();
  EXPECT_EQ(p.b_received.size(), 100u);
  EXPECT_EQ(conn->send_queue_depth(), 0u);
}

TEST(ConnectionTest, AllocationOverrideAfterPause) {
  // If every WINDOW grant is lost, the sender eventually exceeds its
  // allocation after the mandated pause instead of deadlocking.
  WireConfig cfg;
  cfg.window_packets = 2;
  cfg.allocation_override_delay = 3 * sim::kSecond;
  WirePair p(net::NetworkConfig{}, cfg);
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  for (int i = 0; i < 10; ++i) conn->Send(Bytes(10, 'x'));
  p.sim.RunFor(120 * sim::kSecond);
  EXPECT_EQ(p.b_received.size(), 10u);
}

TEST(ConnectionTest, FramesReuseTheEncodersBuffer) {
  // The encoders leave room for the frame trailer, so the packet the
  // network carries is the buffer the encoder produced: no reallocation
  // in Connection::Send or when framing.
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  ASSERT_TRUE(conn->IsEstablished());

  auto batch_of = [](size_t records, size_t data_bytes) {
    RecordBatch batch;
    batch.client = 7;
    batch.epoch = 2;
    for (size_t i = 0; i < records; ++i) {
      batch.records.push_back(
          MakeRecord(i + 1, 2, true, std::string(data_bytes, 'd')));
    }
    return batch;
  };
  // As many 100-byte records as fit the client's default 1400-byte
  // packing budget.
  const size_t mtu = 1400;
  const size_t full = (mtu - RecordBatchOverhead()) /
                      EncodedRecordSize(MakeRecord(1, 2, true,
                                                   std::string(100, 'd')));
  std::vector<std::pair<std::string, Bytes>> messages;
  messages.emplace_back("empty force ping",
                        EncodeRecordBatch(MessageType::kForceLog,
                                          batch_of(0, 0)));
  messages.emplace_back("1-record batch",
                        EncodeRecordBatch(MessageType::kWriteLog,
                                          batch_of(1, 100)));
  messages.emplace_back("7-record batch",
                        EncodeRecordBatch(MessageType::kForceLog,
                                          batch_of(7, 100)));
  messages.emplace_back("full batch",
                        EncodeRecordBatch(MessageType::kWriteLog,
                                          batch_of(full, 100)));
  messages.emplace_back("NewHighLsn ack", EncodeNewHighLsn({12345}));
  ASSERT_LE(messages[3].second.size(), mtu);

  for (auto& [name, message] : messages) {
    EXPECT_GE(message.capacity(),
              message.size() + Endpoint::kFrameTrailerBytes)
        << name;
    const uint8_t* encoded = message.data();
    const size_t size = message.size();
    conn->Send(std::move(message));
    p.sim.Run();
    ASSERT_FALSE(p.b_received.empty()) << name;
    EXPECT_EQ(p.b_received.back().data(), encoded) << name;
    EXPECT_EQ(p.b_received.back().size(), size) << name;
  }
  EXPECT_EQ(p.b_received.size(), messages.size());
}

// --- Datagrams (the connectionless multicast path) ---

TEST(DatagramTest, UnicastDatagramDelivered) {
  WirePair p;
  std::vector<std::pair<net::NodeId, SharedBytes>> received;
  p.b.endpoint.SetDatagramHandler(
      [&](net::NodeId src, const SharedBytes& payload) {
        received.push_back({src, payload});
      });
  p.a.endpoint.SendDatagram(2, ToBytes("hello datagram"));
  p.sim.Run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 1u);
  EXPECT_EQ(ToString(received[0].second), "hello datagram");
}

TEST(DatagramTest, MulticastDatagramReachesGroup) {
  sim::Simulator sim;
  net::Network network(&sim, net::NetworkConfig{});
  TestPeer a(&sim, &network, 1), b(&sim, &network, 2),
      c(&sim, &network, 3);
  const net::NodeId group = net::kMulticastBase + 9;
  network.JoinGroup(group, 2);
  network.JoinGroup(group, 3);
  int b_got = 0, c_got = 0;
  b.endpoint.SetDatagramHandler(
      [&](net::NodeId, const SharedBytes&) { ++b_got; });
  c.endpoint.SetDatagramHandler(
      [&](net::NodeId, const SharedBytes&) { ++c_got; });
  a.endpoint.SendDatagram(group, ToBytes("to the group"));
  sim.Run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
  // One transmission on the medium.
  EXPECT_EQ(network.packets_sent().value(), 1u);
}

TEST(DatagramTest, NoHandlerIsSilentlyDropped) {
  WirePair p;
  p.a.endpoint.SendDatagram(2, ToBytes("nobody listening"));
  p.sim.Run();  // must not crash; packet consumed
  EXPECT_GT(p.b.endpoint.packets_received().value(), 0u);
}

TEST(DatagramTest, DatagramsDoNotDisturbConnections) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  ASSERT_TRUE(conn->IsEstablished());
  p.b.endpoint.SetDatagramHandler([](net::NodeId, const SharedBytes&) {});
  p.a.endpoint.SendDatagram(2, ToBytes("dgram"));
  conn->Send(ToBytes("stream"));
  p.sim.Run();
  ASSERT_EQ(p.b_received.size(), 1u);
  EXPECT_EQ(ToString(p.b_received[0]), "stream");
  EXPECT_TRUE(conn->IsEstablished());
}

// --- RpcClient ---

TEST(RpcClientTest, CallAndResponse) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();  // complete the handshake so the server side exists
  ASSERT_NE(p.accepted, nullptr);
  RpcClient rpc(&p.sim, conn);
  conn->SetMessageHandler([&](const SharedBytes& payload) {
    Result<Envelope> env = DecodeEnvelope(payload);
    ASSERT_TRUE(env.ok());
    rpc.HandleResponse(*env);
  });
  // Server: echo an IntervalListResp for any request.
  p.accepted->SetMessageHandler([&](const SharedBytes& payload) {
    Result<Envelope> env = DecodeEnvelope(payload);
    ASSERT_TRUE(env.ok());
    IntervalListResp resp;
    resp.intervals = {{1, 1, 5}};
    p.accepted->Send(EncodeIntervalListResp(resp, env->rpc_id));
  });

  bool done = false;
  rpc.Call(
      [](uint64_t rpc_id) { return EncodeIntervalListReq({1}, rpc_id); },
      RpcClient::CallOptions{}, [&](Result<Envelope> env) {
        ASSERT_TRUE(env.ok());
        auto resp = DecodeIntervalListResp(env->body);
        ASSERT_TRUE(resp.ok());
        EXPECT_EQ(resp->intervals.size(), 1u);
        done = true;
      });
  p.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rpc.pending(), 0u);
}

TEST(RpcClientTest, RetriesThroughLoss) {
  net::NetworkConfig net_cfg;
  net_cfg.loss_probability = 0.4;
  net_cfg.seed = 17;
  WirePair p(net_cfg);
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();  // complete the (retried) handshake first
  ASSERT_NE(p.accepted, nullptr);
  RpcClient rpc(&p.sim, conn);
  conn->SetMessageHandler([&](const SharedBytes& payload) {
    auto env = DecodeEnvelope(payload);
    if (env.ok()) rpc.HandleResponse(*env);
  });
  p.accepted->SetMessageHandler([&](const SharedBytes& payload) {
    auto env = DecodeEnvelope(payload);
    if (!env.ok()) return;
    p.accepted->Send(EncodeInstallCopiesResp({}, env->rpc_id));
  });

  int completed = 0;
  RpcClient::CallOptions opts;
  opts.max_attempts = 20;
  for (int i = 0; i < 10; ++i) {
    rpc.Call(
        [](uint64_t id) { return EncodeInstallCopiesReq({1, 1}, id); },
        opts, [&](Result<Envelope> env) {
          if (env.ok()) ++completed;
        });
  }
  p.sim.Run();
  EXPECT_EQ(completed, 10);
}

TEST(RpcClientTest, TimesOutAgainstDeadServer) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  p.b.nic.SetUp(false);  // server vanishes

  RpcClient rpc(&p.sim, conn);
  Status result = Status::OK();
  RpcClient::CallOptions opts;
  opts.timeout = 100 * sim::kMillisecond;
  opts.max_attempts = 3;
  rpc.Call([](uint64_t id) { return EncodeIntervalListReq({1}, id); }, opts,
           [&](Result<Envelope> env) { result = env.status(); });
  p.sim.Run();
  EXPECT_TRUE(result.IsTimedOut());
}

TEST(RpcClientTest, FailAllAbortsPending) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  RpcClient rpc(&p.sim, conn);
  Status st = Status::OK();
  rpc.Call([](uint64_t id) { return EncodeIntervalListReq({1}, id); },
           RpcClient::CallOptions{},
           [&](Result<Envelope> env) { st = env.status(); });
  rpc.FailAll(Status::Aborted("connection reset"));
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(rpc.pending(), 0u);
  p.sim.Run();
}

}  // namespace
}  // namespace dlog::wire
