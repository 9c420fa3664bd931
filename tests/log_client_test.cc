// Focused unit tests of LogClient behaviours that the system tests only
// exercise incidentally: the δ bound, grouping thresholds, policies,
// read caching, and crash semantics.

#include <gtest/gtest.h>

#include <memory>

#include "harness/cluster.h"

namespace dlog {
namespace {

using client::LogClientConfig;
using client::SelectionPolicy;
using harness::Cluster;
using harness::ClusterConfig;

Status InitSync(Cluster& cluster, client::LogClient& c) {
  Status result = Status::Internal("never");
  bool done = false;
  c.Init([&](Status st) {
    result = st;
    done = true;
  });
  cluster.RunUntil([&]() { return done; });
  return result;
}

TEST(LogClientTest, WriteBeforeInitFails) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  EXPECT_EQ(c->WriteLog(ToBytes("x")).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LogClientTest, CrashedClientRejectsEverything) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  c->Crash();
  EXPECT_TRUE(c->WriteLog(ToBytes("x")).status().IsAborted());
  bool done = false;
  Status st;
  c->ForceLog(1, [&](Status s) {
    st = s;
    done = true;
  });
  cluster.RunUntil([&]() { return done; });
  EXPECT_FALSE(st.ok());
}

TEST(LogClientTest, DeltaBoundThrottlesUnackedSends) {
  // With all servers shedding (tiny NVRAM), sends stall at δ records even
  // though many more are buffered and forced.
  ClusterConfig cluster_cfg;
  cluster_cfg.server.nvram_bytes = 1;  // every write shed
  Cluster cluster(cluster_cfg);
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.delta = 4;
  cfg.force_timeout = 100 * sim::kMillisecond;
  cfg.force_retries = 1000;  // never switch (everyone sheds anyway)
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());

  Lsn last = kNoLsn;
  for (int i = 0; i < 20; ++i) {
    auto lsn = c->WriteLog(ToBytes("r"));
    ASSERT_TRUE(lsn.ok());
    last = *lsn;
  }
  bool done = false;
  c->ForceLog(last, [&](Status) { done = true; });
  cluster.sim().RunFor(3 * sim::kSecond);
  EXPECT_FALSE(done);  // nothing can be acked
  // At most δ distinct records were ever handed to the transport.
  EXPECT_LE(c->records_sent().value(), 2u * 4u * 10u);  // δ x N x retries
  // The δ invariant exactly: no more than δ records partially written.
  uint64_t distinct_sent = 0;
  for (int s = 1; s <= cluster.num_servers(); ++s) {
    distinct_sent =
        std::max<uint64_t>(distinct_sent,
                           cluster.server(s).RecordsOf(1).size());
  }
  EXPECT_LE(distinct_sent, 4u);
}

TEST(LogClientTest, UnforcedSmallWritesStayBuffered) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(c->WriteLog(ToBytes("small")).ok());
  }
  cluster.sim().RunFor(2 * sim::kSecond);
  EXPECT_EQ(c->records_sent().value(), 0u);  // grouping: nothing forced
  EXPECT_GT(c->bytes_buffered(), 0u);
}

TEST(LogClientTest, FullPacketTriggersSendWithoutForce) {
  Cluster cluster(ClusterConfig{});
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.mtu_payload = 600;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c->WriteLog(Bytes(200, 'x')).ok());
  }
  cluster.sim().RunFor(2 * sim::kSecond);
  EXPECT_GT(c->records_sent().value(), 0u);  // a full packet went out
}

TEST(LogClientTest, EndOfLogCountsBufferedRecords) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  EXPECT_EQ(c->EndOfLog(), kNoLsn);
  ASSERT_TRUE(c->WriteLog(ToBytes("a")).ok());
  ASSERT_TRUE(c->WriteLog(ToBytes("b")).ok());
  EXPECT_EQ(c->EndOfLog(), 2u);
}

TEST(LogClientTest, ReadCacheServesPackedNeighbors) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  Lsn last = kNoLsn;
  for (int i = 0; i < 10; ++i) {
    auto lsn = c->WriteLog(ToBytes("n" + std::to_string(i)));
    last = *lsn;
  }
  bool done = false;
  c->ForceLog(last, [&](Status) { done = true; });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));

  // First read fetches a packed batch...
  done = false;
  c->ReadLog(1, [&](Result<Bytes> r) {
    EXPECT_TRUE(r.ok());
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  uint64_t rpcs_after_first = 0;
  for (int s = 1; s <= 3; ++s) {
    rpcs_after_first += cluster.server(s).read_rpcs().value();
  }
  // ...so the following reads hit the client cache: no further RPCs.
  for (Lsn lsn = 2; lsn <= 5; ++lsn) {
    done = false;
    c->ReadLog(lsn, [&](Result<Bytes> r) {
      EXPECT_TRUE(r.ok());
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  }
  uint64_t rpcs_after_all = 0;
  for (int s = 1; s <= 3; ++s) {
    rpcs_after_all += cluster.server(s).read_rpcs().value();
  }
  EXPECT_EQ(rpcs_after_all, rpcs_after_first);
}

TEST(LogClientTest, RoundRobinPolicySpreadsInitialSets) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 6;
  Cluster cluster(cluster_cfg);
  // Several round-robin clients: every server should store something.
  std::vector<harness::ClientHandle> clients;
  for (int i = 0; i < 6; ++i) {
    LogClientConfig cfg;
    cfg.client_id = static_cast<ClientId>(i + 1);
    cfg.policy = SelectionPolicy::kRoundRobin;
    clients.push_back(cluster.AddClient(cfg));
    ASSERT_TRUE(InitSync(cluster, *clients.back()).ok());
    Lsn lsn = *clients.back()->WriteLog(ToBytes("x"));
    bool done = false;
    clients.back()->ForceLog(lsn, [&](Status) { done = true; });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  }
  int servers_used = 0;
  for (int s = 1; s <= 6; ++s) {
    uint64_t records = cluster.server(s).records_written().value();
    if (records > 0) ++servers_used;
  }
  EXPECT_GE(servers_used, 4);
}

TEST(LogClientTest, InitUnavailableWithTooFewServers) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 5;
  Cluster cluster(cluster_cfg);
  // N=2, M=5 needs 4 interval lists; take 2 servers down.
  cluster.server(1).Crash();
  cluster.server(2).Crash();
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.rpc_timeout = 100 * sim::kMillisecond;
  cfg.rpc_attempts = 2;
  auto c = cluster.AddClient(cfg);
  Status st = InitSync(cluster, *c);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  // Bring one back: init succeeds on retry.
  cluster.server(1).Restart();
  EXPECT_TRUE(InitSync(cluster, *c).ok());
}

TEST(LogClientTest, GeneratorQuorumBlocksInit) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 5;
  Cluster cluster(cluster_cfg);
  LogClientConfig cfg;
  cfg.client_id = 1;
  // Generator representatives on servers 1-3; kill 2 of them. Interval
  // lists are still gatherable (4 of 5 up), but no epoch is issuable.
  cfg.generator_reps = {1, 2, 3};
  cfg.rpc_timeout = 100 * sim::kMillisecond;
  cfg.rpc_attempts = 2;
  cluster.server(1).Crash();
  cluster.server(2).Crash();
  auto c = cluster.AddClient(cfg);
  Status st = InitSync(cluster, *c);
  EXPECT_TRUE(st.IsUnavailable());
}

// --- Failure detection: the retry round follows measured ack times ---

/// Writes one record and forces it, running the cluster until the force
/// completes.
void WriteForcedSync(Cluster& cluster, client::LogClient& c) {
  const Result<Lsn> lsn = c.WriteLog(ToBytes("rec"));
  ASSERT_TRUE(lsn.ok());
  bool done = false;
  c.ForceLog(*lsn, [&](Status st) {
    EXPECT_TRUE(st.ok()) << st.ToString();
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }, 10 * sim::kSecond));
}

/// The first server (by id) that stores `lsn` of `client`.
int HolderOf(Cluster& cluster, ClientId client, Lsn lsn) {
  for (int s = 1; s <= cluster.num_servers(); ++s) {
    for (const LogRecord& r : cluster.server(s).RecordsOf(client)) {
      if (r.lsn == lsn && r.present) return s;
    }
  }
  return 0;
}

TEST(LogClientTest, RetryRoundStartsAtForceTimeoutAndFollowsAcks) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  // No ack measured yet: the configured timeout is the round.
  EXPECT_EQ(c->RetryRound(), LogClientConfig{}.force_timeout);
  for (int i = 0; i < 5; ++i) WriteForcedSync(cluster, *c);
  // LAN acks take a few milliseconds: the round sits on the floor.
  EXPECT_EQ(c->RetryRound(), client::kMinForceRound);
}

TEST(LogClientTest, ForceLeavesCrashedServerAfterFloorRounds) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 4;
  Cluster cluster(cluster_cfg);
  LogClientConfig cfg;  // default force_timeout (300 ms) and retries (3)
  cfg.client_id = 1;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  for (int i = 0; i < 10; ++i) WriteForcedSync(cluster, *c);
  ASSERT_EQ(c->RetryRound(), client::kMinForceRound);

  const int victim = HolderOf(cluster, 1, c->EndOfLog());
  ASSERT_NE(victim, 0);
  cluster.server(victim).Crash();
  const sim::Time start = cluster.Now();
  WriteForcedSync(cluster, *c);
  const sim::Duration took = cluster.Now() - start;
  // The round the force starts in still counts the warmup acks as
  // progress; then force_retries + 1 silent rounds at the floor, and a
  // few round trips to the replacement. Fixed 300 ms rounds took 1.5 s.
  EXPECT_LE(took, (cfg.force_retries + 2) * client::kMinForceRound +
                      20 * sim::kMillisecond);
  EXPECT_EQ(c->server_switches().value(), 1u);
}

TEST(LogClientTest, SlowButAckingServerIsNeitherResentNorAbandoned) {
  Cluster cluster(ClusterConfig{});
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.node_id = 2000;
  auto c = cluster.AddClient(cfg);
  // Every server's replies take 150 ms longer to come back: well inside
  // the initial round, far above the floor.
  for (int s = 1; s <= cluster.num_servers(); ++s) {
    cluster.network().SetLinkFault(static_cast<net::NodeId>(s), cfg.node_id,
                                   net::LinkFault{0.0, 150 * sim::kMillisecond});
  }
  ASSERT_TRUE(InitSync(cluster, *c).ok());

  // A force every 20 ms, without waiting: acks keep arriving, late.
  int completed = 0;
  const int kForces = 150;
  for (int i = 0; i < kForces; ++i) {
    const Result<Lsn> lsn = c->WriteLog(ToBytes("slow"));
    ASSERT_TRUE(lsn.ok());
    c->ForceLog(*lsn, [&](Status st) {
      EXPECT_TRUE(st.ok());
      ++completed;
    });
    cluster.RunFor(20 * sim::kMillisecond);
  }
  ASSERT_TRUE(cluster.RunUntil([&]() { return completed == kForces; },
                               10 * sim::kSecond));
  EXPECT_EQ(c->resends().value(), 0u);
  EXPECT_EQ(c->server_switches().value(), 0u);
  // The round grew to cover the slow server's ack time.
  EXPECT_GT(c->RetryRound(), 150 * sim::kMillisecond);
  EXPECT_LE(c->RetryRound(), cfg.force_timeout);
}

TEST(LogClientTest, SwitchedAwayServerDoesNotSetTheRound) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 4;
  Cluster cluster(cluster_cfg);
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.node_id = 2000;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  for (int i = 0; i < 10; ++i) WriteForcedSync(cluster, *c);

  // The victim stays up, but its acks arrive a second late: the client
  // gives up on it first and then hears from it.
  const int victim = HolderOf(cluster, 1, c->EndOfLog());
  ASSERT_NE(victim, 0);
  cluster.network().SetLinkFault(static_cast<net::NodeId>(victim),
                                 cfg.node_id,
                                 net::LinkFault{0.0, sim::kSecond});
  WriteForcedSync(cluster, *c);
  ASSERT_EQ(c->server_switches().value(), 1u);
  cluster.RunFor(2 * sim::kSecond);  // the late acks come in

  // The record re-streamed to the replacement waited out the failover;
  // by Karn's rule it gives no sample, and neither do the victim's late
  // acks, so a few fresh forces leave the round on the floor.
  for (int i = 0; i < 3; ++i) WriteForcedSync(cluster, *c);
  EXPECT_EQ(c->RetryRound(), client::kMinForceRound);
  EXPECT_EQ(c->server_switches().value(), 1u);
}

TEST(LogClientTest, LongScanKeepsReadCacheHitting) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  const Lsn kRecords = 6000;  // past the 4096-record cache
  for (Lsn i = 1; i <= kRecords; ++i) {
    ASSERT_TRUE(c->WriteLog(ToBytes("r" + std::to_string(i))).ok());
    if (i % 100 == 0) {
      bool done = false;
      c->ForceLog(i, [&](Status) { done = true; });
      ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
    }
  }
  auto read_rpcs = [&]() {
    uint64_t n = 0;
    for (int s = 1; s <= cluster.num_servers(); ++s) {
      n += cluster.server(s).read_rpcs().value();
    }
    return n;
  };
  const uint64_t before = read_rpcs();
  for (Lsn lsn = 1; lsn <= kRecords; ++lsn) {
    bool done = false;
    c->ReadLog(lsn, [&](Result<Bytes> r) {
      EXPECT_TRUE(r.ok()) << lsn;
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  }
  // Each RPC brings back a packet of neighbours (dozens of these small
  // records); a cache that stopped filling at 4096 entries would pay one
  // RPC per record beyond it.
  EXPECT_LE(read_rpcs() - before, kRecords / 20);
}

TEST(LogClientTest, DestroyingClusterAbortsReadInFlight) {
  auto cluster = std::make_unique<Cluster>(ClusterConfig{});
  auto c = cluster->AddClient();
  ASSERT_TRUE(InitSync(*cluster, *c).ok());
  for (int i = 0; i < 3; ++i) WriteForcedSync(*cluster, *c);
  bool called = false;
  Status status = Status::Internal("never");
  c->ReadLog(1, [&](Result<Bytes> r) {
    called = true;
    status = r.status();
  });
  cluster->RunFor(sim::kMillisecond);  // the server's read is under way
  ASSERT_FALSE(called);
  cluster.reset();
  EXPECT_TRUE(called);
  EXPECT_TRUE(status.IsAborted()) << status.ToString();
}

}  // namespace
}  // namespace dlog
