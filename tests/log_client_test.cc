// Focused unit tests of LogClient behaviours that the system tests only
// exercise incidentally: the δ bound, grouping thresholds, policies,
// read caching, and crash semantics.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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
    auto lsn = c->WriteLog(ToBytes(std::string("n").append(std::to_string(i))));
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
    ASSERT_TRUE(
        c->WriteLog(ToBytes(std::string("r").append(std::to_string(i)))).ok());
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

// A read drops the cached records below it, so a read behind the scan
// goes back to a server and still returns the record's bytes.
TEST(LogClientTest, ReadBehindTheScanStillReturnsItsBytes) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  const Lsn kRecords = 60;
  auto payload = [](Lsn lsn) {
    std::string s = "scan-";
    s += std::to_string(lsn);
    return s;
  };
  for (Lsn i = 1; i <= kRecords; ++i) {
    ASSERT_TRUE(c->WriteLog(ToBytes(payload(i))).ok());
  }
  bool forced = false;
  c->ForceLog(kRecords, [&](Status) { forced = true; });
  ASSERT_TRUE(cluster.RunUntil([&]() { return forced; }));

  auto read = [&](Lsn lsn) {
    Result<Bytes> out = Status::Internal("never");
    bool done = false;
    c->ReadLog(lsn, [&](Result<Bytes> r) {
      out = std::move(r);
      done = true;
    });
    EXPECT_TRUE(cluster.RunUntil([&]() { return done; }));
    return out;
  };
  auto read_rpcs = [&]() {
    uint64_t n = 0;
    for (int s = 1; s <= cluster.num_servers(); ++s) {
      n += cluster.server(s).read_rpcs().value();
    }
    return n;
  };
  for (Lsn lsn = 1; lsn <= kRecords; ++lsn) {
    Result<Bytes> r = read(lsn);
    ASSERT_TRUE(r.ok()) << lsn;
    EXPECT_EQ(ToString(*r), payload(lsn));
  }
  for (Lsn lsn : {kRecords - 1, Lsn{17}, Lsn{1}}) {
    const uint64_t before = read_rpcs();
    Result<Bytes> r = read(lsn);
    ASSERT_TRUE(r.ok()) << lsn;
    EXPECT_EQ(ToString(*r), payload(lsn));
    EXPECT_GT(read_rpcs(), before) << lsn;
  }
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

TEST(LogClientTest, InitCopiesTheTailToEveryTarget) {
  Cluster cluster(ClusterConfig{});
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.delta = 4;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  for (int i = 0; i < 10; ++i) WriteForcedSync(cluster, *c);
  cluster.CrashClient(c);
  cluster.RestartClient(c);
  ASSERT_TRUE(InitSync(cluster, *c).ok());

  // The last δ records and δ not-present records past them, each staged
  // and installed at the new epoch on N servers.
  const Epoch epoch = c->current_epoch();
  for (Lsn lsn = 7; lsn <= 14; ++lsn) {
    int holders = 0;
    for (int s = 1; s <= cluster.num_servers(); ++s) {
      for (const LogRecord& r : cluster.server(s).RecordsOf(1)) {
        if (r.lsn == lsn && r.epoch == epoch) {
          EXPECT_EQ(r.present, lsn <= 10) << lsn;
          ++holders;
          break;
        }
      }
    }
    EXPECT_EQ(holders, cfg.copies) << "lsn " << lsn;
  }
}

// --- Read routing: each read goes to the holder that answers fastest ---

/// Writes `n` records, forcing every 100, and returns the last LSN.
Lsn WriteLogSync(Cluster& cluster, client::LogClient& c, Lsn n) {
  for (Lsn i = 1; i <= n; ++i) {
    const Result<Lsn> lsn =
        c.WriteLog(ToBytes(std::string("r").append(std::to_string(i))));
    if (!lsn.ok()) {
      ADD_FAILURE() << lsn.status().ToString();
      return kNoLsn;
    }
    if (i % 100 == 0 || i == n) {
      bool done = false;
      c.ForceLog(*lsn, [&](Status) { done = true; });
      EXPECT_TRUE(cluster.RunUntil([&]() { return done; }));
    }
  }
  return c.EndOfLog();
}

/// Reads `lsn`, running the cluster until the read completes.
Result<Bytes> ReadSync(Cluster& cluster, client::LogClient& c, Lsn lsn) {
  Result<Bytes> result = Status::Internal("never");
  bool done = false;
  c.ReadLog(lsn, [&](Result<Bytes> r) {
    result = std::move(r);
    done = true;
  });
  EXPECT_TRUE(cluster.RunUntil([&]() { return done; }, 30 * sim::kSecond));
  return result;
}

uint64_t ReadRpcs(Cluster& cluster, int server) {
  return cluster.server(server).read_rpcs().value();
}

TEST(LogClientTest, LongScanMovesToTheFasterHolder) {
  Cluster cluster(ClusterConfig{});
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.node_id = 2000;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  const Lsn kRecords = 2000;
  ASSERT_EQ(WriteLogSync(cluster, *c, kRecords), kRecords);
  const std::vector<ServerId> holders = c->view().Find(1)->servers;
  ASSERT_EQ(holders.size(), 2u);
  // The holder first in view order answers 100 ms late, longer than a
  // whole read takes otherwise.
  const int slow = static_cast<int>(holders[0]);
  const int fast = static_cast<int>(holders[1]);
  const sim::Duration kExtra = 100 * sim::kMillisecond;
  cluster.network().SetLinkFault(static_cast<net::NodeId>(slow), cfg.node_id,
                                 net::LinkFault{0.0, kExtra});

  const uint64_t slow_before = ReadRpcs(cluster, slow);
  const uint64_t fast_before = ReadRpcs(cluster, fast);
  const sim::Time start = cluster.Now();
  for (Lsn lsn = 1; lsn <= kRecords; ++lsn) {
    ASSERT_TRUE(ReadSync(cluster, *c, lsn).ok()) << lsn;
  }
  const sim::Duration took = cluster.Now() - start;
  const uint64_t slow_rpcs = ReadRpcs(cluster, slow) - slow_before;
  const uint64_t fast_rpcs = ReadRpcs(cluster, fast) - fast_before;
  // One probe measures the slow holder; the rest of the scan goes to the
  // other one. A scan that always asked the slow holder would take more
  // than kExtra per RPC.
  EXPECT_EQ(slow_rpcs, 1u);
  EXPECT_GT(fast_rpcs, 10u);
  EXPECT_LT(took, static_cast<sim::Duration>(slow_rpcs + fast_rpcs) * kExtra);
}

TEST(LogClientTest, FailedHolderIsAskedLastUntilTheBackoffEnds) {
  Cluster cluster(ClusterConfig{});
  LogClientConfig cfg;
  cfg.client_id = 1;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  ASSERT_EQ(WriteLogSync(cluster, *c, 1000), 1000u);
  const std::vector<ServerId> holders = c->view().Find(1)->servers;
  ASSERT_EQ(holders.size(), 2u);
  const int victim = static_cast<int>(holders[0]);
  const int other = static_cast<int>(holders[1]);
  cluster.server(victim).Crash();

  // Never measured, the victim is asked first; its RPC times out.
  sim::Time start = cluster.Now();
  ASSERT_TRUE(ReadSync(cluster, *c, 1).ok());
  EXPECT_GE(cluster.Now() - start, cfg.rpc_timeout * cfg.rpc_attempts);

  // Within the backoff the victim goes last: the next read is one round
  // trip to the other holder, even with the victim back up.
  cluster.server(victim).Restart();
  uint64_t victim_before = ReadRpcs(cluster, victim);
  start = cluster.Now();
  ASSERT_TRUE(ReadSync(cluster, *c, 300).ok());
  EXPECT_LT(cluster.Now() - start, cfg.rpc_timeout);
  EXPECT_EQ(ReadRpcs(cluster, victim), victim_before);

  // Once the backoff has passed, its estimate is forgotten and it is
  // probed again ahead of the measured holder.
  cluster.RunFor(cfg.server_retry_backoff);
  victim_before = ReadRpcs(cluster, victim);
  const uint64_t other_before = ReadRpcs(cluster, other);
  ASSERT_TRUE(ReadSync(cluster, *c, 600).ok());
  EXPECT_EQ(ReadRpcs(cluster, victim), victim_before + 1);
  EXPECT_EQ(ReadRpcs(cluster, other), other_before);
}

TEST(LogClientTest, ReadAnsweredAfterRetransmissionGivesNoSample) {
  Cluster cluster(ClusterConfig{});
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.node_id = 2000;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  ASSERT_EQ(WriteLogSync(cluster, *c, 1000), 1000u);
  const std::vector<ServerId> holders = c->view().Find(1)->servers;
  ASSERT_EQ(holders.size(), 2u);
  const int first = static_cast<int>(holders[0]);
  const int late = static_cast<int>(holders[1]);
  // The second holder's replies arrive after the RPC timeout, so each of
  // its reads is answered only after a retransmission.
  cluster.network().SetLinkFault(
      static_cast<net::NodeId>(late), cfg.node_id,
      net::LinkFault{0.0, cfg.rpc_timeout + 100 * sim::kMillisecond});

  ASSERT_TRUE(ReadSync(cluster, *c, 1).ok());    // measures `first`
  ASSERT_TRUE(ReadSync(cluster, *c, 300).ok());  // probes `late`
  const uint64_t first_before = ReadRpcs(cluster, first);
  const uint64_t late_before = ReadRpcs(cluster, late);
  // The late reply may answer either transmission: no sample, so `late`
  // is still unmeasured and is probed again. A sample of ~500 ms would
  // have put it behind `first`.
  ASSERT_TRUE(ReadSync(cluster, *c, 600).ok());
  EXPECT_GT(ReadRpcs(cluster, late), late_before);
  EXPECT_EQ(ReadRpcs(cluster, first), first_before);
}

TEST(LogClientTest, ReadCacheIgnoresCopiesTheViewDoesNotPlace) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 4;
  Cluster cluster(cluster_cfg);
  LogClientConfig cfg;
  cfg.client_id = 12;
  cfg.delta = 1;
  cfg.generator_reps = {1, 2, 3};
  auto writer = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *writer).ok());
  for (int i = 0; i < 20; ++i) WriteForcedSync(cluster, *writer);
  ASSERT_EQ(HolderOf(cluster, 12, 20), 1);

  // LSN 21 reaches server 1 only: a partially written record.
  cluster.server(2).Crash();
  const Result<Lsn> stale = writer->WriteLog(ToBytes("stale"));
  ASSERT_TRUE(stale.ok());
  ASSERT_EQ(*stale, 21u);
  writer->ForceLog(*stale, [](Status) {});
  cluster.RunFor(20 * sim::kMillisecond);
  ASSERT_EQ(HolderOf(cluster, 12, 21), 1);
  cluster.CrashClient(writer);

  // With server 1 down, a restart marks LSN 21 not present on {3, 4}.
  cluster.server(1).Crash();
  cluster.server(2).Restart();
  LogClientConfig restart_cfg = cfg;
  restart_cfg.servers = {3, 4, 1, 2};
  auto second = cluster.AddClient(restart_cfg);
  ASSERT_TRUE(InitSync(cluster, *second).ok());
  cluster.CrashClient(second);

  // Server 1 comes back still holding the stale LSN 21 at the old epoch.
  cluster.server(1).Restart();
  cluster.server(2).Crash();
  auto third = cluster.AddClient(restart_cfg);
  ASSERT_TRUE(InitSync(cluster, *third).ok());
  for (Lsn lsn = 1; lsn <= 20; ++lsn) {
    ASSERT_TRUE(ReadSync(cluster, *third, lsn).ok()) << lsn;
  }
  // Server 1's reply to the scan packed its copy of LSN 21 too; the view
  // gives LSN 21 to {3, 4} at a higher epoch.
  const Result<Bytes> r = ReadSync(cluster, *third, 21);
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
}

}  // namespace
}  // namespace dlog
