// Tests for the Section 4.1 multicast option: record batches travel once
// to a multicast group instead of N unicast copies.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "harness/cluster.h"

namespace dlog {
namespace {

using client::LogClientConfig;
using harness::Cluster;
using harness::ClusterConfig;

Status InitClient(Cluster& cluster, client::LogClient& c) {
  Status result = Status::Internal("never");
  bool done = false;
  c.Init([&](Status st) {
    result = st;
    done = true;
  });
  cluster.RunUntil([&]() { return done; });
  return result;
}

Result<Lsn> WriteForced(Cluster& cluster, client::LogClient& c,
                        const std::string& data) {
  Result<Lsn> lsn = c.WriteLog(ToBytes(data));
  if (!lsn.ok()) return lsn;
  bool done = false;
  Status st = Status::Internal("never");
  c.ForceLog(*lsn, [&](Status s) {
    st = s;
    done = true;
  });
  if (!cluster.RunUntil([&]() { return done; }, 60 * sim::kSecond)) {
    return Status::TimedOut("force");
  }
  if (!st.ok()) return st;
  return lsn;
}

LogClientConfig McastConfig() {
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.multicast_writes = true;
  return cfg;
}

TEST(MulticastTest, RecordsReachAllWriteSetServers) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient(McastConfig());
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        WriteForced(cluster, *c, std::string("m").append(std::to_string(i)))
            .ok());
  }
  for (Lsn lsn = 1; lsn <= 10; ++lsn) {
    int holders = 0;
    for (int s = 1; s <= 3; ++s) {
      for (const LogRecord& r : cluster.server(s).RecordsOf(1)) {
        if (r.lsn == lsn && r.present) {
          ++holders;
          break;
        }
      }
    }
    EXPECT_EQ(holders, 2) << "LSN " << lsn;
  }
}

TEST(MulticastTest, ReadBackMatches) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient(McastConfig());
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  std::map<Lsn, std::string> written;
  for (int i = 0; i < 20; ++i) {
    const std::string data = "payload-" + std::to_string(i);
    Result<Lsn> lsn = WriteForced(cluster, *c, data);
    ASSERT_TRUE(lsn.ok());
    written[*lsn] = data;
  }
  for (const auto& [lsn, data] : written) {
    Result<Bytes> r = Status::Internal("never");
    bool done = false;
    c->ReadLog(lsn, [&](Result<Bytes> got) {
      r = std::move(got);
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(ToString(*r), data);
  }
}

TEST(MulticastTest, HalvesDataTrafficVersusUnicast) {
  auto run = [](bool multicast) {
    ClusterConfig cluster_cfg;
    Cluster cluster(cluster_cfg);
    LogClientConfig cfg;
    cfg.client_id = 1;
    cfg.multicast_writes = multicast;
    auto c = cluster.AddClient(cfg);
    EXPECT_TRUE(InitClient(cluster, *c).ok());
    const uint64_t bits_before = cluster.network().bits_sent();
    for (int i = 0; i < 40; ++i) {
      // 7 buffered records then a force: the ET1 grouping pattern.
      Lsn last = kNoLsn;
      for (int j = 0; j < 7; ++j) {
        auto lsn = c->WriteLog(Bytes(100, 'x'));
        EXPECT_TRUE(lsn.ok());
        last = *lsn;
      }
      bool done = false;
      c->ForceLog(last, [&](Status st) {
        EXPECT_TRUE(st.ok());
        done = true;
      });
      EXPECT_TRUE(cluster.RunUntil([&]() { return done; }));
    }
    return cluster.network().bits_sent() - bits_before;
  };
  const uint64_t unicast_bits = run(false);
  const uint64_t multicast_bits = run(true);
  // The record stream dominates; multicast sends it once instead of
  // twice, so total traffic drops by roughly the data share (paper:
  // "approximately halved").
  EXPECT_LT(multicast_bits, 0.70 * unicast_bits);
  EXPECT_GT(multicast_bits, 0.40 * unicast_bits);
}

TEST(MulticastTest, SurvivesWriteSetServerDeath) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 4;
  Cluster cluster(cluster_cfg);
  LogClientConfig cfg = McastConfig();
  cfg.force_timeout = 100 * sim::kMillisecond;
  cfg.force_retries = 2;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  ASSERT_TRUE(WriteForced(cluster, *c, "warmup").ok());

  // Kill a holder of LSN 1.
  int victim = 0;
  for (int s = 1; s <= 4 && victim == 0; ++s) {
    for (const LogRecord& r : cluster.server(s).RecordsOf(1)) {
      if (r.lsn == 1) victim = s;
    }
  }
  ASSERT_NE(victim, 0);
  cluster.server(victim).Crash();

  Result<Lsn> lsn = WriteForced(cluster, *c, "survives");
  ASSERT_TRUE(lsn.ok());
  int holders = 0;
  for (int s = 1; s <= 4; ++s) {
    if (s == victim) continue;
    for (const LogRecord& r : cluster.server(s).RecordsOf(1)) {
      if (r.lsn == *lsn && r.present) {
        ++holders;
        break;
      }
    }
  }
  EXPECT_GE(holders, 2);
}

TEST(MulticastTest, ClientRestartRecoversMulticastHistory) {
  Cluster cluster(ClusterConfig{});
  {
    auto c = cluster.AddClient(McastConfig());
    ASSERT_TRUE(InitClient(cluster, *c).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          WriteForced(cluster, *c, std::string("h").append(std::to_string(i)))
              .ok());
    }
    c->Crash();
  }
  LogClientConfig cfg = McastConfig();
  cfg.node_id = 2000;
  auto c2 = cluster.AddClient(cfg);
  ASSERT_TRUE(InitClient(cluster, *c2).ok());
  for (Lsn lsn = 1; lsn <= 5; ++lsn) {
    Result<Bytes> r = Status::Internal("never");
    bool done = false;
    c2->ReadLog(lsn, [&](Result<Bytes> got) {
      r = std::move(got);
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
    ASSERT_TRUE(r.ok()) << "lsn " << lsn;
    EXPECT_EQ(ToString(*r), std::string("h").append(std::to_string(lsn - 1)));
  }
}

}  // namespace
}  // namespace dlog
