#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "client/log_server_stub.h"
#include "client/replicated_log.h"
#include "common/rng.h"
#include "epoch/id_generator.h"

namespace dlog::client {
namespace {

constexpr ClientId kClient = 1;

struct Cluster {
  explicit Cluster(int m, int gen_reps = 3) {
    for (int i = 0; i < m; ++i) {
      servers.push_back(std::make_unique<InMemoryLogServerStub>(i + 1));
      raw_servers.push_back(servers.back().get());
    }
    for (int i = 0; i < gen_reps; ++i) {
      reps.push_back(std::make_unique<epoch::GeneratorStateRep>());
      raw_reps.push_back(reps.back().get());
    }
    generator = std::make_unique<epoch::ReplicatedIdGenerator>(raw_reps);
  }

  std::unique_ptr<ReplicatedLog> NewLog(int n) {
    ReplicatedLog::Options opts;
    opts.copies = n;
    return std::make_unique<ReplicatedLog>(kClient, raw_servers,
                                           generator.get(), opts);
  }

  InMemoryLogServerStub& server(ServerId id) { return *servers[id - 1]; }

  std::vector<std::unique_ptr<InMemoryLogServerStub>> servers;
  std::vector<LogServerStub*> raw_servers;
  std::vector<std::unique_ptr<epoch::GeneratorStateRep>> reps;
  std::vector<epoch::GeneratorStateRep*> raw_reps;
  std::unique_ptr<epoch::ReplicatedIdGenerator> generator;
};

TEST(ReplicatedLogTest, RequiresInit) {
  Cluster c(3);
  auto log = c.NewLog(2);
  EXPECT_EQ(log->WriteLog(ToBytes("x")).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(log->ReadLog(1).ok());
  EXPECT_FALSE(log->EndOfLog().ok());
}

TEST(ReplicatedLogTest, WriteReadEndOfLog) {
  Cluster c(3);
  auto log = c.NewLog(2);
  ASSERT_TRUE(log->Init().ok());
  EXPECT_EQ(*log->EndOfLog(), kNoLsn);

  EXPECT_EQ(*log->WriteLog(ToBytes("first")), 1u);
  EXPECT_EQ(*log->WriteLog(ToBytes("second")), 2u);
  EXPECT_EQ(*log->EndOfLog(), 2u);
  EXPECT_EQ(*log->ReadLog(1), ToBytes("first"));
  EXPECT_EQ(*log->ReadLog(2), ToBytes("second"));
}

TEST(ReplicatedLogTest, ReadBeyondEndSignalsOutOfRange) {
  Cluster c(3);
  auto log = c.NewLog(2);
  ASSERT_TRUE(log->Init().ok());
  ASSERT_TRUE(log->WriteLog(ToBytes("a")).ok());
  EXPECT_TRUE(log->ReadLog(2).status().IsOutOfRange());
  EXPECT_TRUE(log->ReadLog(99).status().IsOutOfRange());
}

TEST(ReplicatedLogTest, EachRecordStoredOnExactlyNServers) {
  Cluster c(5);
  auto log = c.NewLog(2);
  ASSERT_TRUE(log->Init().ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(log->WriteLog(ToBytes("r")).ok());
  for (Lsn lsn = 1; lsn <= 10; ++lsn) {
    int holders = 0;
    for (auto& s : c.servers) {
      if (s->store(kClient).Read(lsn).ok()) ++holders;
    }
    EXPECT_EQ(holders, 2) << "LSN " << lsn;
  }
}

TEST(ReplicatedLogTest, ConsecutiveWritesStickToSameServers) {
  Cluster c(5);
  auto log = c.NewLog(2);
  ASSERT_TRUE(log->Init().ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(log->WriteLog(ToBytes("r")).ok());
  // All records on the same two servers => one interval each, none
  // elsewhere ("clients should attempt to perform consecutive writes to
  // the same servers").
  int with_records = 0;
  for (auto& s : c.servers) {
    const IntervalList ivs = s->store(kClient).Intervals();
    if (!ivs.empty()) {
      ++with_records;
      EXPECT_EQ(ivs.size(), 1u);
    }
  }
  EXPECT_EQ(with_records, 2);
}

TEST(ReplicatedLogTest, WriteSwitchesServersOnFailure) {
  Cluster c(3);
  auto log = c.NewLog(2);
  ASSERT_TRUE(log->Init().ok());
  ASSERT_TRUE(log->WriteLog(ToBytes("a")).ok());
  c.server(1).SetAvailable(false);  // one of the write set dies
  ASSERT_TRUE(log->WriteLog(ToBytes("b")).ok());
  // Record 2 must still have two holders (among servers 2 and 3).
  int holders = 0;
  for (auto& s : c.servers) {
    if (s->IsAvailable() && s->store(kClient).Read(2).ok()) ++holders;
  }
  EXPECT_EQ(holders, 2);
  EXPECT_EQ(*log->ReadLog(2), ToBytes("b"));
}

TEST(ReplicatedLogTest, WriteUnavailableWhenFewerThanNServersUp) {
  Cluster c(3);
  auto log = c.NewLog(2);
  ASSERT_TRUE(log->Init().ok());
  c.server(1).SetAvailable(false);
  c.server(2).SetAvailable(false);
  EXPECT_TRUE(log->WriteLog(ToBytes("x")).status().IsUnavailable());
}

TEST(ReplicatedLogTest, InitNeedsMinusNPlusOneServers) {
  Cluster c(5);
  {
    auto log = c.NewLog(2);  // needs M-N+1 = 4 interval lists
    c.server(1).SetAvailable(false);
    c.server(2).SetAvailable(false);
    EXPECT_TRUE(log->Init().IsUnavailable());
    c.server(1).SetAvailable(true);
    EXPECT_TRUE(log->Init().ok());
  }
}

TEST(ReplicatedLogTest, RecoveryAfterCleanRestartPreservesLog) {
  Cluster c(3);
  {
    auto log = c.NewLog(2);
    ASSERT_TRUE(log->Init().ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(log->WriteLog(ToBytes("rec" + std::to_string(i))).ok());
    }
  }  // client vanishes without crash markers
  auto log = c.NewLog(2);
  ASSERT_TRUE(log->Init().ok());
  // All five records remain readable; LSN 6 is the recovery's
  // not-present record.
  for (Lsn l = 1; l <= 5; ++l) {
    EXPECT_EQ(*log->ReadLog(l), ToBytes("rec" + std::to_string(l - 1)));
  }
  EXPECT_EQ(*log->EndOfLog(), 6u);
  EXPECT_TRUE(log->ReadLog(6).status().IsNotFound());  // marked not present
  // New writes continue above.
  EXPECT_EQ(*log->WriteLog(ToBytes("after")), 7u);
}

TEST(ReplicatedLogTest, PartialWriteInvisibleWhenItsServerExcluded) {
  Cluster c(3);
  {
    auto log = c.NewLog(2);
    ASSERT_TRUE(log->Init().ok());
    ASSERT_TRUE(log->WriteLog(ToBytes("ok")).ok());
    // Crash after reaching only one server.
    EXPECT_TRUE(
        log->WriteLogCrashAfter(ToBytes("partial"), 1).IsAborted());
  }
  // Find the server holding the partial record and exclude it from
  // recovery (Figure 3-2: "If Servers 1 and 2 were used ... record 10
  // would not be read").
  ServerId holder = 0;
  for (auto& s : c.servers) {
    if (s->store(kClient).Read(2).ok()) holder = s->id();
  }
  ASSERT_NE(holder, 0u);
  c.server(holder).SetAvailable(false);

  auto log = c.NewLog(2);
  ASSERT_TRUE(log->Init().ok());
  EXPECT_EQ(*log->ReadLog(1), ToBytes("ok"));
  // LSN 2 is now the not-present record written by recovery; the partial
  // write is reported as not existing — consistently.
  EXPECT_TRUE(log->ReadLog(2).status().IsNotFound());
  EXPECT_TRUE(log->ReadLog(2).status().IsNotFound());
}

TEST(ReplicatedLogTest, PartialWriteBecomesDurableWhenItsServerIncluded) {
  Cluster c(3);
  {
    auto log = c.NewLog(2);
    ASSERT_TRUE(log->Init().ok());
    ASSERT_TRUE(log->WriteLog(ToBytes("ok")).ok());
    EXPECT_TRUE(
        log->WriteLogCrashAfter(ToBytes("partial"), 1).IsAborted());
  }
  // All servers up: the merged interval lists see the partial record, so
  // recovery copies it and it becomes real ("the log replication
  // algorithm may report the record as existing or as not existing
  // provided that all reports are consistent").
  auto log = c.NewLog(2);
  ASSERT_TRUE(log->Init().ok());
  EXPECT_EQ(*log->ReadLog(2), ToBytes("partial"));
  EXPECT_EQ(*log->ReadLog(2), ToBytes("partial"));  // and consistently so
}

// The complete Figure 3-1 / 3-2 / 3-3 walkthrough, producing exactly the
// per-server tables printed in the paper.
TEST(ReplicatedLogTest, Figures31Through33) {
  Cluster c(3);

  // --- Epoch 1: records 1-3 written to Servers 1 and 2. ---
  {
    auto log = c.NewLog(2);
    ASSERT_TRUE(log->Init().ok());
    ASSERT_EQ(log->current_epoch(), 1u);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(log->WriteLog(ToBytes("e1")).ok());
  }

  // Burn epoch 2 (the paper's history implies an intervening restart).
  ASSERT_TRUE(c.generator->NewId().ok());

  // --- Epoch 3 recovery using Servers 1 and 3 (Server 2 down):
  //     copy <3,3>, write <4,3> not-present, then records 5 (S1+S3),
  //     6-7 (S1+S2), 8-9 (S1+S3). ---
  {
    c.server(2).SetAvailable(false);
    auto log = c.NewLog(2);
    ASSERT_TRUE(log->Init().ok());
    ASSERT_EQ(log->current_epoch(), 3u);
    ASSERT_EQ(*log->WriteLog(ToBytes("r5")), 5u);
    c.server(2).SetAvailable(true);
    c.server(3).SetAvailable(false);
    ASSERT_EQ(*log->WriteLog(ToBytes("r6")), 6u);
    ASSERT_EQ(*log->WriteLog(ToBytes("r7")), 7u);
    c.server(3).SetAvailable(true);
    c.server(2).SetAvailable(false);
    ASSERT_EQ(*log->WriteLog(ToBytes("r8")), 8u);
    ASSERT_EQ(*log->WriteLog(ToBytes("r9")), 9u);
    c.server(2).SetAvailable(true);

    // Verify Figure 3-1.
    EXPECT_EQ(c.server(1).store(kClient).Intervals(),
              (IntervalList{{1, 1, 3}, {3, 3, 9}}));
    EXPECT_EQ(c.server(2).store(kClient).Intervals(),
              (IntervalList{{1, 1, 3}, {3, 6, 7}}));
    EXPECT_EQ(c.server(3).store(kClient).Intervals(),
              (IntervalList{{3, 3, 5}, {3, 8, 9}}));
    EXPECT_FALSE(c.server(1).store(kClient).Read(4)->present);
    EXPECT_FALSE(c.server(3).store(kClient).Read(4)->present);

    // --- Figure 3-2: record 10 partially written (Server 3 only).
    // With Server 1 down, the write set is S3 (sticky) then S2; the
    // injected crash happens after the first ServerWriteLog. ---
    c.server(1).SetAvailable(false);
    EXPECT_TRUE(log->WriteLogCrashAfter(ToBytes("r10"), 1).IsAborted());
    c.server(1).SetAvailable(true);
    EXPECT_EQ(c.server(3).store(kClient).Intervals(),
              (IntervalList{{3, 3, 5}, {3, 8, 10}}));
    EXPECT_FALSE(c.server(1).store(kClient).Read(10).ok());
    EXPECT_FALSE(c.server(2).store(kClient).Read(10).ok());
  }

  // --- Figure 3-3: recovery with Servers 1 and 2 (Server 3 down). ---
  c.server(3).SetAvailable(false);
  auto log = c.NewLog(2);
  ASSERT_TRUE(log->Init().ok());
  ASSERT_EQ(log->current_epoch(), 4u);

  EXPECT_EQ(c.server(1).store(kClient).Intervals(),
            (IntervalList{{1, 1, 3}, {3, 3, 9}, {4, 9, 10}}));
  EXPECT_EQ(c.server(2).store(kClient).Intervals(),
            (IntervalList{{1, 1, 3}, {3, 6, 7}, {4, 9, 10}}));
  // Server 3 untouched (down), still holding the orphaned <10,3>.
  EXPECT_EQ(c.server(3).store(kClient).Intervals(),
            (IntervalList{{3, 3, 5}, {3, 8, 10}}));

  // <9,4> present copy; <10,4> not present.
  EXPECT_TRUE(c.server(1).store(kClient).Read(9)->present);
  EXPECT_EQ(c.server(1).store(kClient).Read(9)->epoch, 4u);
  EXPECT_FALSE(c.server(1).store(kClient).Read(10)->present);
  EXPECT_EQ(c.server(2).store(kClient).Read(10)->epoch, 4u);

  // The partially written record 10 is reported as not existing, even
  // after Server 3 comes back: its epoch-3 copy is superseded.
  EXPECT_TRUE(log->ReadLog(10).status().IsNotFound());
  c.server(3).SetAvailable(true);
  EXPECT_TRUE(log->ReadLog(10).status().IsNotFound());
  EXPECT_EQ(*log->ReadLog(9), ToBytes("r9"));
}

// Randomized crash-recovery property test: committed records are never
// lost or altered; partially written records are reported consistently.
TEST(ReplicatedLogTest, RandomCrashRecoveryProperty) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const int m = 3 + static_cast<int>(rng.NextBelow(3));  // 3..5 servers
    const int n = 2 + static_cast<int>(rng.NextBelow(2));  // N in {2,3}
    Cluster c(m);
    std::map<Lsn, Bytes> committed;
    std::map<Lsn, Bytes> attempted;  // crashed writes

    auto log = c.NewLog(n);
    ASSERT_TRUE(log->Init().ok());

    for (int step = 0; step < 120; ++step) {
      const uint64_t dice = rng.NextBelow(100);
      if (dice < 55) {
        // Normal write.
        Bytes data = ToBytes(std::string("s")
                                 .append(std::to_string(seed))
                                 .append("-")
                                 .append(std::to_string(step)));
        Result<Lsn> end = log->EndOfLog();
        Result<Lsn> lsn = log->WriteLog(data);
        if (lsn.ok()) {
          committed[*lsn] = data;
        } else {
          // The write may have reached some servers; treat it like a
          // crashed attempt and re-initialize with everything up.
          if (end.ok()) attempted[*end + 1] = data;
          for (auto& s : c.servers) s->SetAvailable(true);
          ASSERT_TRUE(log->Init().ok());
        }
      } else if (dice < 70) {
        // Crash mid-write, then restart.
        Bytes data = ToBytes("crash" + std::to_string(step));
        const int partial = static_cast<int>(rng.NextBelow(n));
        Result<Lsn> end = log->EndOfLog();
        (void)log->WriteLogCrashAfter(data, partial);
        if (end.ok() && partial > 0) attempted[*end + 1] = data;
        log = c.NewLog(n);
        // Recovery may need retries while servers flap; give it every
        // server.
        for (auto& s : c.servers) s->SetAvailable(true);
        ASSERT_TRUE(log->Init().ok());
      } else if (dice < 85) {
        // Server churn, keeping at least N up.
        const ServerId victim = 1 + rng.NextBelow(m);
        int up = 0;
        for (auto& s : c.servers) up += s->IsAvailable() ? 1 : 0;
        if (c.server(victim).IsAvailable() && up > n) {
          c.server(victim).SetAvailable(false);
        } else {
          c.server(victim).SetAvailable(true);
        }
      } else {
        // Random read-back of a committed record.
        if (!committed.empty()) {
          auto it = committed.begin();
          std::advance(it, rng.NextBelow(committed.size()));
          Result<Bytes> r = log->ReadLog(it->first);
          if (r.ok()) {
            ASSERT_EQ(*r, it->second) << "seed " << seed;
          } else {
            // Only acceptable failure: every holder is down.
            ASSERT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
          }
        }
      }
    }

    // Final audit with everything up.
    for (auto& s : c.servers) s->SetAvailable(true);
    log = c.NewLog(n);
    ASSERT_TRUE(log->Init().ok());
    for (const auto& [lsn, data] : committed) {
      Result<Bytes> r = log->ReadLog(lsn);
      ASSERT_TRUE(r.ok()) << "seed " << seed << " lsn " << lsn << ": "
                          << r.status().ToString();
      ASSERT_EQ(*r, data) << "seed " << seed << " lsn " << lsn;
    }
    // Every readable LSN is either a committed record (exact data), a
    // crashed attempt (exact data), or signals not-present.
    const Lsn end = *log->EndOfLog();
    for (Lsn lsn = 1; lsn <= end; ++lsn) {
      Result<Bytes> r = log->ReadLog(lsn);
      if (committed.count(lsn) > 0) {
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(*r, committed[lsn]);
      } else if (r.ok()) {
        ASSERT_TRUE(attempted.count(lsn) > 0) << "phantom LSN " << lsn;
        ASSERT_EQ(*r, attempted[lsn]) << "seed " << seed;
      } else {
        ASSERT_TRUE(r.status().IsNotFound()) << r.status().ToString();
      }
    }
  }
}

TEST(ReplicatedLogTest, TripleCopyBasics) {
  Cluster c(5);
  auto log = c.NewLog(3);
  ASSERT_TRUE(log->Init().ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(log->WriteLog(ToBytes("x")).ok());
  for (Lsn lsn = 1; lsn <= 5; ++lsn) {
    int holders = 0;
    for (auto& s : c.servers) {
      if (s->store(kClient).Read(lsn).ok()) ++holders;
    }
    EXPECT_EQ(holders, 3);
  }
  // Two servers can die without losing readability.
  c.server(1).SetAvailable(false);
  c.server(2).SetAvailable(false);
  for (Lsn lsn = 1; lsn <= 5; ++lsn) EXPECT_TRUE(log->ReadLog(lsn).ok());
}

}  // namespace
}  // namespace dlog::client
