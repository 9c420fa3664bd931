// Property-based tests: randomized inputs checked against brute-force
// oracles, parameterized over the design space (M, N, loss rates, sizes).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "client/log_server_stub.h"
#include "client/replicated_log.h"
#include "common/log_types.h"
#include "common/rng.h"
#include "epoch/id_generator.h"
#include "forest/append_forest.h"

namespace dlog {
namespace {

// --- MergedLogView vs. a brute-force per-LSN oracle ---

struct MergeCase {
  uint64_t seed;
  int servers;
  int intervals_per_server;
};

class MergedViewProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MergedViewProperty, MatchesBruteForceOracle) {
  const auto [seed, servers, per_server] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919);

  std::vector<ServerInterval> intervals;
  constexpr Lsn kMaxLsn = 60;
  for (int s = 1; s <= servers; ++s) {
    for (int i = 0; i < per_server; ++i) {
      Interval iv;
      iv.low = 1 + rng.NextBelow(kMaxLsn);
      iv.high = iv.low + rng.NextBelow(10);
      iv.epoch = 1 + rng.NextBelow(5);
      intervals.push_back({static_cast<ServerId>(s), iv});
    }
  }
  MergedLogView view = MergedLogView::Build(intervals);

  // Brute force: for every LSN, the winning epoch and its holder set.
  std::optional<Lsn> oracle_high;
  for (Lsn lsn = 1; lsn <= kMaxLsn + 12; ++lsn) {
    Epoch best = 0;
    std::set<ServerId> holders;
    for (const ServerInterval& si : intervals) {
      if (!si.interval.Contains(lsn)) continue;
      if (si.interval.epoch > best) {
        best = si.interval.epoch;
        holders.clear();
      }
      if (si.interval.epoch == best) holders.insert(si.server);
    }
    const MergedLogView::Segment* seg = view.Find(lsn);
    if (holders.empty()) {
      EXPECT_EQ(seg, nullptr) << "lsn " << lsn;
      continue;
    }
    oracle_high = lsn;
    ASSERT_NE(seg, nullptr) << "lsn " << lsn;
    EXPECT_EQ(seg->epoch, best) << "lsn " << lsn;
    EXPECT_EQ(std::set<ServerId>(seg->servers.begin(), seg->servers.end()),
              holders)
        << "lsn " << lsn;
  }
  EXPECT_EQ(view.HighLsn(), oracle_high);

  // Segments are sorted, non-overlapping, non-empty.
  Lsn prev_high = 0;
  for (const auto& seg : view.segments()) {
    EXPECT_GT(seg.low, prev_high);
    EXPECT_GE(seg.high, seg.low);
    EXPECT_FALSE(seg.servers.empty());
    prev_high = seg.high;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergedViewProperty,
    ::testing::Combine(::testing::Range(1, 11),      // seeds
                       ::testing::Values(1, 3, 6),   // servers
                       ::testing::Values(1, 4, 8))); // intervals/server

// --- NoteWrite incremental maintenance vs. rebuild oracle ---

TEST(MergedViewNoteWriteProperty, AgreesWithRebuild) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 31);
    MergedLogView incremental;
    std::vector<ServerInterval> history;
    Lsn high = 0;
    Epoch epoch = 1;
    for (int step = 0; step < 60; ++step) {
      if (rng.NextBelow(10) == 0) ++epoch;  // client restart
      const Lsn lsn =
          rng.NextBelow(8) == 0 && high > 0 ? high : high + 1;  // re-copy
      high = std::max(high, lsn);
      std::vector<ServerId> servers;
      const int n = 2 + static_cast<int>(rng.NextBelow(2));
      while (static_cast<int>(servers.size()) < n) {
        const ServerId s = 1 + rng.NextBelow(5);
        if (std::find(servers.begin(), servers.end(), s) == servers.end()) {
          servers.push_back(s);
        }
      }
      incremental.NoteWrite(lsn, epoch, servers);
      for (ServerId s : servers) {
        history.push_back({s, Interval{epoch, lsn, lsn}});
      }
      if (step % 10 == 9) {
        MergedLogView rebuilt = MergedLogView::Build(history);
        for (Lsn q = 1; q <= high; ++q) {
          const auto* a = incremental.Find(q);
          const auto* b = rebuilt.Find(q);
          ASSERT_EQ(a == nullptr, b == nullptr) << "seed " << seed;
          if (a != nullptr) {
            EXPECT_EQ(a->epoch, b->epoch) << "seed " << seed << " lsn " << q;
            EXPECT_EQ(a->servers, b->servers)
                << "seed " << seed << " lsn " << q;
          }
        }
      }
    }
  }
}

// --- ReplicatedLog crash-recovery property across the (M, N) grid ---

class ReplicatedLogGridProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ReplicatedLogGridProperty, CommittedRecordsSurviveAnything) {
  const auto [m, n, seed] = GetParam();
  if (n > m) GTEST_SKIP();
  Rng rng(static_cast<uint64_t>(seed) * 997 + m * 31 + n);

  std::vector<std::unique_ptr<client::InMemoryLogServerStub>> servers;
  std::vector<client::LogServerStub*> raw;
  for (int i = 1; i <= m; ++i) {
    servers.push_back(std::make_unique<client::InMemoryLogServerStub>(i));
    raw.push_back(servers.back().get());
  }
  std::vector<std::unique_ptr<epoch::GeneratorStateRep>> reps;
  std::vector<epoch::GeneratorStateRep*> raw_reps;
  for (int i = 0; i < 3; ++i) {
    reps.push_back(std::make_unique<epoch::GeneratorStateRep>());
    raw_reps.push_back(reps.back().get());
  }
  epoch::ReplicatedIdGenerator generator(raw_reps);

  client::ReplicatedLog::Options opts;
  opts.copies = n;
  auto log = std::make_unique<client::ReplicatedLog>(1, raw, &generator,
                                                     opts);
  ASSERT_TRUE(log->Init().ok());

  std::map<Lsn, Bytes> committed;
  for (int step = 0; step < 60; ++step) {
    const uint64_t dice = rng.NextBelow(10);
    if (dice < 6) {
      Bytes data = ToBytes(std::string("d").append(std::to_string(step)));
      Result<Lsn> lsn = log->WriteLog(data);
      if (lsn.ok()) committed[*lsn] = data;
    } else if (dice < 8) {
      (void)log->WriteLogCrashAfter(ToBytes("torn"),
                                    static_cast<int>(rng.NextBelow(n)));
      for (auto& s : servers) s->SetAvailable(true);
      log = std::make_unique<client::ReplicatedLog>(1, raw, &generator,
                                                    opts);
      ASSERT_TRUE(log->Init().ok());
    } else {
      // Flip a server, keeping at least N up.
      int up = 0;
      for (auto& s : servers) up += s->IsAvailable() ? 1 : 0;
      auto& victim = servers[rng.NextBelow(servers.size())];
      if (victim->IsAvailable() && up > n) {
        victim->SetAvailable(false);
      } else {
        victim->SetAvailable(true);
      }
    }
    if (!log->initialized()) {
      for (auto& s : servers) s->SetAvailable(true);
      ASSERT_TRUE(log->Init().ok());
    }
  }

  for (auto& s : servers) s->SetAvailable(true);
  log = std::make_unique<client::ReplicatedLog>(1, raw, &generator, opts);
  ASSERT_TRUE(log->Init().ok());
  for (const auto& [lsn, data] : committed) {
    Result<Bytes> r = log->ReadLog(lsn);
    ASSERT_TRUE(r.ok()) << "M=" << m << " N=" << n << " lsn " << lsn
                        << ": " << r.status().ToString();
    EXPECT_EQ(*r, data);
  }
  // Each committed record is on at least N servers (full replication is
  // restored by recovery for any record recovery touched; all others
  // were written to N servers to begin with).
  for (const auto& [lsn, data] : committed) {
    int holders = 0;
    for (auto& s : servers) {
      Result<LogRecord> rec = s->store(1).Read(lsn);
      if (rec.ok() && rec->present) ++holders;
    }
    EXPECT_GE(holders, n) << "lsn " << lsn;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ReplicatedLogGridProperty,
                         ::testing::Combine(::testing::Values(2, 3, 5, 7),
                                            ::testing::Values(2, 3),
                                            ::testing::Range(1, 6)));

// --- Append forest: random range widths, every key findable ---

class ForestRangeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ForestRangeProperty, RandomRangesIndexEveryKey) {
  Rng rng(GetParam());
  forest::AppendForest forest;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;  // (high, value)
  uint64_t next_key = 1;
  for (int i = 0; i < 400; ++i) {
    const uint64_t width = 1 + rng.NextBelow(50);
    const uint64_t low = next_key;
    const uint64_t high = low + width - 1;
    ASSERT_TRUE(forest.Append(low, high, i).ok());
    ranges.push_back({high, static_cast<uint64_t>(i)});
    next_key = high + 1;
  }
  ASSERT_TRUE(forest.CheckInvariants().ok());
  // Probe a sample of keys; the owning node is the first range whose
  // high >= key.
  for (uint64_t key = 1; key < next_key; key += 1 + rng.NextBelow(17)) {
    auto it = std::lower_bound(
        ranges.begin(), ranges.end(), key,
        [](const auto& r, uint64_t k) { return r.first < k; });
    ASSERT_NE(it, ranges.end());
    Result<forest::AppendForest::Node> node = forest.Find(key);
    ASSERT_TRUE(node.ok()) << "key " << key;
    EXPECT_EQ(node->value, it->second) << "key " << key;
  }
  EXPECT_TRUE(forest.Find(next_key).status().IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestRangeProperty,
                         ::testing::Range<uint64_t>(1, 9));

// --- Identifier generator: interleaved generators share representatives ---

TEST(IdGeneratorProperty, TwoGeneratorsOverSameRepsStayMonotone) {
  // The paper permits one client process at a time; sequential use of
  // two generator objects over the same representatives (a client
  // restarting with fresh state) must still yield increasing ids.
  std::vector<std::unique_ptr<epoch::GeneratorStateRep>> reps;
  std::vector<epoch::GeneratorStateRep*> raw;
  for (int i = 0; i < 5; ++i) {
    reps.push_back(std::make_unique<epoch::GeneratorStateRep>());
    raw.push_back(reps.back().get());
  }
  uint64_t last = 0;
  for (int life = 0; life < 10; ++life) {
    epoch::ReplicatedIdGenerator generator(raw);  // fresh client state
    for (int i = 0; i < 5; ++i) {
      Result<uint64_t> id = generator.NewId();
      ASSERT_TRUE(id.ok());
      EXPECT_GT(*id, last);
      last = *id;
    }
  }
}

}  // namespace
}  // namespace dlog
