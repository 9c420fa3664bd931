// The sharded parallel engine's contract: a run is byte-identical at
// any worker count, and — with predicate waits quantized — identical to
// the serial engine. Covers the window-boundary edge cases (events
// exactly at the window edge, cross-shard Cancel of a mailboxed
// injection) at the engine level, then full-cluster identity on
// miniature versions of the E10 (Markov faults + probe lifecycle) and
// E16 (Et1 drivers under load) experiments.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace dlog {
namespace {

constexpr sim::Duration kLookahead = 50;  // microticks, like the LAN

// ---------------------------------------------------------------------
// Engine-level: a synthetic multi-node workload written against the
// Scheduler interface, so the same generator runs on the serial engine
// (every handle is the one Simulator) and on the parallel engine (one
// handle per shard).

struct SyntheticNode {
  sim::Scheduler* sched = nullptr;
  std::vector<SyntheticNode*>* peers = nullptr;
  int id = 0;
  int steps_left = 0;
  /// (time, tag) execution log. Strictly node-local: every append runs
  /// on this node's scheduler, so shard execution needs no locking.
  std::vector<std::pair<sim::Time, int>> log;

  void Step() {
    log.emplace_back(sched->Now(), id);
    if (--steps_left <= 0) return;
    // Local chain with period 100; every third step pokes the next node
    // with a cross-shard injection at delay 51 (>= lookahead 50) — the
    // +1 keeps injected times off the local grid so local and injected
    // events never tie.
    sched->After(100, [this]() { Step(); });
    if (steps_left % 3 == 0) {
      SyntheticNode* peer =
          (*peers)[static_cast<size_t>(id + 1) % peers->size()];
      peer->sched->At(sched->Now() + kLookahead + 1,
                      [peer]() { peer->Poked(); });
    }
  }

  void Poked() { log.emplace_back(sched->Now(), -id - 1); }
};

using NodeLogs = std::vector<std::vector<std::pair<sim::Time, int>>>;

NodeLogs RunSynthetic(int num_nodes, int steps, int workers) {
  std::unique_ptr<sim::Simulator> serial;
  std::unique_ptr<sim::ParallelSimulator> parallel;
  std::vector<sim::Scheduler*> handles;
  if (workers == 0) {
    serial = std::make_unique<sim::Simulator>();
    for (int i = 0; i < num_nodes; ++i) handles.push_back(serial.get());
  } else {
    sim::ParallelConfig pc;
    pc.num_workers = workers;
    pc.lookahead = kLookahead;
    parallel = std::make_unique<sim::ParallelSimulator>(pc);
    for (int i = 0; i < num_nodes; ++i) {
      handles.push_back(parallel->shard(parallel->AddShard()));
    }
  }
  std::vector<std::unique_ptr<SyntheticNode>> nodes;
  std::vector<SyntheticNode*> node_ptrs;
  for (int i = 0; i < num_nodes; ++i) {
    auto node = std::make_unique<SyntheticNode>();
    node->sched = handles[static_cast<size_t>(i)];
    node->peers = &node_ptrs;
    node->id = i;
    node->steps_left = steps;
    node_ptrs.push_back(node.get());
    nodes.push_back(std::move(node));
  }
  for (auto& node : nodes) {
    // Stagger starts so shards are never empty-queued in lockstep.
    node->sched->At(static_cast<sim::Time>(node->id),
                    [n = node.get()]() { n->Step(); });
  }
  if (serial) {
    serial->Run();
  } else {
    parallel->Run();
  }
  NodeLogs logs;
  for (auto& n : nodes) logs.push_back(std::move(n->log));
  return logs;
}

TEST(ParallelEngineTest, MatchesSerialOnSyntheticWorkload) {
  const NodeLogs serial = RunSynthetic(5, 30, /*workers=*/0);
  const NodeLogs parallel = RunSynthetic(5, 30, /*workers=*/2);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelEngineTest, ByteIdenticalAcrossWorkerCounts) {
  const NodeLogs one = RunSynthetic(6, 40, /*workers=*/1);
  for (int workers : {2, 4, 8}) {
    EXPECT_EQ(one, RunSynthetic(6, 40, workers))
        << "diverged at " << workers << " workers";
  }
}

TEST(ParallelEngineTest, EventsExecutedAndPendingAggregate) {
  sim::ParallelConfig pc;
  pc.num_workers = 2;
  pc.lookahead = kLookahead;
  sim::ParallelSimulator engine(pc);
  sim::Scheduler* a = engine.shard(engine.AddShard());
  sim::Scheduler* b = engine.shard(engine.AddShard());
  int ran = 0;
  a->At(10, [&]() { ++ran; });
  b->At(20, [&]() { ++ran; });
  b->At(500, [&]() { ++ran; });
  EXPECT_EQ(engine.pending_events(), 3u);
  engine.RunUntil(100);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(engine.Now(), 100);
  EXPECT_EQ(engine.events_executed(), 2u);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.Run();
  EXPECT_EQ(ran, 3);
}

// An event landing exactly at the window edge W + lookahead belongs to
// the *next* window; an injection aimed exactly at the edge is legal
// (the lookahead contract is ">= window end") and must merge after the
// target's own event at the same time, matching the serial engine's
// insertion order (the local event was scheduled first).
TEST(ParallelEngineTest, WindowEdgeEventOrdering) {
  sim::ParallelConfig pc;
  pc.num_workers = 2;
  pc.lookahead = kLookahead;
  sim::ParallelSimulator engine(pc);
  sim::Scheduler* a = engine.shard(engine.AddShard());
  sim::Scheduler* b = engine.shard(engine.AddShard());

  std::vector<int> order;
  // Shard B's own event at exactly t = 50 (= 0 + lookahead, the first
  // window is [0, 49]).
  b->At(kLookahead, [&]() { order.push_back(1); });
  // Shard A, executing at t = 0, injects into B at exactly t = 50.
  a->At(0, [&, b]() { b->At(kLookahead, [&]() { order.push_back(2); }); });
  // And an event at the last covered tick of the window, t = 49,
  // injecting at the minimum legal distance 49 + 50 = 99.
  a->At(kLookahead - 1,
        [&, b]() { b->At(99, [&]() { order.push_back(3); }); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.Now(), 99);
}

TEST(ParallelEngineTest, CrossShardCancelBeforeBarrier) {
  sim::ParallelConfig pc;
  pc.num_workers = 2;
  pc.lookahead = kLookahead;
  sim::ParallelSimulator engine(pc);
  sim::Scheduler* a = engine.shard(engine.AddShard());
  sim::Scheduler* b = engine.shard(engine.AddShard());

  bool injected_ran = false;
  sim::EventId id = 0;
  // t = 0: inject into B at t = 100; t = 10, same window on the same
  // shard: cancel it. The injection is still mailboxed, so the cancel
  // must succeed and the callback must never run.
  a->At(0, [&, b]() {
    id = b->At(100, [&]() { injected_ran = true; });
    EXPECT_NE(id, 0u);
  });
  bool cancel_ok = false;
  a->At(10, [&, b]() { cancel_ok = b->Cancel(id); });
  engine.Run();
  EXPECT_TRUE(cancel_ok);
  EXPECT_FALSE(injected_ran);
}

TEST(ParallelEngineTest, CrossShardCancelAfterBarrierFails) {
  sim::ParallelConfig pc;
  pc.num_workers = 2;
  pc.lookahead = kLookahead;
  sim::ParallelSimulator engine(pc);
  sim::Scheduler* a = engine.shard(engine.AddShard());
  sim::Scheduler* b = engine.shard(engine.AddShard());

  bool injected_ran = false;
  sim::EventId id = 0;
  a->At(0, [&, b]() { id = b->At(200, [&]() { injected_ran = true; }); });
  // t = 60 is past the first barrier: the injection has been handed to
  // shard B, so the source can no longer cancel it.
  bool cancel_ok = true;
  a->At(60, [&, b]() { cancel_ok = b->Cancel(id); });
  engine.Run();
  EXPECT_FALSE(cancel_ok);
  EXPECT_TRUE(injected_ran);
}

TEST(ParallelEngineTest, QuiescentSchedulingAndCancel) {
  sim::ParallelConfig pc;
  pc.num_workers = 1;
  pc.lookahead = kLookahead;
  sim::ParallelSimulator engine(pc);
  sim::Scheduler* a = engine.shard(engine.AddShard());
  // No window is executing: At/Cancel behave exactly like the serial
  // engine, including sub-lookahead times.
  bool ran = false;
  sim::EventId id = a->At(1, [&]() { ran = true; });
  EXPECT_TRUE(a->Cancel(id));
  EXPECT_FALSE(a->Cancel(id));
  engine.Run();
  EXPECT_FALSE(ran);
}

TEST(ParallelConfigTest, Validate) {
  sim::ParallelConfig pc;
  pc.num_workers = 1;
  pc.lookahead = 1;
  EXPECT_TRUE(pc.Validate().ok());
  pc.num_workers = 0;
  EXPECT_FALSE(pc.Validate().ok());
  pc.num_workers = 1;
  pc.lookahead = 0;
  EXPECT_FALSE(pc.Validate().ok());
}

TEST(ClusterConfigTest, ParallelValidation) {
  harness::ClusterConfig cfg;
  cfg.shard_workers = 2;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.tracing = true;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.tracing = false;
  cfg.profiling = true;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.profiling = false;
  cfg.network.propagation_delay = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = harness::ClusterConfig{};
  cfg.shard_workers = -1;
  EXPECT_FALSE(cfg.Validate().ok());
}

// ---------------------------------------------------------------------
// Cluster-level identity: the acceptance property behind the E10/E16
// byte-identical-JSON requirement, shrunk to test size. Each run is
// summarized as the full metrics snapshot text plus the driver-visible
// counts; the strings must match exactly between the serial engine and
// the parallel engine at every worker count.

harness::ClusterConfig EngineComparableConfig(int shard_workers) {
  harness::ClusterConfig cfg;
  cfg.shard_workers = shard_workers;
  // Quantize predicate waits identically in both modes so stopping
  // times depend only on the simulated schedule.
  cfg.run_until_quantum = cfg.network.propagation_delay;
  return cfg;
}

std::string RunMiniE16(int shard_workers) {
  harness::Cluster cluster(EngineComparableConfig(shard_workers));
  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < 3; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<uint32_t>(i + 1);
    harness::Et1DriverConfig cfg;
    cfg.tps = 80.0;
    cfg.seed = 1600 + static_cast<uint64_t>(i);
    cfg.max_log_backlog = 32;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, cfg));
    drivers.back()->Start();
  }
  cluster.RunFor(3 * sim::kSecond);
  for (auto& d : drivers) d->Stop();
  cluster.RunFor(sim::kSecond);

  std::string sig = cluster.metrics().Snapshot(cluster.Now()).ToText();
  for (auto& d : drivers) {
    sig += "committed=" + std::to_string(d->committed()) +
           " failed=" + std::to_string(d->failed()) +
           " shed=" + std::to_string(d->txns_shed()) + "\n";
  }
  return sig;
}

TEST(ParallelClusterTest, MiniE16IdenticalAcrossEngines) {
  const std::string serial = RunMiniE16(/*shard_workers=*/0);
  for (int workers : {1, 2, 4, 8}) {
    EXPECT_EQ(serial, RunMiniE16(workers))
        << "diverged from serial at " << workers << " workers";
  }
}

std::string RunMiniE10(int shard_workers) {
  harness::ClusterConfig cluster_cfg = EngineComparableConfig(shard_workers);
  cluster_cfg.num_servers = 3;
  harness::Cluster cluster(cluster_cfg);

  client::LogClientConfig probe_cfg;
  probe_cfg.client_id = 1;
  probe_cfg.force_timeout = 300 * sim::kMillisecond;
  probe_cfg.force_retries = 2;
  probe_cfg.rpc_timeout = 150 * sim::kMillisecond;
  probe_cfg.rpc_attempts = 2;
  harness::ClientHandle writer = cluster.AddClient(probe_cfg);
  probe_cfg.client_id = 2;
  harness::ClientHandle initer = cluster.AddClient(probe_cfg);

  auto init_client = [&](harness::ClientHandle& c) {
    bool done = false, ok = false;
    c->Init([&](Status st) {
      ok = st.ok();
      done = true;
    });
    cluster.RunUntil([&]() { return done; }, 3 * sim::kSecond);
    return done && ok;
  };
  EXPECT_TRUE(init_client(writer));
  EXPECT_TRUE(init_client(initer));

  chaos::MarkovFaultConfig markov;
  markov.mttf = 8 * sim::kSecond;  // fast cycles: faults inside the run
  markov.mttr = 2 * sim::kSecond;
  markov.seed = 42;
  cluster.chaos().StartMarkov(markov);

  uint64_t write_ok = 0, init_ok = 0;
  for (int i = 0; i < 6; ++i) {
    Result<Lsn> lsn =
        writer->WriteLog(ToBytes(std::string("p").append(std::to_string(i))));
    if (lsn.ok()) {
      bool done = false, ok = false;
      writer->ForceLog(*lsn, [&](Status st) {
        ok = st.ok();
        done = true;
      });
      cluster.RunUntil([&]() { return done; }, 3 * sim::kSecond);
      if (done && ok) ++write_ok;
    }
    cluster.CrashClient(initer);
    cluster.RestartClient(initer);
    if (init_client(initer)) ++init_ok;
    cluster.RunFor(2 * sim::kSecond);
  }
  cluster.chaos().StopMarkov();

  return cluster.metrics().Snapshot(cluster.Now()).ToText() +
         "write_ok=" + std::to_string(write_ok) +
         " init_ok=" + std::to_string(init_ok) + "\n";
}

TEST(ParallelClusterTest, MiniE10IdenticalAcrossEngines) {
  const std::string serial = RunMiniE10(/*shard_workers=*/0);
  for (int workers : {1, 4}) {
    EXPECT_EQ(serial, RunMiniE10(workers))
        << "diverged from serial at " << workers << " workers";
  }
}

}  // namespace
}  // namespace dlog
