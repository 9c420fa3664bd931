// The benchmark's own ET1 node, built only from dlog's public API: a
// cluster-owned client::LogClient, a tp::TransactionEngine over a
// tp::PageDisk, a tp::BankDb, and TimedLogger — a tp::TxnLogger decorator
// over the LogClient that measures force and read latency in simulated
// time. The node keeps the issue-order history of its ET1 transactions so
// every restart can be checked against what the log acknowledged.
#ifndef PERFBENCH_ET1_NODE_H_
#define PERFBENCH_ET1_NODE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/cluster.h"
#include "sim/stats.h"
#include "tp/bank.h"
#include "tp/engine.h"
#include "tp/logger.h"
#include "tp/storage.h"
#include "tp/wal.h"

namespace perfbench {

using namespace dlog;

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Ms(sim::Duration d) { return static_cast<double>(d) / 1e6; }

// ---------------------------------------------------------------------------
// Host-time spans around the benchmark's calls into each layer.

/// In-memory span log: name, start, end, parent. Disabled unless the run
/// is traced, and then only inside the measured window.
class SpanLog {
 public:
  struct Record {
    const char* name;
    int64_t start;
    int64_t end;
    int32_t parent;
  };

  bool enabled = false;

  int32_t Open(const char* name) {
    if (!enabled) return -1;
    const auto id = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, WallNs(), 0, current_});
    current_ = id;
    return id;
  }
  void Close(int32_t id) {
    if (id < 0) return;
    spans_[id].end = WallNs();
    current_ = spans_[id].parent;
  }
  const std::vector<Record>& spans() const { return spans_; }

 private:
  std::vector<Record> spans_;
  int32_t current_ = -1;
};

SpanLog& Spans();

class Span {
 public:
  explicit Span(const char* name) : id_(Spans().Open(name)) {}
  ~Span() { Spans().Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Run-wide tallies shared by every node of a workload.

struct RunStats {
  /// True inside a measured window: forces issued then are sampled.
  bool window = false;
  /// True while a Cluster is being torn down: late callbacks are ignored.
  bool shutdown = false;

  sim::Histogram force_ms;     // ForceLog call -> callback, window only
  sim::Histogram read_ms;      // ReadLog call -> callback, server-answered
  sim::Histogram init_ms;      // LogClient::Init call -> callback
  sim::Histogram recovery_ms;  // restart -> Init and Recover both done
  uint64_t reads = 0;
  uint64_t reads_local = 0;  // answered with zero simulated latency
  uint64_t recovery_reads = 0;
  uint64_t recoveries = 0;
  uint64_t recovery_attempts = 0;
  uint64_t recovery_failures = 0;  // Init or Recover returned an error
  uint64_t recover_calls = 0;
  uint64_t recover_failures = 0;

  // ET1 accounting: attempted = acked + failed + refused + cut_off once
  // in-flight work has drained.
  uint64_t attempted = 0;
  uint64_t acked = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  uint64_t cut_off = 0;

  /// Host time spent in correctness checks inside measured windows; it
  /// is subtracted from the window's wall time.
  int64_t check_ns = 0;
  std::vector<std::string> errors;

  void Error(std::string message) {
    if (errors.size() < 20) {
      errors.push_back(std::move(message));
    } else if (errors.size() == 20) {
      errors.push_back("(further errors elided)");
    }
  }
};

RunStats& Stats();

// ---------------------------------------------------------------------------

/// tp::TxnLogger over the cluster-owned LogClient behind `handle` (the
/// handle survives client restarts). Latencies are simulated time from
/// call to callback.
class TimedLogger final : public tp::TxnLogger {
 public:
  TimedLogger(harness::ClientHandle handle, sim::Scheduler* sched)
      : log_(handle), sched_(sched) {}

  Result<Lsn> Append(Bytes payload) override {
    Span span("client.WriteLog");
    if (txn_tag != 0) payload = TagTxn(payload);
    return log_->WriteLog(std::move(payload));
  }

  void Force(Lsn upto, std::function<void(Status)> done) override {
    Span span("client.ForceLog");
    const sim::Time start = sched_->Now();
    const bool sampled = Stats().window;
    log_->ForceLog(upto, [this, upto, start, sampled,
                          done = std::move(done)](Status st) {
      Span cb("cb.force");
      if (st.ok()) {
        if (sampled) Stats().force_ms.Add(Ms(sched_->Now() - start));
        acked_lsn_ = std::max(acked_lsn_, upto);
      }
      done(st);
    });
  }

  void Read(Lsn lsn, std::function<void(Result<Bytes>)> done) override {
    Span span("client.ReadLog");
    const sim::Time start = sched_->Now();
    ++Stats().reads;
    if (recovering) ++Stats().recovery_reads;
    log_->ReadLog(lsn, [this, start, done = std::move(done)](
                           Result<Bytes> r) {
      Span cb("cb.read");
      const sim::Duration latency = sched_->Now() - start;
      if (latency == 0) {
        ++Stats().reads_local;
      } else {
        Stats().read_ms.Add(Ms(latency));
      }
      done(std::move(r));
    });
  }

  Lsn End() const override { return log_->EndOfLog(); }

  /// Highest LSN any acknowledged force covered, across incarnations.
  Lsn acked_lsn() const { return acked_lsn_; }

  /// Set while the engine's restart scan runs (counts its reads).
  bool recovering = false;

  /// Written into the high 32 bits of every logged transaction id.
  /// tp::TransactionEngine numbers transactions from 1 in every engine,
  /// and Recover keys outcomes by id over the whole log, so without a
  /// per-incarnation tag the records of a transaction cut off by a crash
  /// take the outcome of a later transaction with the same id.
  uint64_t txn_tag = 0;

 private:
  Bytes TagTxn(const Bytes& payload) const {
    Result<tp::WalRecord> rec = tp::DecodeWalRecord(payload);
    if (!rec.ok() || rec->txn == 0) return payload;
    rec->txn |= txn_tag << 32;
    return tp::EncodeWalRecord(*rec);
  }

  harness::ClientHandle log_;
  sim::Scheduler* sched_;
  Lsn acked_lsn_ = 0;
};

struct NodeParams {
  double tps = 2.0;
  /// Arrivals are refused while the log client holds more than this many
  /// unacknowledged records (application-level backpressure).
  size_t max_backlog = 64;
  /// Work around two open library defects (see README.md): tag logged
  /// transaction ids per incarnation (TimedLogger::txn_tag), and commit
  /// one transaction at boot before arrivals start, so a server's first
  /// contact with the client's stream is its first record. Off, the
  /// correctness checks catch both defects on some seeds.
  bool workarounds = true;
  tp::BankConfig bank;
};

/// Cumulative protocol-client counters of one node, summed over every
/// incarnation of its LogClient.
struct ClientCounts {
  uint64_t records_sent = 0;
  uint64_t batches_sent = 0;
  uint64_t resends = 0;
  uint64_t forces = 0;
  uint64_t server_switches = 0;
  uint64_t log_bytes = 0;
  uint64_t log_records = 0;

  /// Adds the growth from `a` to `b`.
  void AddDelta(const ClientCounts& a, const ClientCounts& b) {
    records_sent += b.records_sent - a.records_sent;
    batches_sent += b.batches_sent - a.batches_sent;
    resends += b.resends - a.resends;
    forces += b.forces - a.forces;
    server_switches += b.server_switches - a.server_switches;
    log_bytes += b.log_bytes - a.log_bytes;
    log_records += b.log_records - a.log_records;
  }

};

/// One transaction-processing node with an open-loop Poisson arrival
/// process. Restart = Cluster::RestartClient, LogClient::Init, then
/// TransactionEngine::Recover on a fresh engine over the surviving
/// PageDisk, retrying each step on failure.
class Et1Node {
 public:
  Et1Node(harness::Cluster* cluster, const client::LogClientConfig& config,
          const NodeParams& params, uint64_t seed);

  /// Init + Recover (first boot: the log is empty), then one committed
  /// transaction, then `ready`.
  void Boot(std::function<void()> ready);
  void StartArrivals();
  void StopArrivals() { arrivals_on_ = false; }

  /// Crashes the node: in-flight transactions are cut off.
  void Crash();
  /// Restarts a crashed node and recovers it; `ready` fires once it
  /// serves again, after the recovered bank passed the prefix check.
  void Restart(std::function<void()> ready);

  bool serving() const { return serving_; }
  size_t inflight() const { return inflight_; }
  client::LogClient& log() { return *handle_; }
  TimedLogger& logger() { return *logger_; }
  ClientCounts counts() const;

  /// End-of-run checks (after arrivals stopped and work drained).
  void FinalCheck();
  uint64_t Digest(uint64_t h);

 private:
  struct Txn {
    int32_t account;
    int16_t teller;
    int16_t branch;
    int32_t delta;
  };

  void BuildEngine();
  void StartInit(sim::Time restarted, bool restart,
                 std::function<void()> ready);
  void StartRecover(sim::Time restarted, bool restart,
                    std::function<void()> ready);
  void NextArrival();
  void Arrive();
  Txn Draw();
  /// Submits `t`; `done` (if set) runs when its commit completes.
  void Submit(const Txn& t, std::function<void()> done);
  void CheckRecovered();
  std::vector<int64_t> ReadBalances();
  void Apply(std::vector<int64_t>* state, const Txn& t) const;

  harness::Cluster* cluster_;
  NodeParams params_;
  Rng rng_;
  harness::ClientHandle handle_;
  sim::Scheduler* sched_;
  std::unique_ptr<TimedLogger> logger_;
  tp::PageDisk disk_;
  std::unique_ptr<tp::TransactionEngine> engine_;
  std::unique_ptr<tp::BankDb> bank_;

  /// Bumped on every crash; callbacks of an earlier incarnation are void.
  uint64_t gen_ = 0;
  bool serving_ = false;
  bool arrivals_on_ = false;
  size_t inflight_ = 0;
  /// Every submitted transaction in issue order (= commit-LSN order: the
  /// engine is serial). Entries below committed_ are known committed.
  std::vector<Txn> history_;
  size_t committed_ = 0;
  bool unknown_outcome_ = false;  // some commit returned an error
  ClientCounts closed_;           // counters of crashed incarnations
};

}  // namespace perfbench

#endif  // PERFBENCH_ET1_NODE_H_
