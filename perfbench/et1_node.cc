#include "et1_node.h"

#include <string>

namespace perfbench {

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

RunStats& Stats() {
  static RunStats stats;
  return stats;
}

namespace {
constexpr size_t kPageBytes = 1024;
constexpr sim::Duration kRetryDelay = 500 * sim::kMillisecond;
}  // namespace

Et1Node::Et1Node(harness::Cluster* cluster,
                 const client::LogClientConfig& config,
                 const NodeParams& params, uint64_t seed)
    : cluster_(cluster), params_(params), rng_(seed), disk_(kPageBytes) {
  handle_ = cluster->AddClient(config);
  sched_ = &cluster->scheduler(handle_);
  logger_ = std::make_unique<TimedLogger>(handle_, sched_);
  BuildEngine();
}

void Et1Node::BuildEngine() {
  if (engine_ != nullptr) {
    closed_.log_bytes += engine_->log_bytes();
    closed_.log_records += engine_->log_records();
  }
  bank_.reset();
  engine_ = std::make_unique<tp::TransactionEngine>(
      sched_, logger_.get(), &disk_, tp::EngineConfig{});
  bank_ = std::make_unique<tp::BankDb>(engine_.get(), params_.bank);
  // Only attribution runs trace: transactions then root the "ForceLog"
  // spans obs::Profiler::AttributeForces decomposes.
  if (cluster_->tracer().enabled()) {
    engine_->SetTracer(&cluster_->tracer(),
                       "client-" + std::to_string(handle_->client_id()));
  }
}

ClientCounts Et1Node::counts() const {
  ClientCounts c = closed_;
  client::LogClient& log = *handle_;
  c.records_sent += log.records_sent().value();
  c.batches_sent += log.batches_sent().value();
  c.resends += log.resends().value();
  c.forces += log.forces_completed().value();
  c.server_switches += log.server_switches().value();
  c.log_bytes += engine_->log_bytes();
  c.log_records += engine_->log_records();
  return c;
}

void Et1Node::Boot(std::function<void()> ready) {
  StartInit(sched_->Now(), /*restart=*/false,
            [this, ready = std::move(ready)]() mutable {
              if (!params_.workarounds) {
                ready();
                return;
              }
              // Nothing else is sent until this commit is acknowledged,
              // so no server can first see the stream past a lost batch.
              ++Stats().attempted;
              Submit(Draw(), std::move(ready));
            });
}

void Et1Node::StartInit(sim::Time restarted, bool restart,
                        std::function<void()> ready) {
  const uint64_t gen = gen_;
  const sim::Time start = sched_->Now();
  if (restart) ++Stats().recovery_attempts;
  Span span("client.Init");
  handle_->Init([this, gen, start, restarted, restart,
                 ready = std::move(ready)](Status st) mutable {
    Span cb("cb.init");
    if (Stats().shutdown || gen != gen_) return;
    Stats().init_ms.Add(Ms(sched_->Now() - start));
    if (!st.ok()) {
      if (restart) ++Stats().recovery_failures;
      sched_->After(kRetryDelay, [this, gen, restarted, restart,
                                  ready = std::move(ready)]() mutable {
        if (Stats().shutdown || gen != gen_) return;
        StartInit(restarted, restart, std::move(ready));
      });
      return;
    }
    // Every acknowledged force must survive the restart.
    if (logger_->acked_lsn() > handle_->EndOfLog()) {
      Stats().Error("client " + std::to_string(handle_->client_id()) +
                    ": acknowledged LSN " +
                    std::to_string(logger_->acked_lsn()) +
                    " beyond EndOfLog " +
                    std::to_string(handle_->EndOfLog()) + " after Init");
    }
    StartRecover(restarted, restart, std::move(ready));
  });
}

void Et1Node::StartRecover(sim::Time restarted, bool restart,
                           std::function<void()> ready) {
  const uint64_t gen = gen_;
  logger_->recovering = true;
  ++Stats().recover_calls;
  Span span("tp.Recover");
  engine_->Recover([this, gen, restarted, restart,
                    ready = std::move(ready)](Status st) mutable {
    Span cb("cb.recover");
    if (Stats().shutdown || gen != gen_) return;
    logger_->recovering = false;
    if (!st.ok()) {
      ++Stats().recover_failures;
      if (restart) {
        ++Stats().recovery_failures;
        ++Stats().recovery_attempts;
      }
      // A failed scan may have applied part of the log: start over on a
      // fresh engine.
      BuildEngine();
      sched_->After(kRetryDelay, [this, gen, restarted, restart,
                                  ready = std::move(ready)]() mutable {
        if (Stats().shutdown || gen != gen_) return;
        StartRecover(restarted, restart, std::move(ready));
      });
      return;
    }
    if (restart) {
      CheckRecovered();
      ++Stats().recoveries;
      Stats().recovery_ms.Add(Ms(sched_->Now() - restarted));
    }
    serving_ = true;
    ready();
  });
}

void Et1Node::StartArrivals() {
  if (arrivals_on_) return;
  arrivals_on_ = true;
  NextArrival();
}

void Et1Node::NextArrival() {
  const double gap_s = rng_.NextExponential(1.0 / params_.tps);
  sched_->After(sim::SecondsToDuration(gap_s), [this]() {
    Span span("harness.arrival");
    if (Stats().shutdown || !arrivals_on_) return;
    Arrive();
    NextArrival();
  });
}

Et1Node::Txn Et1Node::Draw() {
  return {static_cast<int32_t>(rng_.NextBelow(params_.bank.accounts)),
          static_cast<int16_t>(rng_.NextBelow(params_.bank.tellers)),
          static_cast<int16_t>(rng_.NextBelow(params_.bank.branches)),
          static_cast<int32_t>(rng_.NextBelow(200)) - 100};
}

void Et1Node::Arrive() {
  const Txn t = Draw();
  if (!serving_) return;  // the node is down: nothing to submit to
  RunStats& stats = Stats();
  ++stats.attempted;
  if (params_.max_backlog > 0 &&
      handle_->pending_records() > params_.max_backlog) {
    ++stats.refused;
    return;
  }
  Submit(t, nullptr);
}

void Et1Node::Submit(const Txn& t, std::function<void()> done) {
  const size_t index = history_.size();
  history_.push_back(t);
  ++inflight_;
  const uint64_t gen = gen_;
  Span span("tp.RunEt1");
  bank_->RunEt1(t.account, t.teller, t.branch, t.delta,
                [this, gen, index, done = std::move(done)](Status st) {
                  if (Stats().shutdown || gen != gen_) return;
                  --inflight_;
                  if (st.ok()) {
                    ++Stats().acked;
                    // A force covers every earlier commit record too.
                    committed_ = std::max(committed_, index + 1);
                  } else {
                    ++Stats().failed;
                    unknown_outcome_ = true;
                  }
                  if (done) done();
                });
}

void Et1Node::Crash() {
  Stats().cut_off += inflight_;
  inflight_ = 0;
  ++gen_;
  serving_ = false;
  logger_->recovering = false;
  client::LogClient& log = *handle_;
  closed_.records_sent += log.records_sent().value();
  closed_.batches_sent += log.batches_sent().value();
  closed_.resends += log.resends().value();
  closed_.forces += log.forces_completed().value();
  closed_.server_switches += log.server_switches().value();
  cluster_->CrashClient(handle_);
  engine_->Crash();
}

void Et1Node::Restart(std::function<void()> ready) {
  const sim::Time restarted = sched_->Now();
  cluster_->RestartClient(handle_);
  if (params_.workarounds) logger_->txn_tag = gen_;
  BuildEngine();
  StartInit(restarted, /*restart=*/true, std::move(ready));
}

std::vector<int64_t> Et1Node::ReadBalances() {
  const tp::BankConfig& b = params_.bank;
  std::vector<int64_t> v;
  v.reserve(static_cast<size_t>(b.accounts + b.tellers + b.branches));
  for (int i = 0; i < b.accounts; ++i) v.push_back(bank_->AccountBalance(i));
  for (int i = 0; i < b.tellers; ++i) v.push_back(bank_->TellerBalance(i));
  for (int i = 0; i < b.branches; ++i) v.push_back(bank_->BranchBalance(i));
  return v;
}

void Et1Node::Apply(std::vector<int64_t>* state, const Txn& t) const {
  const tp::BankConfig& b = params_.bank;
  (*state)[static_cast<size_t>(t.account)] += t.delta;
  (*state)[static_cast<size_t>(b.accounts + t.teller)] += t.delta;
  (*state)[static_cast<size_t>(b.accounts + b.tellers + t.branch)] +=
      t.delta;
}

// The recovered bank must equal the acknowledged commits plus a prefix,
// in issue order, of the transactions still in flight at the crash: a
// commit can be durable without having been acknowledged, but a lost
// commit record takes every later one with it.
void Et1Node::CheckRecovered() {
  const int64_t t0 = WallNs();
  const std::vector<int64_t> actual = ReadBalances();
  std::vector<int64_t> expect(actual.size(), 0);
  size_t k = 0;
  for (; k < committed_; ++k) Apply(&expect, history_[k]);
  bool matched = expect == actual;
  while (!matched && k < history_.size()) {
    Apply(&expect, history_[k++]);
    matched = expect == actual;
  }
  if (matched) {
    // Transactions past the recovered prefix are gone for good.
    history_.resize(k);
    committed_ = k;
  } else {
    Stats().Error("client " + std::to_string(handle_->client_id()) +
                  ": recovered bank matches no prefix of the " +
                  std::to_string(history_.size() - committed_) +
                  " in-flight transactions after " +
                  std::to_string(committed_) + " acknowledged ones");
  }
  if (Stats().window) Stats().check_ns += WallNs() - t0;
}

void Et1Node::FinalCheck() {
  const std::string who = "client " + std::to_string(handle_->client_id());
  if (inflight_ != 0) {
    Stats().Error(who + ": " + std::to_string(inflight_) +
                  " transactions never completed");
    return;
  }
  const int64_t accounts = bank_->TotalAccounts();
  const int64_t tellers = bank_->TotalTellers();
  const int64_t branches = bank_->TotalBranches();
  if (accounts != tellers || tellers != branches) {
    Stats().Error(who + ": account/teller/branch totals differ");
  }
  if (!unknown_outcome_) {
    int64_t expect = 0;
    for (const Txn& t : history_) expect += t.delta;
    if (expect != accounts) {
      Stats().Error(who + ": bank total " + std::to_string(accounts) +
                    " != committed total " + std::to_string(expect));
    }
  }
}

uint64_t Et1Node::Digest(uint64_t h) {
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(history_.size());
  mix(committed_);
  mix(static_cast<uint64_t>(bank_->TotalAccounts()));
  mix(handle_->EndOfLog());
  return h;
}

}  // namespace perfbench
