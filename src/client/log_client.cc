#include "client/log_client.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace dlog::client {

// Per-Init transient state, shared across the callback chain.
struct LogClient::InitState {
  std::function<void(Status)> done;
  uint64_t generation = 0;

  // Interval gather.
  int interval_ok = 0;
  int interval_fail = 0;
  bool intervals_done = false;
  std::vector<ServerInterval> intervals;

  // Epoch acquisition.
  int gen_read_ok = 0;
  int gen_read_fail = 0;
  bool gen_read_done = false;
  uint64_t gen_max = 0;
  int gen_write_ok = 0;
  int gen_write_fail = 0;
  bool gen_write_done = false;
  uint64_t gen_value = 0;

  // Recovery copy.
  Lsn high = kNoLsn;
  std::vector<Lsn> tail_lsns;
  size_t tail_cursor = 0;
  std::map<Lsn, LogRecord> tail_records;
  bool finished = false;
};

Status LogClientConfig::Validate() const {
  if (copies < 1) return Status::InvalidArgument("copies must be >= 1");
  if (servers.size() < static_cast<size_t>(copies)) {
    return Status::InvalidArgument(
        "need at least `copies` servers (N <= M)");
  }
  if (cpu_mips <= 0) {
    return Status::InvalidArgument("cpu_mips must be > 0");
  }
  if (nic_ring_slots == 0) {
    return Status::InvalidArgument("nic_ring_slots must be > 0");
  }
  if (mtu_payload == 0) {
    return Status::InvalidArgument("mtu_payload must be > 0");
  }
  if (delta == 0) {
    return Status::InvalidArgument(
        "delta must be > 0 (no unacknowledged records means no grouping)");
  }
  if (force_timeout <= 0) {
    return Status::InvalidArgument("force_timeout must be > 0");
  }
  if (force_retries < 1) {
    return Status::InvalidArgument("force_retries must be >= 1");
  }
  if (rpc_timeout <= 0) {
    return Status::InvalidArgument("rpc_timeout must be > 0");
  }
  if (rpc_attempts < 1) {
    return Status::InvalidArgument("rpc_attempts must be >= 1");
  }
  DLOG_RETURN_IF_ERROR(retry.Validate());
  DLOG_RETURN_IF_ERROR(wire.adaptive_window.Validate());
  return Status::OK();
}

void LogClient::HolderSet::Clear() {
  std::fill(words_.begin(), words_.end(), 0);
  size_ = 0;
}

LogClient::PendingRecord& LogClient::PendingWindow::Append(LogRecord record) {
  assert(empty() || record.lsn == end_lsn());
  if (count_ == slots_.size()) Grow();
  if (empty()) begin_lsn_ = record.lsn;
  PendingRecord& pr = slots_[(head_ + count_) & mask()];
  pr.record = std::move(record);
  pr.sent_to.Clear();
  pr.acked_by.Clear();
  pr.first_sent = 0;
  pr.resent = false;
  pr.retired = false;
  pr.group_span = {};
  ++count_;
  ++live_;
  return pr;
}

void LogClient::PendingWindow::Retire(Lsn lsn) {
  PendingRecord* pr = Find(lsn);
  assert(pr != nullptr);
  pr->retired = true;
  pr->record.data = {};
  --live_;
  while (count_ > 0 && slots_[head_].retired) {
    head_ = (head_ + 1) & mask();
    --count_;
    ++begin_lsn_;
  }
  assert(count_ >= live_);
}

void LogClient::PendingWindow::Clear() {
  for (size_t i = 0; i < count_; ++i) {
    slots_[(head_ + i) & mask()].record.data = {};
  }
  head_ = 0;
  count_ = 0;
  live_ = 0;
}

void LogClient::PendingWindow::Grow() {
  PendingRecord blank;
  blank.sent_to = HolderSet(holder_slots_);
  blank.acked_by = HolderSet(holder_slots_);
  std::vector<PendingRecord> grown(std::max<size_t>(8, 2 * slots_.size()),
                                   blank);
  for (size_t i = 0; i < count_; ++i) {
    grown[i] = std::move(slots_[(head_ + i) & mask()]);
  }
  slots_ = std::move(grown);
  head_ = 0;
}

LogClient::WriteSetView::WriteSetView(LogClient* client)
    : client_(client), begin_(client->write_set_stack_.size()), size_(0) {
  for (net::NodeId node : client->write_set_) {
    ServerLink* link = client->LinkOf(node);
    if (link == nullptr) continue;
    client->write_set_stack_.push_back(link);
    ++size_;
  }
}

LogClient::LogClient(sim::Scheduler* sim, const LogClientConfig& config)
    : sim_(sim),
      config_(config),
      rng_(config.seed),
      // Every link has a slot: the servers, then the generator reps
      // (Appendix I) that are not servers.
      pending_(config.servers.size() + config.generator_reps.size()),
      retry_policy_(config.retry) {
  DLOG_CHECK_OK(config.Validate());
  if (config_.generator_reps.empty()) {
    const size_t reps = std::min<size_t>(3, config_.servers.size());
    config_.generator_reps.assign(config_.servers.begin(),
                                  config_.servers.begin() + reps);
  }
  // Decentralized spreading: each client starts its rotation at a
  // different point (Section 5.4's "simple decentralized strategies").
  round_robin_cursor_ = config_.client_id;
  cpu_ = std::make_unique<sim::Cpu>(sim, config_.cpu_mips, "client-cpu");
  endpoint_ = std::make_unique<wire::Endpoint>(sim, cpu_.get(),
                                               config_.node_id,
                                               config_.wire);
  // Multicast acknowledgments arrive as datagrams from server nodes.
  endpoint_->SetDatagramHandler(
      [this](net::NodeId src, const SharedBytes& payload) {
        if (!crashed_) OnServerMessage(src, payload);
      });
}

LogClient::~LogClient() {
  if (retry_timer_ != 0) sim_->Cancel(retry_timer_);
  // Outstanding calls fail as their RpcClients go. Mark the node dead
  // first so those continuations end with Aborted, and empty links_
  // before the links die so nothing they re-enter can reach a map in
  // mid-destruction.
  crashed_ = true;
  ++generation_;
  std::map<net::NodeId, ServerLink> links = std::move(links_);
  links_.clear();
}

void LogClient::AttachNetwork(net::Network* network) {
  auto nic = std::make_unique<net::Nic>(sim_, config_.nic_ring_slots);
  network->Attach(config_.node_id, nic.get());
  endpoint_->AttachNetwork(network, nic.get());
  networks_.push_back(network);
  nics_.push_back(std::move(nic));
}

void LogClient::SetTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  trace_node_ = "client-" + std::to_string(config_.client_id);
}

void LogClient::RegisterMetrics(obs::MetricsRegistry* registry) const {
  const std::string prefix =
      "client-" + std::to_string(config_.client_id) + "/log/";
  registry->RegisterHistogram(prefix + "force_latency_ms",
                              &force_latency_ms_);
  registry->RegisterStreamingHistogram(prefix + "force_latency_us",
                                       &force_latency_us_);
  registry->RegisterCounter(prefix + "records_sent", &records_sent_);
  registry->RegisterCounter(prefix + "batches_sent", &batches_sent_);
  registry->RegisterCounter(prefix + "forces_completed",
                            &forces_completed_);
  registry->RegisterCounter(prefix + "server_switches", &server_switches_);
  registry->RegisterCounter(prefix + "resends", &resends_);
  registry->RegisterCounter(prefix + "flow/overloads_received",
                            &overloads_received_);
  registry->RegisterCounter(prefix + "flow/backoffs", &backoffs_);
  registry->RegisterCounter(prefix + "flow/retries_suppressed",
                            &retries_suppressed_);
  // The starvation rule's input: unacknowledged records at the window
  // edge. Reads 0 while crashed — a dead node is down, not starving.
  registry->RegisterCallback(prefix + "pending_records", [this]() {
    return IsUp() ? static_cast<double>(pending_.live()) : 0.0;
  });
  registry->RegisterCallback(prefix + "flow/retry_budget_tokens",
                             [this]() { return retry_policy_.tokens(); });
  // The smallest adaptive window across currently-established links: the
  // sweep's view of how hard the AIMD loop is squeezing this client.
  registry->RegisterCallback(prefix + "flow/min_window_bytes", [this]() {
    double min_window = 0.0;
    for (const auto& [node, link] : links_) {
      if (link.conn == nullptr || !link.conn->IsEstablished()) continue;
      const double w = static_cast<double>(link.conn->window_bytes());
      if (min_window == 0.0 || w < min_window) min_window = w;
    }
    return min_window;
  });
}

obs::SpanContext LogClient::ForceContext() const {
  return force_ctx_cache_;
}

wire::RpcClient::CallOptions LogClient::RpcOpts() const {
  wire::RpcClient::CallOptions opts;
  opts.timeout = config_.rpc_timeout;
  opts.max_attempts = config_.rpc_attempts;
  return opts;
}

LogClient::ServerLink* LogClient::LinkOf(net::NodeId node) {
  auto it = links_.find(node);
  return it == links_.end() ? nullptr : &it->second;
}

LogClient::ServerLink& LogClient::LinkFor(net::NodeId node) {
  ServerLink& link = links_[node];
  link.node = node;
  link.slot = SlotOf(node);
  return link;
}

uint32_t LogClient::SlotOf(net::NodeId node) const {
  const std::vector<net::NodeId>& servers = config_.servers;
  const std::vector<net::NodeId>& reps = config_.generator_reps;
  auto it = std::find(servers.begin(), servers.end(), node);
  if (it != servers.end()) return static_cast<uint32_t>(it - servers.begin());
  it = std::find(reps.begin(), reps.end(), node);
  assert(it != reps.end());
  return static_cast<uint32_t>(servers.size() + (it - reps.begin()));
}

net::NodeId LogClient::NodeOfSlot(size_t slot) const {
  const size_t servers = config_.servers.size();
  return slot < servers ? config_.servers[slot]
                        : config_.generator_reps[slot - servers];
}

void LogClient::ConnectAll() {
  for (net::NodeId node : config_.servers) EnsureConnected(&LinkFor(node));
  for (net::NodeId node : config_.generator_reps) {
    EnsureConnected(&LinkFor(node));
  }
}

void LogClient::EnsureConnected(ServerLink* link) {
  if (crashed_) return;
  if (link->conn != nullptr && !link->conn->IsClosed()) return;
  wire::Connection* conn = endpoint_->Connect(link->node);
  link->conn = conn;
  if (link->rpc == nullptr) {
    // The provider reconnects on demand, so an RPC started before a
    // server restart retries over the fresh connection.
    const net::NodeId rpc_node = link->node;
    link->rpc = std::make_unique<wire::RpcClient>(
        sim_, [this, rpc_node]() -> wire::Connection* {
          ServerLink* l = LinkOf(rpc_node);
          if (l == nullptr) return nullptr;
          EnsureConnected(l);
          return l->conn;
        });
  }
  const net::NodeId node = link->node;
  const uint64_t generation = generation_;
  conn->SetMessageHandler([this, node,
                           generation](const SharedBytes& payload) {
    if (generation != generation_) return;
    OnServerMessage(node, payload);
  });
  conn->SetCloseHandler([this, node, generation]() {
    if (generation != generation_) return;
    ServerLink* l = LinkOf(node);
    if (l != nullptr) l->conn = nullptr;  // reconnect lazily
  });
}

void LogClient::OnServerMessage(net::NodeId node,
                                const SharedBytes& payload) {
  ServerLink* link = LinkOf(node);
  if (link == nullptr) return;
  Result<wire::Envelope> env = wire::DecodeEnvelope(payload);
  if (!env.ok()) return;
  switch (env->type) {
    case wire::MessageType::kNewHighLsn: {
      Result<wire::NewHighLsnMsg> m = wire::DecodeNewHighLsn(env->body);
      if (m.ok()) {
        // A real acknowledgment means the server is admitting writes
        // again: clear any shed backoff.
        link->shed_rounds = 0;
        link->shed_until = 0;
        OnNewHighLsn(link, m->new_high_lsn);
      }
      return;
    }
    case wire::MessageType::kOverloaded: {
      Result<wire::OverloadedMsg> m = wire::DecodeOverloaded(env->body);
      if (m.ok()) OnOverloaded(link, *m);
      return;
    }
    case wire::MessageType::kMissingInterval: {
      Result<wire::MissingIntervalMsg> m =
          wire::DecodeMissingInterval(env->body);
      if (m.ok()) OnMissingInterval(link, m->low, m->high);
      return;
    }
    default:
      if (env->rpc_id != 0 && link->rpc != nullptr) {
        link->rpc->HandleResponse(*env);
      }
      return;
  }
}

// --- Write pipeline ---

Result<Lsn> LogClient::WriteLog(Bytes data) {
  if (crashed_) return Status::Aborted("client crashed");
  if (!initialized_) {
    return Status::FailedPrecondition("log client not initialized");
  }
  LogRecord record;
  record.lsn = next_lsn_;
  record.epoch = epoch_;
  record.present = true;
  record.data = std::move(data);
  bytes_buffered_ += record.data.size();
  PendingRecord& pr = pending_.Append(std::move(record));
  if (tracer_ != nullptr) {
    pr.group_span =
        tracer_->StartSpan("wal.group", trace_node_, tracer_->Current());
    tracer_->AddArg(pr.group_span, "lsn", next_lsn_);
  }
  const Lsn lsn = next_lsn_++;
  PumpSends();
  return lsn;
}

void LogClient::ForceLog(Lsn upto, std::function<void(Status)> done) {
  if (crashed_ || !initialized_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::FailedPrecondition("log client not ready"));
    });
    return;
  }
  // Records written later get LSNs above next_lsn_ - 1, so they are not
  // covered even when `upto` lies beyond the end of the log.
  forced_upto_ = std::max(forced_upto_, std::min(upto, next_lsn_ - 1));
  ForceWaiter waiter{upto, std::move(done), sim_->Now(), {}};
  if (tracer_ != nullptr) {
    waiter.span =
        tracer_->StartSpan("ForceLog", trace_node_, tracer_->Current());
    tracer_->AddArg(waiter.span, "upto", upto);
  }
  if (waiter.span.valid()) {
    force_ctx_cache_ = waiter.span;
    ++force_ctx_valid_spans_;
  }
  force_waiters_.push_back(std::move(waiter));
  PumpSends();
  ArmRetryTimer();
  CheckForceCompletion();
}

net::NodeId LogClient::PickReplacement(
    const std::set<net::NodeId>& exclude) {
  std::vector<net::NodeId> candidates;
  for (net::NodeId node : config_.servers) {
    if (exclude.count(node) > 0) continue;
    auto avoided = avoid_until_.find(node);
    if (avoided != avoid_until_.end() && avoided->second > sim_->Now()) {
      continue;
    }
    candidates.push_back(node);
  }
  if (candidates.empty()) {
    // Everyone is either in use or in the penalty box; retry deserters.
    for (net::NodeId node : config_.servers) {
      if (exclude.count(node) == 0) candidates.push_back(node);
    }
  }
  if (candidates.empty()) return 0;
  switch (config_.policy) {
    case SelectionPolicy::kStickyFailover:
      // Sticky thereafter, but the starting point is spread by client id
      // so a population of clients does not pile onto the same servers.
      return candidates[config_.client_id % candidates.size()];
    case SelectionPolicy::kRoundRobin: {
      const net::NodeId pick =
          candidates[round_robin_cursor_ % candidates.size()];
      ++round_robin_cursor_;
      return pick;
    }
    case SelectionPolicy::kRandom:
      return candidates[rng_.NextBelow(candidates.size())];
    case SelectionPolicy::kLeastQueued: {
      net::NodeId best = candidates.front();
      size_t best_depth = ~size_t{0};
      for (net::NodeId node : candidates) {
        ServerLink* link = LinkOf(node);
        const size_t depth =
            (link != nullptr && link->conn != nullptr)
                ? link->conn->send_queue_depth()
                : 0;
        if (depth < best_depth) {
          best_depth = depth;
          best = node;
        }
      }
      return best;
    }
  }
  return candidates.front();
}

void LogClient::ChooseWriteSet() {
  // Full house (the common case, hit once per PumpSends): nothing to do,
  // and no exclusion set to build.
  if (write_set_.size() >= static_cast<size_t>(config_.copies)) return;
  std::set<net::NodeId> members(write_set_.begin(), write_set_.end());
  while (write_set_.size() < static_cast<size_t>(config_.copies)) {
    const net::NodeId pick = PickReplacement(members);
    if (pick == 0) break;
    members.insert(pick);
    write_set_.push_back(pick);
    ServerLink& link = LinkFor(pick);
    link.in_write_set = true;
    EnsureConnected(&link);
    JoinWriteSetMember(pick);
    // A server joining mid-stream needs a NewInterval announcement unless
    // its stream is already contiguous with what we will send next.
    const Lsn first = pending_.empty() ? next_lsn_ : pending_.begin_lsn();
    if (link.sent_high != first - 1) {
      wire::NewIntervalMsg msg{config_.client_id, epoch_, first};
      if (link.conn != nullptr) link.conn->Send(wire::EncodeNewInterval(msg));
      link.sent_high = first - 1;
    }
  }
}

size_t LogClient::UnackedSentRecords() const {
  return unacked_sent_records_;
}

void LogClient::JoinWriteSetMember(net::NodeId node) {
  if (!config_.multicast_writes) return;
  for (net::Network* network : networks_) {
    network->JoinGroup(Group(), node);
  }
}

void LogClient::LeaveWriteSetMember(net::NodeId node) {
  if (!config_.multicast_writes) return;
  for (net::Network* network : networks_) {
    network->LeaveGroup(Group(), node);
  }
}

void LogClient::PumpSends() {
  if (crashed_ || !initialized_) return;
  ChooseWriteSet();
  WriteSetView ws(this);
  if (config_.multicast_writes) {
    // The multicast stream restarts from the lowest per-server position,
    // so a server that just joined catches up from the group stream;
    // redelivery to servers already ahead is idempotent.
    for (size_t i = 0; i < ws.size(); ++i) EnsureConnected(ws[i]);
    StreamMulticast();
    return;
  }
  for (size_t i = 0; i < ws.size(); ++i) {
    EnsureConnected(ws[i]);
    StreamTo(ws[i]);
  }
}

obs::SpanContext LogClient::FillBatch(Lsn first, Lsn end,
                                      std::span<ServerLink* const> links,
                                      wire::RecordBatch* msg) {
  msg->client = config_.client_id;
  msg->epoch = epoch_;
  msg->records.reserve(end - first);
  obs::SpanContext send_parent;
  for (Lsn lsn = first; lsn < end; ++lsn) {
    PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr) continue;
    if (pr->first_sent == 0) {
      pr->first_sent = sim_->Now();
      if (tracer_ != nullptr) tracer_->EndSpan(pr->group_span);
    } else if (pr->first_sent != sim_->Now()) {
      pr->resent = true;
    }
    if (!send_parent.valid()) send_parent = pr->group_span;
    if (pr->sent_to.empty()) ++unacked_sent_records_;
    for (ServerLink* link : links) {
      pr->sent_to.Insert(link->slot);
      link->sent_high = std::max(link->sent_high, lsn);
    }
    msg->records.push_back(pr->record);
    records_sent_.Increment();
  }
  return send_parent;
}

void LogClient::StreamMulticast() {
  WriteSetView ws(this);
  if (ws.size() < static_cast<size_t>(config_.copies)) return;
  // The group stream reaches every member; while any of them is in a
  // shed backoff the whole stream waits (the backoff wakeup re-pumps).
  for (size_t i = 0; i < ws.size(); ++i) {
    if (InShedBackoff(*ws[i])) return;
  }

  Lsn frontier = ~Lsn{0};
  for (size_t i = 0; i < ws.size(); ++i) {
    frontier = std::min(frontier, ws[i]->sent_high);
  }

  Lsn force_upto = kNoLsn;
  for (const ForceWaiter& w : force_waiters_) {
    force_upto = std::max(force_upto, w.upto);
  }

  // The batch being packed: the pending records in [batch_first,
  // batch_end).
  Lsn batch_first = kNoLsn;
  Lsn batch_end = kNoLsn;
  size_t batch_records = 0;
  size_t batch_bytes = wire::RecordBatchOverhead();
  bool batch_forced = false;
  bool sent_forced_batch = false;
  size_t unacked_sent = UnackedSentRecords();

  auto commit_batch = [&]() {
    wire::RecordBatch msg;
    obs::SpanContext send_parent =
        FillBatch(batch_first, batch_end, ws.links(), &msg);
    batch_records = 0;
    const wire::MessageType type = batch_forced
                                       ? wire::MessageType::kForceLog
                                       : wire::MessageType::kWriteLog;
    if (batch_forced) sent_forced_batch = true;
    if (tracer_ != nullptr) {
      if (batch_forced && ForceContext().valid()) {
        send_parent = ForceContext();
      }
      obs::SpanContext send =
          tracer_->StartSpan("wire.send", trace_node_, send_parent);
      tracer_->AddArg(send, "group", Group());
      tracer_->AddArg(send, "records", msg.records.size());
      msg.trace = send.trace;
      msg.span = send.span;
    }
    endpoint_->SendDatagram(Group(), wire::EncodeRecordBatch(type, msg),
                            msg.trace, msg.span);
    batches_sent_.Increment();
    batch_bytes = wire::RecordBatchOverhead();
    batch_forced = false;
  };

  for (Lsn lsn = std::max(frontier + 1, pending_.begin_lsn());
       lsn < pending_.end_lsn(); ++lsn) {
    PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr) continue;
    if (pr->sent_to.empty() && unacked_sent >= config_.delta) break;
    const size_t cost = wire::EncodedRecordSize(pr->record);
    if (batch_bytes + cost > config_.mtu_payload && batch_records > 0) {
      commit_batch();
    }
    if (pr->sent_to.empty()) ++unacked_sent;
    if (batch_records++ == 0) batch_first = lsn;
    batch_end = lsn + 1;
    batch_bytes += cost;
    batch_forced = batch_forced || IsForced(lsn);
  }
  if (batch_records > 0 &&
      (batch_forced || batch_bytes + 64 >= config_.mtu_payload)) {
    commit_batch();
  }

  if (sent_forced_batch) {
    for (size_t i = 0; i < ws.size(); ++i) {
      ws[i]->force_ping_high = std::max(ws[i]->force_ping_high, force_upto);
    }
    return;
  }
  // A force of already-streamed records: one unicast ping per lagging
  // server (they ack individually anyway).
  for (size_t i = 0; i < ws.size(); ++i) {
    ServerLink* link = ws[i];
    if (force_upto != kNoLsn && link->acked_high < force_upto &&
        link->sent_high >= force_upto &&
        link->force_ping_high < force_upto && link->conn != nullptr) {
      link->force_ping_high = force_upto;
      wire::RecordBatch ping;
      ping.client = config_.client_id;
      ping.epoch = epoch_;
      if (tracer_ != nullptr) {
        obs::SpanContext send =
            tracer_->StartSpan("wire.send", trace_node_, ForceContext());
        tracer_->AddArg(send, "server", link->node);
        ping.trace = send.trace;
        ping.span = send.span;
      }
      link->conn->Send(
          wire::EncodeRecordBatch(wire::MessageType::kForceLog, ping),
          ping.trace, ping.span);
    }
  }
}

void LogClient::StreamTo(ServerLink* link) {
  if (link->conn == nullptr) return;
  // A shed server gets no new batches until its backoff expires (the
  // OnOverloaded wakeup re-pumps).
  if (InShedBackoff(*link)) return;

  // Is there an outstanding force this link has not yet acknowledged?
  Lsn force_upto = kNoLsn;
  for (const ForceWaiter& w : force_waiters_) {
    force_upto = std::max(force_upto, w.upto);
  }

  // Grouping (Section 4.1): records stay in the client buffer until a
  // force covers them or a full packet's worth has accumulated, so that
  // "log records [are] stored on a client node until they are explicitly
  // forced by the recovery manager". The batch being packed holds the
  // pending records in [batch_first, batch_end).
  Lsn batch_first = kNoLsn;
  Lsn batch_end = kNoLsn;
  size_t batch_records = 0;
  size_t batch_bytes = wire::RecordBatchOverhead();
  bool batch_forced = false;
  size_t unacked_sent = UnackedSentRecords();

  bool sent_forced_batch = false;
  auto commit_batch = [&]() {
    wire::RecordBatch msg;
    obs::SpanContext send_parent =
        FillBatch(batch_first, batch_end, {&link, 1}, &msg);
    batch_records = 0;
    const wire::MessageType type = batch_forced
                                       ? wire::MessageType::kForceLog
                                       : wire::MessageType::kWriteLog;
    if (batch_forced) sent_forced_batch = true;
    if (tracer_ != nullptr) {
      if (batch_forced && ForceContext().valid()) {
        send_parent = ForceContext();
      }
      obs::SpanContext send =
          tracer_->StartSpan("wire.send", trace_node_, send_parent);
      tracer_->AddArg(send, "server", link->node);
      tracer_->AddArg(send, "records", msg.records.size());
      msg.trace = send.trace;
      msg.span = send.span;
    }
    link->conn->Send(wire::EncodeRecordBatch(type, msg), msg.trace,
                     msg.span);
    batches_sent_.Increment();
    batch_bytes = wire::RecordBatchOverhead();
    batch_forced = false;
  };

  for (Lsn lsn = std::max(link->sent_high + 1, pending_.begin_lsn());
       lsn < pending_.end_lsn(); ++lsn) {
    PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr) continue;
    // δ bound: throttle first-time sends so that at most `delta` records
    // can ever be partially written.
    if (pr->sent_to.empty() && unacked_sent >= config_.delta) break;
    const size_t cost = wire::EncodedRecordSize(pr->record);
    if (batch_bytes + cost > config_.mtu_payload && batch_records > 0) {
      commit_batch();
    }
    if (pr->sent_to.empty()) ++unacked_sent;
    if (batch_records++ == 0) batch_first = lsn;
    batch_end = lsn + 1;
    batch_bytes += cost;
    batch_forced = batch_forced || IsForced(lsn);
  }
  if (batch_records > 0) {
    // A trailing partial packet goes out only when a force needs it;
    // otherwise those records keep buffering.
    if (batch_forced) {
      commit_batch();
    } else if (batch_bytes + 64 >= config_.mtu_payload) {
      commit_batch();
    }
  }

  // A force of already-streamed records still needs an acknowledgment:
  // prod the server with one empty ForceLog per force point (the retry
  // timer re-prods if the ack is lost).
  if (sent_forced_batch) {
    // The forced data batch itself elicits the acknowledgment.
    link->force_ping_high = std::max(link->force_ping_high, force_upto);
    return;
  }
  if (force_upto != kNoLsn && link->acked_high < force_upto &&
      link->sent_high >= force_upto &&
      link->force_ping_high < force_upto) {
    link->force_ping_high = force_upto;
    wire::RecordBatch ping;
    ping.client = config_.client_id;
    ping.epoch = epoch_;
    if (tracer_ != nullptr) {
      obs::SpanContext send =
          tracer_->StartSpan("wire.send", trace_node_, ForceContext());
      tracer_->AddArg(send, "server", link->node);
      ping.trace = send.trace;
      ping.span = send.span;
    }
    link->conn->Send(
        wire::EncodeRecordBatch(wire::MessageType::kForceLog, ping),
        ping.trace, ping.span);
  }
}

void LogClient::OnNewHighLsn(ServerLink* link, Lsn high) {
  link->acked_high = std::max(link->acked_high, high);
  // The newest record this ack covers for the first time times the
  // round trip of the send that elicited it. A record it brings to N
  // acknowledgments retires at once, whatever its place in the window.
  bool acked_any = false;
  sim::Time newest_sent = 0;
  bool newest_resent = false;
  const Lsn end =
      high < pending_.end_lsn() ? high + 1 : pending_.end_lsn();
  for (Lsn lsn = pending_.begin_lsn(); lsn < end; ++lsn) {
    PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr || !pr->sent_to.Contains(link->slot) ||
        !pr->acked_by.Insert(link->slot)) {
      continue;
    }
    acked_any = true;
    newest_sent = pr->first_sent;
    newest_resent = pr->resent;
    if (pr->acked_by.size() >= static_cast<size_t>(config_.copies)) {
      RetireRecord(lsn, *pr);
    }
  }
  if (acked_any) {
    link->silent_rounds = 0;
    // Karn's rule: a resent record's ack is ambiguous. A server that was
    // switched away from no longer sets the round, so its late acks are
    // not sampled either.
    if (!newest_resent && link->in_write_set) {
      link->ack_time.Add(sim_->Now() - newest_sent);
    }
    CheckForceCompletion();
    PumpSends();  // δ slots may have freed up
  }
}

void LogClient::RttEstimate::Add(sim::Duration sample) {
  if (!sampled) {
    sampled = true;
    srtt = sample;
    rttvar = sample / 2;
    return;
  }
  const sim::Duration error = srtt > sample ? srtt - sample : sample - srtt;
  rttvar = (3 * rttvar + error) / 4;
  srtt = (7 * srtt + sample) / 8;
}

sim::Duration LogClient::RetryRound() const {
  if (write_set_.empty()) return config_.force_timeout;
  sim::Duration round = kMinForceRound;
  for (net::NodeId node : write_set_) {
    auto it = links_.find(node);
    if (it == links_.end() || !it->second.ack_time.sampled) {
      return config_.force_timeout;
    }
    const RttEstimate& ack = it->second.ack_time;
    round = std::max(round, ack.srtt + 4 * ack.rttvar);
  }
  return std::min(round, config_.force_timeout);
}

bool LogClient::InShedBackoff(const ServerLink& link) const {
  return link.shed_until > sim_->Now();
}

void LogClient::OnOverloaded(ServerLink* link,
                             const wire::OverloadedMsg& msg) {
  if (crashed_ || !initialized_) return;
  overloads_received_.Increment();
  if (config_.retry.enabled) {
    // Squeeze the transport window too: stop injecting before the
    // server's queue grows, not after.
    if (link->conn != nullptr) link->conn->NoteOverload();
    const sim::Duration backoff =
        retry_policy_.BackoffFor(link->shed_rounds, &rng_);
    ++link->shed_rounds;
    const sim::Duration hint = msg.retry_after_us * sim::kMicrosecond;
    const sim::Duration wait = std::max(backoff, hint);
    link->shed_until = sim_->Now() + wait;
    // The server dropped what it had not stored: the wakeup below
    // re-streams from its stored high instead of leaving the shed
    // records to the budgeted retry rounds.
    link->sent_high =
        std::min(link->sent_high, std::max(msg.high_lsn, link->acked_high));
    backoffs_.Increment();
    if (tracer_ != nullptr) {
      // Root the instant when no force is being traced: backoffs usually
      // interrupt background streaming.
      const obs::SpanContext parent = ForceContext();
      obs::SpanContext instant =
          parent.valid()
              ? tracer_->Instant("flow.backoff", trace_node_, parent)
              : tracer_->StartTrace("flow.backoff", trace_node_);
      tracer_->AddArg(instant, "server", link->node);
      tracer_->AddArg(instant, "wait_us", wait / sim::kMicrosecond);
      tracer_->EndSpan(instant);
    }
    const uint64_t generation = generation_;
    sim_->After(wait, [this, generation]() {
      if (generation != generation_ || crashed_ || !initialized_) return;
      PumpSends();
    });
  }
  // The reply carries the server's stored high LSN: progress the shed
  // server *did* make keeps counting toward N copies while we back off
  // (shed != down — N-of-M accounting must not regress).
  if (msg.high_lsn != kNoLsn) OnNewHighLsn(link, msg.high_lsn);
}

void LogClient::RetireRecord(Lsn lsn, PendingRecord& pr) {
  retire_holders_.clear();
  pr.acked_by.ForEach(
      [&](size_t slot) { retire_holders_.push_back(NodeOfSlot(slot)); });
  // Sorted here, in the reused buffer, the list needs no copy in the view.
  std::sort(retire_holders_.begin(), retire_holders_.end());
  view_.NoteWrite(lsn, pr.record.epoch, retire_holders_);
  bytes_buffered_ -= pr.record.data.size();
  if (!pr.sent_to.empty()) --unacked_sent_records_;
  pending_.Retire(lsn);
}

void LogClient::CheckForceCompletion() {
  // Complete force waiters whose range is fully durable: the oldest
  // pending record lies above it.
  while (!force_waiters_.empty()) {
    ForceWaiter& w = force_waiters_.front();
    if (!pending_.empty() && pending_.begin_lsn() <= w.upto) break;
    force_latency_ms_.Add(sim::DurationToSeconds(sim_->Now() - w.started) *
                          1e3);
    force_latency_us_.Record((sim_->Now() - w.started) / sim::kMicrosecond);
    forces_completed_.Increment();
    if (tracer_ != nullptr) tracer_->EndSpan(w.span);
    if (w.span.valid() && --force_ctx_valid_spans_ == 0) {
      force_ctx_cache_ = {};
    }
    auto done = std::move(w.done);
    force_waiters_.pop_front();
    done(Status::OK());
  }
  if (force_waiters_.empty() && retry_timer_ != 0) {
    sim_->Cancel(retry_timer_);
    retry_timer_ = 0;
  }
}

void LogClient::OnMissingInterval(ServerLink* link, Lsn low, Lsn high) {
  if (crashed_ || !initialized_ || link->conn == nullptr) return;
  // Records the server never saw: resend the ones still pending; announce
  // a new interval past anything already durable elsewhere.
  const Lsn end =
      high < pending_.end_lsn() ? high + 1 : pending_.end_lsn();
  Lsn first_pending = std::max(low, pending_.begin_lsn());
  while (first_pending < end && pending_.Find(first_pending) == nullptr) {
    ++first_pending;
  }
  if (first_pending >= end) {
    // Everything missing is durable on other servers.
    wire::NewIntervalMsg msg{config_.client_id, epoch_, high + 1};
    link->conn->Send(wire::EncodeNewInterval(msg));
    link->sent_high = std::max(link->sent_high, high);
    StreamTo(link);
    return;
  }
  if (first_pending > low) {
    // The prefix of the gap is durable elsewhere; skip the server past it.
    wire::NewIntervalMsg msg{config_.client_id, epoch_, first_pending};
    link->conn->Send(wire::EncodeNewInterval(msg));
  }
  // Resend the pending remainder of the gap as a force.
  wire::RecordBatch batch;
  batch.client = config_.client_id;
  batch.epoch = epoch_;
  batch.records.reserve(end - first_pending);
  for (Lsn lsn = first_pending; lsn < end; ++lsn) {
    PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr) continue;
    if (pr->sent_to.empty()) ++unacked_sent_records_;
    pr->sent_to.Insert(link->slot);
    pr->resent = true;
    batch.records.push_back(pr->record);
  }
  resends_.Increment();
  if (tracer_ != nullptr) {
    obs::SpanContext send =
        tracer_->StartSpan("wire.send", trace_node_, ForceContext());
    tracer_->AddArg(send, "server", link->node);
    tracer_->AddArg(send, "records", batch.records.size());
    batch.trace = send.trace;
    batch.span = send.span;
  }
  link->conn->Send(
      wire::EncodeRecordBatch(wire::MessageType::kForceLog, batch),
      batch.trace, batch.span);
}

void LogClient::ArmRetryTimer() {
  if (retry_timer_ != 0 || crashed_) return;
  const uint64_t generation = generation_;
  retry_timer_ = sim_->After(RetryRound(), [this, generation]() {
    if (generation != generation_) return;
    retry_timer_ = 0;
    OnRetryTimer();
  });
}

void LogClient::OnRetryTimer() {
  if (crashed_ || !initialized_ || force_waiters_.empty()) return;
  // Per write-set server: any forced record sent there but unacked?
  std::vector<ServerLink*> to_switch;
  WriteSetView ws(this);
  for (size_t i = 0; i < ws.size(); ++i) {
    ServerLink* link = ws[i];
    // Progress is measured from the previous expiry, so acks that came in
    // while the timer was idle count for the round a force starts in.
    const bool progressed = link->acked_high > link->acked_at_last_round;
    link->acked_at_last_round = link->acked_high;
    if (InShedBackoff(*link)) {
      // Shed, not dead: the backoff wakeup resumes this link. Counting
      // these rounds as silence would churn write sets under overload.
      continue;
    }
    bool lagging = false;
    for (Lsn lsn = pending_.begin_lsn();
         lsn < pending_.end_lsn() && IsForced(lsn); ++lsn) {
      const PendingRecord* pr = pending_.Find(lsn);
      if (pr != nullptr && pr->sent_to.Contains(link->slot) &&
          !pr->acked_by.Contains(link->slot)) {
        lagging = true;
        break;
      }
    }
    if (!lagging || progressed) {
      // Caught up, or still acking and just slow: no resend.
      link->silent_rounds = 0;
      continue;
    }
    if (++link->silent_rounds > config_.force_retries) {
      to_switch.push_back(link);
      continue;
    }
    // "If it uses the ForceLog message and does not get a response, it
    // retries a number of times before moving to a different server."
    EnsureConnected(link);
    if (link->conn == nullptr) continue;
    // The token bucket bounds the retry rate so resends cannot amplify
    // an overload; the next timer round tries again. (MissingInterval
    // gap repair is a correctness path and stays unbudgeted.)
    if (config_.retry.enabled &&
        !retry_policy_.TryAcquireRetryToken(sim_->Now())) {
      retries_suppressed_.Increment();
      continue;
    }
    wire::RecordBatch batch;
    batch.client = config_.client_id;
    batch.epoch = epoch_;
    size_t bytes = wire::RecordBatchOverhead();
    for (Lsn lsn = pending_.begin_lsn(); lsn < pending_.end_lsn(); ++lsn) {
      PendingRecord* pr = pending_.Find(lsn);
      if (pr == nullptr || !pr->sent_to.Contains(link->slot)) continue;
      if (pr->acked_by.Contains(link->slot)) continue;
      const size_t cost = wire::EncodedRecordSize(pr->record);
      if (bytes + cost > config_.mtu_payload) break;
      pr->resent = true;
      batch.records.push_back(pr->record);
      bytes += cost;
    }
    resends_.Increment();
    if (tracer_ != nullptr) {
      obs::SpanContext send =
          tracer_->StartSpan("wire.send", trace_node_, ForceContext());
      tracer_->AddArg(send, "server", link->node);
      tracer_->AddArg(send, "records", batch.records.size());
      batch.trace = send.trace;
      batch.span = send.span;
    }
    link->conn->Send(
        wire::EncodeRecordBatch(wire::MessageType::kForceLog, batch),
        batch.trace, batch.span);
  }
  for (ServerLink* link : to_switch) SwitchAwayFrom(link);
  PumpSends();
  ArmRetryTimer();
}

void LogClient::SwitchAwayFrom(ServerLink* link) {
  // "Clients will simply assume that the server has failed and will take
  // their logging elsewhere."
  link->in_write_set = false;
  link->silent_rounds = 0;
  link->ack_time = {};  // stale by the time the server is re-chosen
  write_set_.erase(
      std::remove(write_set_.begin(), write_set_.end(), link->node),
      write_set_.end());
  LeaveWriteSetMember(link->node);
  avoid_until_[link->node] = sim_->Now() + config_.server_retry_backoff;
  server_switches_.Increment();
  // Unacked records sent to the deserter still need N copies; make them
  // eligible for the replacement by dropping the deserter's claim. (Acks
  // it already gave still count.)
  ChooseWriteSet();  // fills the vacancy and announces NewInterval
}

Lsn LogClient::TruncateLog(Lsn below) {
  if (crashed_ || !initialized_) return kNoLsn;
  // Keep the most recent δ records (the restart recovery procedure reads
  // and re-copies them) and anything still awaiting replication.
  const Lsn durable_end =
      pending_.empty() ? next_lsn_ - 1 : pending_.begin_lsn() - 1;
  const Lsn keep_from =
      durable_end > config_.delta ? durable_end - config_.delta : kNoLsn;
  below = std::min(below, keep_from + 1);
  if (below <= 1) return kNoLsn;

  wire::TruncateLogMsg msg{config_.client_id, below};
  const Bytes encoded = wire::EncodeTruncateLog(msg);
  for (net::NodeId node : config_.servers) {
    ServerLink* link = LinkOf(node);
    if (link == nullptr) continue;
    EnsureConnected(link);
    if (link->conn != nullptr) link->conn->Send(encoded);
  }
  view_.TruncateBelow(below);
  read_cache_.erase(read_cache_.begin(), read_cache_.lower_bound(below));
  return below;
}

// --- Recovery copies ---

namespace {

/// The outcome of a CopyLog or InstallCopies reply. An explicit shed is
/// not "server down": it reports Overloaded, so the caller backs off
/// instead of treating the cluster as unavailable.
template <typename Decode>
Status CopyReplyStatus(const Result<wire::Envelope>& env, Decode decode,
                       const std::string& call) {
  if (env.ok()) {
    auto resp = decode(env->body);
    if (resp.ok() && resp->status == wire::RpcStatus::kOk) return Status::OK();
    if (resp.ok() && resp->status == wire::RpcStatus::kOverloaded) {
      return Status::Overloaded(call + " shed by server");
    }
  }
  return Status::Unavailable(call + " failed");
}

}  // namespace

struct LogClient::CopyState {
  uint64_t generation = 0;
  std::vector<LogRecord> copies;
  std::vector<net::NodeId> targets;
  size_t copy_calls = 0;
  size_t copy_acks = 0;
  size_t install_acks = 0;
  bool finished = false;
  std::function<void(Status)> done;

  void Finish(Status status) {
    finished = true;
    done(std::move(status));
  }
};

void LogClient::CopyToTargets(std::vector<LogRecord> copies,
                              std::vector<net::NodeId> targets,
                              std::function<void(Status)> done) {
  auto st = std::make_shared<CopyState>();
  st->generation = generation_;
  st->copies = std::move(copies);
  st->targets = std::move(targets);
  st->done = std::move(done);
  // Each CopyLog call must fit in a network packet.
  std::vector<std::vector<LogRecord>> chunks;
  size_t bytes = wire::RecordBatchOverhead();
  for (const LogRecord& r : st->copies) {
    const size_t cost = wire::EncodedRecordSize(r);
    if (chunks.empty() || bytes + cost > config_.mtu_payload) {
      chunks.emplace_back();
      bytes = wire::RecordBatchOverhead();
    }
    chunks.back().push_back(r);
    bytes += cost;
  }
  st->copy_calls = chunks.size() * st->targets.size();
  for (net::NodeId node : st->targets) {
    ServerLink& link = LinkFor(node);
    EnsureConnected(&link);
    for (const std::vector<LogRecord>& chunk : chunks) {
      wire::CopyLogReq req{config_.client_id, epoch_, chunk};
      link.rpc->Call(
          [req](uint64_t id) { return wire::EncodeCopyLogReq(req, id); },
          RpcOpts(), [this, st](Result<wire::Envelope> env) {
            if (st->generation != generation_ || st->finished) return;
            Status status =
                CopyReplyStatus(env, wire::DecodeCopyLogResp, "CopyLog");
            if (!status.ok()) {
              st->Finish(std::move(status));
            } else if (++st->copy_acks == st->copy_calls) {
              InstallStaged(st);
            }
          });
    }
  }
}

void LogClient::InstallStaged(std::shared_ptr<CopyState> st) {
  for (net::NodeId node : st->targets) {
    wire::InstallCopiesReq req{config_.client_id, epoch_};
    LinkOf(node)->rpc->Call(
        [req](uint64_t id) { return wire::EncodeInstallCopiesReq(req, id); },
        RpcOpts(), [this, st](Result<wire::Envelope> env) {
          if (st->generation != generation_ || st->finished) return;
          Status status = CopyReplyStatus(env, wire::DecodeInstallCopiesResp,
                                          "InstallCopies");
          if (!status.ok()) {
            st->Finish(std::move(status));
            return;
          }
          if (++st->install_acks < st->targets.size()) return;
          for (const LogRecord& r : st->copies) {
            view_.NoteWrite(r.lsn, r.epoch, st->targets);
          }
          st->Finish(Status::OK());
        });
  }
}

// --- Media repair ---

struct LogClient::RepairState {
  uint64_t generation = 0;
  std::function<void(Status)> done;
  bool finished = false;

  // Interval gather.
  int responses = 0;
  int failures = 0;
  bool gathered = false;
  std::vector<ServerInterval> intervals;

  // Segments needing repair, processed sequentially.
  struct Work {
    Lsn low = kNoLsn;
    Lsn high = kNoLsn;
    std::vector<ServerId> holders;
    int missing = 0;
  };
  std::deque<Work> queue;
  // Current segment progress.
  std::vector<LogRecord> records;
  Lsn cursor = kNoLsn;
  std::vector<net::NodeId> targets;
  bool partial = false;  // some segment could not be repaired
  /// A failure was an explicit server shed (RpcStatus::kOverloaded), not
  /// absence: report Overloaded so the caller backs off instead of
  /// treating the cluster as down.
  bool overloaded = false;
};

void LogClient::RepairLog(std::function<void(Status)> done) {
  if (crashed_ || !initialized_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::FailedPrecondition("log client not ready"));
    });
    return;
  }
  auto st = std::make_shared<RepairState>();
  st->generation = generation_;
  st->done = std::move(done);

  // Step 1: gather fresh interval lists from every server.
  const int m = static_cast<int>(config_.servers.size());
  for (net::NodeId node : config_.servers) {
    ServerLink& link = LinkFor(node);
    EnsureConnected(&link);
    wire::IntervalListReq req{config_.client_id};
    link.rpc->Call(
        [req](uint64_t id) { return wire::EncodeIntervalListReq(req, id); },
        RpcOpts(), [this, st, node, m](Result<wire::Envelope> env) {
          if (st->generation != generation_ || st->finished ||
              st->gathered) {
            return;
          }
          bool ok = false;
          if (env.ok()) {
            auto resp = wire::DecodeIntervalListResp(env->body);
            if (resp.ok() && resp->status == wire::RpcStatus::kOk) {
              ok = true;
              for (const Interval& iv : resp->intervals) {
                st->intervals.push_back(ServerInterval{node, iv});
              }
            }
          }
          ok ? ++st->responses : ++st->failures;
          if (st->responses + st->failures < m) return;
          st->gathered = true;
          if (st->responses < m - config_.copies + 1) {
            st->finished = true;
            st->done(Status::Unavailable(
                "fewer than M-N+1 servers answered the repair survey"));
            return;
          }
          // Step 2: find under-replicated segments.
          MergedLogView survey = MergedLogView::Build(st->intervals);
          for (const MergedLogView::Segment& seg : survey.segments()) {
            if (static_cast<int>(seg.servers.size()) >= config_.copies) {
              continue;
            }
            RepairState::Work work;
            work.low = seg.low;
            work.high = seg.high;
            work.holders = seg.servers;
            work.missing =
                config_.copies - static_cast<int>(seg.servers.size());
            st->queue.push_back(std::move(work));
          }
          RepairNextSegment(st);
        });
  }
}

void LogClient::RepairNextSegment(std::shared_ptr<RepairState> st) {
  if (st->generation != generation_ || st->finished) return;
  if (st->queue.empty()) {
    st->finished = true;
    if (!st->partial) {
      st->done(Status::OK());
    } else if (st->overloaded) {
      st->done(Status::Overloaded(
          "repair shed by overloaded servers; retry after backoff"));
    } else {
      st->done(Status::Unavailable("some records could not be re-replicated"));
    }
    return;
  }
  // Step 3: choose repair targets, servers that do not hold the segment,
  // then read the segment from its holders and copy it to them.
  const RepairState::Work& work = st->queue.front();
  st->targets.clear();
  for (net::NodeId node : config_.servers) {
    if (static_cast<int>(st->targets.size()) >= work.missing) break;
    if (std::find(work.holders.begin(), work.holders.end(), node) ==
        work.holders.end()) {
      st->targets.push_back(node);
    }
  }
  if (static_cast<int>(st->targets.size()) < work.missing) {
    EndRepairSegment(std::move(st), Status::Unavailable("no repair target"));
    return;
  }
  st->records.clear();
  st->cursor = work.low;
  RepairRead(std::move(st));
}

void LogClient::RepairRead(std::shared_ptr<RepairState> st) {
  const Lsn high = st->queue.front().high;
  if (st->cursor <= high) {
    ReadRun(st->cursor, [this, st, high](Result<std::vector<LogRecord>> run) {
      if (st->generation != generation_ || st->finished) return;
      if (!run.ok()) {
        EndRepairSegment(st, run.status());
        return;
      }
      for (LogRecord& r : *run) {
        if (r.lsn > high) break;
        st->cursor = r.lsn + 1;
        st->records.push_back(std::move(r));
      }
      RepairRead(st);
    });
    return;
  }
  // All records read: copy them, re-stamped with the current epoch.
  std::vector<LogRecord> copies = std::move(st->records);
  for (LogRecord& r : copies) r.epoch = epoch_;
  CopyToTargets(std::move(copies), st->targets, [this, st](Status status) {
    if (st->generation != generation_ || st->finished) return;
    EndRepairSegment(st, status);
  });
}

void LogClient::EndRepairSegment(std::shared_ptr<RepairState> st,
                                 const Status& status) {
  if (!status.ok()) {
    st->partial = true;
    if (status.IsOverloaded()) st->overloaded = true;
  }
  st->queue.pop_front();
  RepairNextSegment(std::move(st));
}

// --- Reads ---

void LogClient::ReadLog(Lsn lsn, std::function<void(Result<Bytes>)> done) {
  if (crashed_ || !initialized_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::FailedPrecondition("log client not ready"));
    });
    return;
  }
  if (lsn == kNoLsn || lsn >= next_lsn_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::OutOfRange("beyond end of log"));
    });
    return;
  }
  // Reads scan forward (restart recovery reads each record once), so
  // cached records below this one are done with; dropping them also
  // frees the reply packets they keep alive.
  read_cache_.erase(read_cache_.begin(), read_cache_.lower_bound(lsn));
  // Locally buffered or cached records need no server round trip (the
  // paper's Section 5.2 motivation: aborts read from the client cache).
  if (const PendingRecord* pr = pending_.Find(lsn); pr != nullptr) {
    // User-facing materialization: reads hand back an owned copy.
    Bytes data = pr->record.data.ToBytes();
    sim_->After(0, [done = std::move(done), data = std::move(data)]() {
      done(data);
    });
    return;
  }
  auto cit = read_cache_.find(lsn);
  if (cit != read_cache_.end()) {
    const LogRecord& rec = cit->second;
    Result<Bytes> result =
        rec.present ? Result<Bytes>(rec.data.ToBytes())
                    : Result<Bytes>(
                          Status::NotFound("record marked not present"));
    sim_->After(0,
                [done = std::move(done), result = std::move(result)]() {
                  done(result);
                });
    return;
  }

  ReadRun(lsn, [this, done = std::move(done)](
                   Result<std::vector<LogRecord>> run) {
    if (!run.ok()) {
      done(run.status());
      return;
    }
    const LogRecord& rec = run->front();
    Result<Bytes> result =
        rec.present
            ? Result<Bytes>(rec.data.ToBytes())
            : Result<Bytes>(Status::NotFound("record marked not present"));
    // Cache the packed extra records for future reads. Scans move
    // forward, so a full cache gives up its lowest LSNs.
    for (LogRecord& r : *run) {
      read_cache_[r.lsn] = std::move(r);
      if (read_cache_.size() > kReadCacheRecords) {
        read_cache_.erase(read_cache_.begin());
      }
    }
    done(std::move(result));
  });
}

struct LogClient::ReadRunState {
  Lsn lsn = kNoLsn;
  uint64_t generation = 0;
  std::vector<net::NodeId> order;
  size_t next = 0;
  RunCallback done;
};

void LogClient::ReadRun(Lsn lsn, RunCallback done) {
  const MergedLogView::Segment* seg = view_.Find(lsn);
  if (seg == nullptr) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::NotFound("no server holds this record"));
    });
    return;
  }
  auto st = std::make_shared<ReadRunState>();
  st->lsn = lsn;
  st->generation = generation_;
  st->order = ReadOrder(seg->servers);
  st->done = std::move(done);
  ReadFromNextHolder(std::move(st));
}

void LogClient::ReadFromNextHolder(std::shared_ptr<ReadRunState> st) {
  if (st->generation != generation_) {
    st->done(Status::Aborted("client crashed"));
    return;
  }
  if (st->next >= st->order.size()) {
    st->done(Status::Unavailable("no holder answered"));
    return;
  }
  const net::NodeId node = st->order[st->next++];
  ServerLink* link = LinkOf(node);
  if (link == nullptr) {
    ReadFromNextHolder(std::move(st));
    return;
  }
  EnsureConnected(link);
  const sim::Time sent = sim_->Now();
  wire::ReadLogReq req{config_.client_id, st->lsn};
  link->rpc->Call(
      [req](uint64_t id) {
        return wire::EncodeReadLogReq(wire::MessageType::kReadLogForwardReq,
                                      req, id);
      },
      RpcOpts(),
      [this, st, node, sent](Result<wire::Envelope> env) {
        if (st->generation != generation_) {
          st->done(Status::Aborted("client crashed"));
          return;
        }
        std::vector<LogRecord> run;
        if (env.ok()) {
          Result<wire::ReadLogResp> resp = wire::DecodeReadLogResp(env->body);
          if (resp.ok() && resp->status == wire::RpcStatus::kOk) {
            run = std::move(resp->records);
            run.resize(HeldPrefix(node, st->lsn, run));
          }
        }
        ServerLink* link = LinkOf(node);
        if (run.empty()) {
          if (link != nullptr) {
            link->read_time = {};
            link->read_failed_until =
                sim_->Now() + config_.server_retry_backoff;
          }
          ReadFromNextHolder(st);
          return;
        }
        if (link != nullptr) {
          link->read_failed_until = 0;
          // Karn's rule: past rpc_timeout the request was sent again, and
          // the reply may answer either copy.
          const sim::Duration took = sim_->Now() - sent;
          if (took < config_.rpc_timeout) link->read_time.Add(took);
        }
        st->done(std::move(run));
      });
}

std::vector<net::NodeId> LogClient::ReadOrder(
    const std::vector<ServerId>& holders) {
  const sim::Time now = sim_->Now();
  // 0: never measured, 1: measured, 2: failed within the backoff.
  auto rank = [&](net::NodeId node) {
    const ServerLink* link = LinkOf(node);
    if (link == nullptr) return 0;
    if (link->read_failed_until > now) return 2;
    return link->read_time.sampled ? 1 : 0;
  };
  std::vector<net::NodeId> order(holders.begin(), holders.end());
  std::stable_sort(order.begin(), order.end(),
                   [&](net::NodeId a, net::NodeId b) {
                     const int ra = rank(a);
                     const int rb = rank(b);
                     if (ra != rb) return ra < rb;
                     return ra == 1 && LinkOf(a)->read_time.srtt <
                                           LinkOf(b)->read_time.srtt;
                   });
  return order;
}

size_t LogClient::HeldPrefix(net::NodeId node, Lsn lsn,
                             const std::vector<LogRecord>& records) const {
  // A holder may also store copies the view does not place on it, such as
  // a partially written record superseded at a higher epoch elsewhere.
  const MergedLogView::Segment* seg = nullptr;
  size_t n = 0;
  for (const LogRecord& r : records) {
    if (r.lsn != lsn + n) break;
    if (seg == nullptr || r.lsn > seg->high) {
      seg = view_.Find(r.lsn);
      if (seg == nullptr ||
          std::find(seg->servers.begin(), seg->servers.end(), node) ==
              seg->servers.end()) {
        break;
      }
    }
    if (r.epoch != seg->epoch) break;
    ++n;
  }
  return n;
}

// --- Initialization ---

void LogClient::Init(std::function<void(Status)> done) {
  if (crashed_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::Aborted("client crashed"));
    });
    return;
  }
  initialized_ = false;
  // Init starts a log client (a fresh node, or a retry after a failed
  // Init): nothing is pending yet.
  assert(pending_.empty());
  forced_upto_ = kNoLsn;
  auto st = std::make_shared<InitState>();
  st->done = std::move(done);
  st->generation = generation_;
  ConnectAll();
  StartIntervalGather(st);
}

void LogClient::FinishInit(std::shared_ptr<InitState> st, Status status) {
  if (st->finished) return;
  st->finished = true;
  if (status.ok()) initialized_ = true;
  st->done(status);
}

void LogClient::StartIntervalGather(std::shared_ptr<InitState> st) {
  const int m = static_cast<int>(config_.servers.size());
  const int needed = m - config_.copies + 1;
  for (net::NodeId node : config_.servers) {
    ServerLink* link = LinkOf(node);
    wire::IntervalListReq req{config_.client_id};
    link->rpc->Call(
        [req](uint64_t id) { return wire::EncodeIntervalListReq(req, id); },
        RpcOpts(),
        [this, st, node, m, needed](Result<wire::Envelope> env) {
          if (st->generation != generation_ || st->finished ||
              st->intervals_done) {
            return;
          }
          bool ok = false;
          if (env.ok()) {
            Result<wire::IntervalListResp> resp =
                wire::DecodeIntervalListResp(env->body);
            if (resp.ok() && resp->status == wire::RpcStatus::kOk) {
              ok = true;
              for (const Interval& iv : resp->intervals) {
                st->intervals.push_back(ServerInterval{node, iv});
              }
            }
          }
          ok ? ++st->interval_ok : ++st->interval_fail;
          if (st->interval_ok >= needed) {
            st->intervals_done = true;
            StartEpochAcquisition(st);
          } else if (st->interval_fail > m - needed) {
            st->intervals_done = true;
            FinishInit(st, Status::Unavailable(
                               "fewer than M-N+1 interval lists gathered"));
          }
        });
  }
}

void LogClient::StartEpochAcquisition(std::shared_ptr<InitState> st) {
  const int reps = static_cast<int>(config_.generator_reps.size());
  const int read_quorum = (reps + 2) / 2;   // ceil((R+1)/2)
  const int write_quorum = (reps + 1) / 2;  // ceil(R/2)

  for (net::NodeId node : config_.generator_reps) {
    ServerLink* link = LinkOf(node);
    wire::GenReadReq req{config_.client_id};
    link->rpc->Call(
        [req](uint64_t id) { return wire::EncodeGenReadReq(req, id); },
        RpcOpts(),
        [this, st, reps, read_quorum, write_quorum](
            Result<wire::Envelope> env) {
          if (st->generation != generation_ || st->finished ||
              st->gen_read_done) {
            return;
          }
          bool ok = false;
          if (env.ok()) {
            Result<wire::GenReadResp> resp = wire::DecodeGenReadResp(env->body);
            if (resp.ok() && resp->status == wire::RpcStatus::kOk) {
              ok = true;
              st->gen_max = std::max(st->gen_max, resp->value);
            }
          }
          ok ? ++st->gen_read_ok : ++st->gen_read_fail;
          if (st->gen_read_ok >= read_quorum) {
            st->gen_read_done = true;
            st->gen_value = st->gen_max + 1;
            // Write phase.
            for (net::NodeId wnode : config_.generator_reps) {
              ServerLink* wlink = LinkOf(wnode);
              wire::GenWriteReq wreq{config_.client_id, st->gen_value};
              wlink->rpc->Call(
                  [wreq](uint64_t id) {
                    return wire::EncodeGenWriteReq(wreq, id);
                  },
                  RpcOpts(),
                  [this, st, reps, write_quorum](Result<wire::Envelope> wenv) {
                    if (st->generation != generation_ || st->finished ||
                        st->gen_write_done) {
                      return;
                    }
                    bool wok = false;
                    if (wenv.ok()) {
                      auto wresp = wire::DecodeGenWriteResp(wenv->body);
                      wok = wresp.ok() &&
                            wresp->status == wire::RpcStatus::kOk;
                    }
                    wok ? ++st->gen_write_ok : ++st->gen_write_fail;
                    if (st->gen_write_ok >= write_quorum) {
                      st->gen_write_done = true;
                      StartRecoveryCopy(st);
                    } else if (st->gen_write_fail > reps - write_quorum) {
                      st->gen_write_done = true;
                      FinishInit(st, Status::Unavailable(
                                         "generator write quorum failed"));
                    }
                  });
            }
          } else if (st->gen_read_fail > reps - read_quorum) {
            st->gen_read_done = true;
            FinishInit(st, Status::Unavailable(
                               "generator read quorum failed"));
          }
        });
  }
}

void LogClient::StartRecoveryCopy(std::shared_ptr<InitState> st) {
  view_ = MergedLogView::Build(st->intervals);
  epoch_ = st->gen_value;
  if (view_.MaxEpoch().has_value() && epoch_ <= *view_.MaxEpoch()) {
    FinishInit(st, Status::Internal("generator epoch not above log epochs"));
    return;
  }

  const std::optional<Lsn> high = view_.HighLsn();
  if (!high.has_value()) {
    next_lsn_ = 1;
    ChooseWriteSet();
    FinishInit(st, Status::OK());
    return;
  }
  st->high = *high;

  // The most recent δ records may each be partially written; read them
  // all back (Section 4.2's generalization of the single-record copy).
  const Lsn delta = std::min<Lsn>(config_.delta, st->high);
  for (Lsn lsn = st->high - delta + 1; lsn <= st->high; ++lsn) {
    st->tail_lsns.push_back(lsn);
  }

  ReadTail(std::move(st));
}

void LogClient::ReadTail(std::shared_ptr<InitState> st) {
  if (st->generation != generation_ || st->finished) return;
  if (st->tail_cursor >= st->tail_lsns.size()) {
    CopyTail(std::move(st));
    return;
  }
  const Lsn lsn = st->tail_lsns[st->tail_cursor];
  if (view_.Find(lsn) == nullptr) {
    // A hole inside the last δ records means the record was partially
    // written and its holder did not answer IntervalList; it will be
    // superseded by a not-present record. Synthesize nothing.
    ++st->tail_cursor;
    ReadTail(std::move(st));
    return;
  }
  ReadRun(lsn, [this, st, lsn](Result<std::vector<LogRecord>> run) {
    if (st->generation != generation_ || st->finished) return;
    if (!run.ok()) {
      FinishInit(st, Status::Unavailable("no holder of a tail record answers"));
      return;
    }
    st->tail_records[lsn] = std::move(run->front());
    ++st->tail_cursor;
    ReadTail(st);
  });
}

void LogClient::CopyTail(std::shared_ptr<InitState> st) {
  // All tail records read: choose targets and copy.
  ChooseWriteSet();
  const std::vector<net::NodeId> targets = write_set_;
  if (targets.size() < static_cast<size_t>(config_.copies)) {
    FinishInit(st, Status::Unavailable("not enough copy targets"));
    return;
  }
  // The δ tail records re-stamped with the new epoch, then δ not-present
  // records above the old end of log.
  std::vector<LogRecord> copies;
  for (const auto& [lsn, rec] : st->tail_records) {
    copies.push_back(rec);
    copies.back().epoch = epoch_;
  }
  const Lsn delta = std::min<Lsn>(config_.delta, st->high);
  for (Lsn lsn = st->high + 1; lsn <= st->high + delta; ++lsn) {
    LogRecord np;
    np.lsn = lsn;
    np.epoch = epoch_;
    np.present = false;
    copies.push_back(std::move(np));
  }
  next_lsn_ = st->high + delta + 1;
  CopyToTargets(std::move(copies), targets,
                [this, st, targets](Status status) {
                  if (st->generation != generation_ || st->finished) return;
                  if (status.ok()) {
                    // Recovery complete: the streams resume past the copies.
                    for (net::NodeId node : targets) {
                      ServerLink* link = LinkOf(node);
                      link->sent_high = next_lsn_ - 1;
                      link->acked_high =
                          std::max(link->acked_high, next_lsn_ - 1);
                    }
                  }
                  FinishInit(st, status);
                });
}

void LogClient::Crash() {
  if (crashed_) return;
  crashed_ = true;
  initialized_ = false;
  ++generation_;
  if (retry_timer_ != 0) {
    sim_->Cancel(retry_timer_);
    retry_timer_ = 0;
  }
  force_waiters_.clear();
  force_ctx_cache_ = {};
  force_ctx_valid_spans_ = 0;
  pending_.Clear();
  forced_upto_ = kNoLsn;
  unacked_sent_records_ = 0;
  read_cache_.clear();
  for (net::NodeId node : write_set_) LeaveWriteSetMember(node);
  write_set_.clear();
  links_.clear();  // RpcClient destructors fail pending calls (guarded)
  endpoint_->Crash();
  for (auto& nic : nics_) nic->SetUp(false);
  for (size_t i = 0; i < networks_.size(); ++i) {
    networks_[i]->Detach(config_.node_id);
  }
}

}  // namespace dlog::client
