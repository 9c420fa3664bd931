#ifndef DLOG_CLIENT_LOG_CLIENT_H_
#define DLOG_CLIENT_LOG_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/log_types.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "flow/retry_policy.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cpu.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "wire/connection.h"
#include "wire/messages.h"
#include "wire/rpc.h"

namespace dlog::client {

/// How the client picks a replacement when it abandons an unresponsive
/// server (Section 5.4 leaves load assignment open; these are the
/// "simple decentralized strategies" experiment E9 compares).
enum class SelectionPolicy {
  kStickyFailover,  // keep current set; replace with lowest-id available
  kRoundRobin,      // rotate through the server list
  kRandom,          // uniform random replacement
  kLeastQueued,     // server with the least locally-queued traffic
};

/// The shortest force retry round. A live server acknowledges a force
/// once its records reach NVRAM; with NVRAM full, the ack waits for one
/// track write, which is 50 ms at the default DiskConfig (25 ms seek +
/// 8.3 ms half rotation + 16.7 ms transfer). A round shorter than that
/// would count a healthy server's held ack as silence.
inline constexpr sim::Duration kMinForceRound = 50 * sim::kMillisecond;

/// Configuration of a replicated-log protocol client node.
struct LogClientConfig {
  ClientId client_id = 1;
  net::NodeId node_id = 1000;
  /// N — copies per record.
  int copies = 2;
  /// The M log server node ids.
  std::vector<net::NodeId> servers;
  /// Hosts of the generator state representatives (Appendix I). Empty
  /// means the first min(3, M) servers.
  std::vector<net::NodeId> generator_reps;
  double cpu_mips = 2.0;
  size_t nic_ring_slots = 16;
  /// Packing budget for a record batch ("as many log records as will fit
  /// in a network packet").
  size_t mtu_payload = 1400;
  /// δ — "the client must limit the number of records contained in
  /// unacknowledged WriteLog and ForceLog messages to ensure that no more
  /// than δ log records are partially written" (Section 4.2).
  size_t delta = 16;
  /// The initial and the maximum force retry round. The round in use is
  /// derived from measured ack times (SRTT + 4·RTTVAR per write-set
  /// server, the worst of them, never below kMinForceRound); until every
  /// write-set server has given a sample it is this value.
  sim::Duration force_timeout = 300 * sim::kMillisecond;
  /// Silent retry rounds (no ack progress) before switching server.
  int force_retries = 3;
  /// How long to avoid a server after abandoning it as unresponsive.
  sim::Duration server_retry_backoff = 5 * sim::kSecond;
  /// Synchronous-call (Figure 4-1 RPC) parameters.
  sim::Duration rpc_timeout = 400 * sim::kMillisecond;
  int rpc_attempts = 4;
  SelectionPolicy policy = SelectionPolicy::kStickyFailover;
  /// Section 4.1's multicast option: stream record batches once to a
  /// multicast group containing the write set instead of N unicast
  /// copies ("With the use of multicast, this amount would be
  /// approximately halved"). Acknowledgments, gap repair, and all
  /// synchronous calls stay unicast.
  bool multicast_writes = false;
  uint64_t seed = 1;
  wire::WireConfig wire;
  /// Backoff-and-budget policy applied when a server sheds a batch with
  /// an Overloaded reply (src/flow). Jitter is drawn from this client's
  /// own Rng stream (seeded from `seed`), so runs stay byte-identical.
  flow::RetryPolicyConfig retry;

  /// OK iff the configuration can drive the protocol: at least one copy,
  /// `servers.size() >= copies`, nonzero δ and packing budget, positive
  /// timeouts/attempt counts, ...
  Status Validate() const;
};

/// The asynchronous replicated-log client (Sections 3.1.2 + 4.2): buffers
/// log records locally, streams them in packed WriteLog/ForceLog messages
/// to N of M log servers, tracks per-server acknowledgments, resends or
/// switches servers on silence, answers MissingInterval prompts, and
/// performs the full client-initialization procedure (interval-list
/// merge, new epoch via the replicated identifier generator, CopyLog /
/// InstallCopies recovery of the last δ records).
///
/// All operations are asynchronous: they return immediately and invoke
/// the supplied callback when the simulated protocol completes.
class LogClient {
 public:
  LogClient(sim::Scheduler* sim, const LogClientConfig& config);
  ~LogClient();

  LogClient(const LogClient&) = delete;
  LogClient& operator=(const LogClient&) = delete;

  /// Attaches to a network (twice for dual-network configurations).
  void AttachNetwork(net::Network* network);

  /// Client initialization (Section 3.1.2). `done` fires with OK once the
  /// log is usable, or with an error (retry later — the paper's client
  /// "can poll until it receives responses from enough servers").
  void Init(std::function<void(Status)> done);

  bool IsInitialized() const { return initialized_; }
  Epoch current_epoch() const { return epoch_; }
  /// The cached merged view of the replicated log (diagnostics/tests).
  const MergedLogView& view() const { return view_; }

  /// Appends a record to the local group buffer and returns its LSN
  /// immediately. The record reaches log servers when a ForceLog covers
  /// it or enough records accumulate to fill packets (grouping,
  /// Section 4.1).
  Result<Lsn> WriteLog(Bytes data);

  /// Requests that all records up to `upto` become stable on N servers;
  /// `done` fires when the last acknowledgment arrives.
  void ForceLog(Lsn upto, std::function<void(Status)> done);

  /// Reads a record via the cached merged view (one ServerReadLog in the
  /// common case). The request goes to the holder that answers reads
  /// fastest: holders with no measured read time first (so each is
  /// probed), then by smoothed read time, ties in view order; a holder
  /// whose read failed is asked last for `server_retry_backoff`, then
  /// probed afresh. Errors: OutOfRange beyond end of log, NotFound for
  /// not-present records, Unavailable/TimedOut when no holder answers.
  /// Extra records packed into a reply are cached for the reads that
  /// follow; a read drops the cached records below its LSN, so a read
  /// behind the scan goes back to a server.
  void ReadLog(Lsn lsn, std::function<void(Result<Bytes>)> done);

  /// LSN of the most recently written (possibly still buffered) record.
  Lsn EndOfLog() const { return next_lsn_ - 1; }

  /// Log space management (Section 5.3): asks every server to discard
  /// this client's records below `below`. The point is clamped so the
  /// most recent δ records (needed by restart recovery) and anything not
  /// yet fully replicated always survive. Returns the clamped point.
  Lsn TruncateLog(Lsn below);

  /// Media-failure repair (Section 5.3: "the repair of a log when one
  /// redundant copy is lost"): re-gathers interval lists, finds records
  /// with fewer than N holders, and re-replicates them to additional
  /// servers via CopyLog/InstallCopies. `done` receives OK when every
  /// under-replicated record has N holders again, or an error if some
  /// could not be repaired (retry later).
  void RepairLog(std::function<void(Status)> done);

  /// Crashes the node: every volatile structure (buffers, view, epoch,
  /// connections) is lost. A crashed client is dead; construct a new
  /// LogClient with the same ids and Init() it to model the restart
  /// (harness::Cluster::RestartClient does exactly that).
  void Crash();

  /// False once Crash() has run: the node is powered off until replaced.
  bool IsUp() const { return !crashed_; }

  ClientId client_id() const { return config_.client_id; }

  /// The wire incarnation this node is running as. Survives crashes only
  /// via whoever rebuilds the node: a replacement LogClient must be given
  /// `config.wire.initial_incarnation > wire_incarnation()` or its
  /// connection ids collide with ones the servers still hold.
  uint64_t wire_incarnation() const { return endpoint_->incarnation(); }

  // --- Observability ---
  /// Attaches the shared causal tracer. Records opened while a context is
  /// current (see obs::Tracer::Scope) get "wal.group" spans; sends get
  /// "wire.send" spans whose ids travel inside the RecordBatch so the
  /// receiving server can close them.
  void SetTracer(obs::Tracer* tracer);
  /// Registers this client's counters/histograms under
  /// "client-<id>/log/...".
  void RegisterMetrics(obs::MetricsRegistry* registry) const;

  // --- Statistics ---
  sim::Cpu& cpu() { return *cpu_; }
  sim::Histogram& force_latency_ms() { return force_latency_ms_; }
  /// Streaming (bucketed, microseconds) twin of force_latency_ms: what
  /// windowed telemetry diffs for per-window quantiles.
  const sim::StreamingHistogram& force_latency_us() const {
    return force_latency_us_;
  }
  sim::Counter& records_sent() { return records_sent_; }
  sim::Counter& batches_sent() { return batches_sent_; }
  sim::Counter& forces_completed() { return forces_completed_; }
  sim::Counter& server_switches() { return server_switches_; }
  sim::Counter& resends() { return resends_; }
  sim::Counter& overloads_received() { return overloads_received_; }
  sim::Counter& backoffs() { return backoffs_; }
  sim::Counter& retries_suppressed() { return retries_suppressed_; }
  const flow::RetryPolicy& retry_policy() const { return retry_policy_; }
  uint64_t bytes_buffered() const { return bytes_buffered_; }
  /// Records written but not yet acknowledged by N servers: the backlog
  /// an application layer watches to apply end-to-end backpressure.
  size_t pending_records() const { return pending_.size(); }
  /// The current force retry round: the worst SRTT + 4·RTTVAR over the
  /// write set, clamped to [kMinForceRound, force_timeout]; force_timeout
  /// while some write-set server has no ack-time sample yet.
  sim::Duration RetryRound() const;

 private:
  /// Jacobson/Karels smoothed round-trip time: gain 1/8 on the mean, 1/4
  /// on the mean deviation. Valid once `sampled`.
  struct RttEstimate {
    bool sampled = false;
    sim::Duration srtt = 0;
    sim::Duration rttvar = 0;
    void Add(sim::Duration sample);
  };

  struct ServerLink {
    net::NodeId node = 0;
    wire::Connection* conn = nullptr;
    std::unique_ptr<wire::RpcClient> rpc;
    /// Highest LSN this server acknowledged via NewHighLsn.
    Lsn acked_high = 0;
    /// Highest LSN streamed to this server in the current epoch (set
    /// back to the server's stored high when it sheds a batch).
    Lsn sent_high = 0;
    /// True if this link is in the current write set.
    bool in_write_set = false;
    int silent_rounds = 0;  // retry rounds without progress
    Lsn acked_at_last_round = 0;
    /// Send-to-NewHighLsn time of this server's acks. Reset when the
    /// server leaves the write set.
    RttEstimate ack_time;
    /// ReadLogForward send-to-valid-reply time; orders read holders.
    RttEstimate read_time;
    /// A read from this server failed: it is asked last until then, and
    /// probed afresh after.
    sim::Time read_failed_until = 0;
    /// Highest force point already prodded with an empty ForceLog (so a
    /// force of already-streamed records elicits exactly one ack request;
    /// the retry timer covers losses).
    Lsn force_ping_high = 0;
    /// Consecutive Overloaded sheds from this server (resets on a real
    /// acknowledgment); drives the exponential backoff.
    int shed_rounds = 0;
    /// No new batches go to this server before this time (shed backoff).
    sim::Time shed_until = 0;
  };

  struct PendingRecord {
    LogRecord record;
    std::set<net::NodeId> sent_to;
    std::set<net::NodeId> acked_by;
    sim::Time first_sent = 0;
    /// Sent again after first_sent (resend, gap repair, or re-streamed to
    /// a replacement): by Karn's rule its ack gives no ack-time sample.
    bool resent = false;
    bool forced = false;
    /// "wal.group" span: client-buffer residency, WriteLog to first send.
    obs::SpanContext group_span;
  };

  struct ForceWaiter {
    Lsn upto;
    std::function<void(Status)> done;
    sim::Time started;
    /// "ForceLog" span: force request to last acknowledgment.
    obs::SpanContext span;
  };

  // --- transport plumbing ---
  void ConnectAll();
  ServerLink* LinkOf(net::NodeId node);
  void EnsureConnected(ServerLink* link);
  void OnServerMessage(net::NodeId node, const SharedBytes& payload);
  void OnNewHighLsn(ServerLink* link, Lsn high);
  void OnMissingInterval(ServerLink* link, Lsn low, Lsn high);
  void OnOverloaded(ServerLink* link, const wire::OverloadedMsg& msg);
  /// True while `link` sits in a shed backoff and must not receive new
  /// record batches.
  bool InShedBackoff(const ServerLink& link) const;

  // --- write pipeline ---
  void ChooseWriteSet();
  /// The current write-set links in write_set_ order (a snapshot:
  /// nested re-entry into PumpSends must not invalidate the caller's
  /// iteration).
  std::vector<ServerLink*> WriteSet();
  net::NodeId PickReplacement(const std::set<net::NodeId>& exclude);
  void PumpSends();
  /// Sends every pending record in (from..] not yet sent to `link`,
  /// packed into batches; marks the final batch ForceLog if a force is
  /// outstanding.
  void StreamTo(ServerLink* link);
  /// Multicast mode: streams the common tail once to the write-set
  /// group.
  void StreamMulticast();
  /// The multicast group carrying this client's record stream.
  net::NodeId Group() const {
    return net::kMulticastBase + config_.client_id;
  }
  void JoinWriteSetMember(net::NodeId node);
  void LeaveWriteSetMember(net::NodeId node);
  void CheckForceCompletion();
  void ArmRetryTimer();
  void OnRetryTimer();
  void SwitchAwayFrom(ServerLink* link);
  size_t UnackedSentRecords() const;
  /// The span of the most recent outstanding force (for parenting sends
  /// that carry no fresh records).
  obs::SpanContext ForceContext() const;

  // --- reads ---
  using RunCallback = std::function<void(Result<std::vector<LogRecord>>)>;
  struct ReadRunState;
  /// Reads the run of records from `lsn` onward from one holder of its
  /// view_ segment, trying holders in ReadOrder until one gives a valid
  /// reply. `done` gets a non-empty run starting at `lsn`, holding only
  /// records the view places on the answering server at the record's
  /// epoch; Aborted if the client crashes meanwhile.
  void ReadRun(Lsn lsn, RunCallback done);
  void ReadFromNextHolder(std::shared_ptr<ReadRunState> st);
  /// The holders to ask, best first: never measured (view order), then by
  /// smoothed read time, then recently failed.
  std::vector<net::NodeId> ReadOrder(const std::vector<ServerId>& holders);
  /// How many leading `records` (from `lsn` on, consecutive) the view
  /// places on `node` at their epoch.
  size_t HeldPrefix(net::NodeId node, Lsn lsn,
                    const std::vector<LogRecord>& records) const;

  // --- init machinery ---
  struct InitState;
  struct RepairState;
  void StartIntervalGather(std::shared_ptr<InitState> st);
  void StartEpochAcquisition(std::shared_ptr<InitState> st);
  void StartRecoveryCopy(std::shared_ptr<InitState> st);
  /// Reads the tail records one by one, then copies them.
  void ReadTail(std::shared_ptr<InitState> st);
  void CopyTail(std::shared_ptr<InitState> st);
  void FinishInit(std::shared_ptr<InitState> st, Status status);

  // --- recovery copies (Init's tail copy and media repair) ---
  struct CopyState;
  /// Stages `copies` (non-empty) on every one of `targets` (non-empty)
  /// with CopyLog, in packet-sized chunks, then installs them everywhere
  /// with InstallCopies and notes the targets as their holders in the
  /// view. `done` gets OK, Overloaded if a server shed a call, or
  /// Unavailable; it is not called once the client has crashed.
  void CopyToTargets(std::vector<LogRecord> copies,
                     std::vector<net::NodeId> targets,
                     std::function<void(Status)> done);
  void InstallStaged(std::shared_ptr<CopyState> st);
  void RepairNextSegment(std::shared_ptr<RepairState> st);
  void RepairRead(std::shared_ptr<RepairState> st);
  void EndRepairSegment(std::shared_ptr<RepairState> st,
                        const Status& status);

  wire::RpcClient::CallOptions RpcOpts() const;

  sim::Scheduler* sim_;
  LogClientConfig config_;
  std::unique_ptr<sim::Cpu> cpu_;
  std::unique_ptr<wire::Endpoint> endpoint_;
  std::vector<std::unique_ptr<net::Nic>> nics_;
  std::vector<net::Network*> networks_;
  Rng rng_;

  bool crashed_ = false;
  bool initialized_ = false;
  uint64_t generation_ = 0;
  Epoch epoch_ = 0;
  Lsn next_lsn_ = 1;
  MergedLogView view_;
  std::map<net::NodeId, ServerLink> links_;
  std::vector<net::NodeId> write_set_;
  size_t round_robin_cursor_ = 0;
  /// Servers recently abandoned as unresponsive, with the time until
  /// which they should not be re-chosen.
  std::map<net::NodeId, sim::Time> avoid_until_;

  std::map<Lsn, PendingRecord> pending_;
  /// Count of pending_ entries with a non-empty sent_to set, maintained
  /// at the sent_to/erase transition points so the δ-bound check in the
  /// streaming hot path is O(1) instead of a pending_ sweep.
  size_t unacked_sent_records_ = 0;
  std::deque<ForceWaiter> force_waiters_;
  /// Cached ForceContext(): the span of the newest force_waiters_ entry
  /// with a valid span, plus the count of valid spans in the deque
  /// (waiters only ever push at the back and pop at the front, so the
  /// newest valid span changes only on push or on drain-to-zero).
  obs::SpanContext force_ctx_cache_;
  size_t force_ctx_valid_spans_ = 0;
  sim::EventId retry_timer_ = 0;
  /// Small cache of records brought back by ReadLogForward packing.
  std::map<Lsn, LogRecord> read_cache_;
  static constexpr size_t kReadCacheRecords = 4096;

  obs::Tracer* tracer_ = nullptr;
  std::string trace_node_;

  sim::Histogram force_latency_ms_;
  sim::StreamingHistogram force_latency_us_;
  sim::Counter records_sent_;
  sim::Counter batches_sent_;
  sim::Counter forces_completed_;
  sim::Counter server_switches_;
  sim::Counter resends_;
  flow::RetryPolicy retry_policy_;
  sim::Counter overloads_received_;
  sim::Counter backoffs_;
  sim::Counter retries_suppressed_;
  uint64_t bytes_buffered_ = 0;
};

}  // namespace dlog::client

#endif  // DLOG_CLIENT_LOG_CLIENT_H_
