#ifndef DLOG_WIRE_CONNECTION_H_
#define DLOG_WIRE_CONNECTION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "flow/window.h"
#include "net/network.h"
#include "sim/cpu.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::wire {

/// Parameters of the specialized low-level protocol (Section 4.2). The
/// protocol is connection-oriented a la Watson's tutorial: a three-way
/// handshake establishes a small amount of state on both sides, packets
/// carry permanently unique sequence numbers (so duplicates are detected
/// even across a crash of the receiving node), and every packet carries an
/// allocation implementing moving-window flow control.
struct WireConfig {
  /// Section 4.1: "network and RPC implementation processing can be
  /// performed in one thousand instructions per packet".
  uint64_t instructions_per_packet = 1000;
  /// Moving-window size, in packets: how much unconsumed allocation each
  /// party tries to keep granted to the other.
  uint64_t window_packets = 16;
  /// Grant refresh threshold: a standalone window-update packet is sent
  /// when the peer's unsent grant lags by at least this many packets.
  uint64_t window_update_threshold = 8;
  /// Handshake retransmission interval and retry budget.
  sim::Duration handshake_retry = 200 * sim::kMillisecond;
  int handshake_max_retries = 10;
  /// "Deadlocks are prevented by allowing either party to exceed its
  /// allocation, so long as it pauses several seconds between packets."
  sim::Duration allocation_override_delay = 3 * sim::kSecond;
  /// The incarnation counter models a tiny stable-storage cell that
  /// survives crashes: a node rebuilt after a crash must resume from a
  /// strictly higher incarnation than any previous life, or its
  /// connection ids would collide with connections its peers still hold
  /// from before the crash. Whoever reconstructs the node (the harness
  /// Cluster, for restarted clients) plays the role of that stable cell
  /// by carrying `incarnation() + 1` forward into the new endpoint.
  uint64_t initial_incarnation = 1;
  /// Optional AIMD window over outstanding bytes (src/flow): bounds how
  /// fast a sender injects when the peer sheds load or stops advancing
  /// its allocation. Off by default — the receiver-granted packet window
  /// alone reproduces the paper's transport.
  flow::AimdConfig adaptive_window;
};

class Endpoint;

/// One direction-agnostic protocol connection between two endpoints.
/// Delivery is unordered and unreliable by design: the transport detects
/// duplicates and flow-controls, while loss recovery is end-to-end in the
/// logging protocol itself (Section 4.2, citing Saltzer et al.).
///
/// Arriving payloads are handed up as SharedBytes views into the packet
/// buffer — no bytes are copied between the NIC and the message handler.
class Connection {
 public:
  using MessageHandler = std::function<void(const SharedBytes&)>;
  using CloseHandler = std::function<void()>;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Installs the upcall for arriving (deduplicated) payloads.
  void SetMessageHandler(MessageHandler h) { message_handler_ = std::move(h); }
  /// Installs the upcall for connection failure (reset by peer, handshake
  /// exhaustion, local crash).
  void SetCloseHandler(CloseHandler h) { close_handler_ = std::move(h); }

  /// Queues a payload for transmission. Transmission respects the peer's
  /// allocation; when out of allocation the packet waits, and after
  /// `allocation_override_delay` one packet is sent anyway (the deadlock-
  /// prevention rule). Sending on a closed connection is a silent no-op
  /// (the close handler has already fired). `trace`/`span` are optional
  /// obs span ids stamped on the outgoing packet so the network's packet
  /// probe can attribute its queueing and transmission time (0 = untraced).
  void Send(Bytes payload, uint64_t trace = 0, uint64_t span = 0);

  bool IsEstablished() const { return state_ == State::kEstablished; }
  bool IsClosed() const { return state_ == State::kClosed; }
  net::NodeId peer() const { return peer_; }
  uint64_t id() const { return conn_id_; }

  /// Packets queued locally waiting for allocation.
  size_t send_queue_depth() const { return send_queue_.size(); }

  /// Congestion feedback from the layer above (e.g. the log client on an
  /// Overloaded reply): shrinks the adaptive window multiplicatively.
  /// No-op when the adaptive window is disabled.
  void NoteOverload();
  /// Current adaptive-window size in bytes (its configured initial value
  /// when disabled) and the bytes currently in flight against it.
  size_t window_bytes() const { return window_.current(); }
  size_t outstanding_bytes() const { return bytes_in_flight_; }

 private:
  friend class Endpoint;

  enum class State { kSynSent, kSynReceived, kEstablished, kClosed };

  Connection(Endpoint* endpoint, net::NodeId peer, uint64_t conn_id,
             bool initiator);

  void StartHandshake();
  void HandshakeTimeout();
  void OnFrame(uint8_t frame_type, uint64_t seq, uint64_t alloc,
               const SharedBytes& payload);
  void TryFlush();
  /// Folds a peer allocation into `peer_allocation_` and, when it
  /// advances, credits the adaptive window with the bytes the advance
  /// acknowledges.
  void NoteAllocation(uint64_t alloc);
  /// Remembers an injected payload's size against the adaptive window
  /// (no-op when disabled).
  void RecordInflight(uint64_t seq, size_t bytes);
  void GrantWindowIfNeeded(bool force);
  /// The allocation we are currently willing to grant the peer.
  uint64_t CurrentGrant() const;
  void Close();
  void ArmOverrideTimer();

  Endpoint* endpoint_;
  net::NodeId peer_;
  uint64_t conn_id_;
  bool initiator_;
  State state_;

  // Send side. Queued payloads keep their span identity so attribution
  // still works for packets that waited on allocation.
  struct Outgoing {
    Bytes payload;
    uint64_t trace = 0;
    uint64_t span = 0;
  };
  uint64_t next_send_seq_ = 1;
  uint64_t peer_allocation_ = 0;  // highest seq we may send
  std::deque<Outgoing> send_queue_;
  sim::EventId override_timer_ = 0;

  // Adaptive (AIMD) window over outstanding bytes. The peer's allocation
  // doubles as the acknowledgment signal: its grant is always
  // `highest seq seen + window_packets`, so an allocation advance to A
  // means every seq <= A - window_packets has been seen. `inflight_` maps
  // injected seq -> payload bytes until acknowledged that way; it stays
  // empty when the adaptive window is disabled.
  flow::AimdWindow window_;
  size_t bytes_in_flight_ = 0;
  std::map<uint64_t, size_t> inflight_;

  // Receive side: duplicate detection. Because the transport never
  // retransmits (loss recovery is end-to-end, Section 4.2), a lost DATA
  // sequence number leaves a permanent gap; the allocation therefore
  // follows the highest sequence seen, not the contiguous prefix.
  uint64_t recv_cumulative_ = 0;        // all seqs <= this count as seen
  uint64_t recv_highest_seen_ = 0;
  std::set<uint64_t> recv_out_of_order_;
  uint64_t last_advertised_grant_ = 0;

  // Handshake.
  int handshake_attempts_ = 0;
  sim::EventId handshake_timer_ = 0;

  MessageHandler message_handler_;
  CloseHandler close_handler_;

  sim::Counter duplicates_dropped_;
};

/// The per-node protocol endpoint: owns this node's connections,
/// demultiplexes arriving packets, charges the node CPU the per-packet
/// instruction budget, and spreads traffic across the node's (possibly
/// two) attached networks.
class Endpoint {
 public:
  using AcceptHandler = std::function<void(Connection*)>;

  Endpoint(sim::Scheduler* sim, sim::Cpu* cpu, net::NodeId id,
           const WireConfig& config);

  ~Endpoint() { *alive_ = false; }

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Attaches a network/NIC pair. Call twice for the paper's dual-network
  /// configuration; outgoing packets round-robin across attached networks.
  void AttachNetwork(net::Network* network, net::Nic* nic);

  /// Initiates a connection to `peer` (three-way handshake). The returned
  /// pointer remains valid until Crash() or endpoint destruction.
  Connection* Connect(net::NodeId peer);

  /// Installs the upcall for inbound connections (server side).
  void SetAcceptHandler(AcceptHandler h) { accept_handler_ = std::move(h); }

  /// Connectionless datagrams — used for multicast record streams
  /// (Section 4.1's multicast option) and their acknowledgments. No
  /// sequence numbers or flow control: the logging protocol's own
  /// LSN-contiguity detection and per-record idempotence provide the
  /// end-to-end reliability.
  using DatagramHandler =
      std::function<void(net::NodeId, const SharedBytes&)>;
  void SetDatagramHandler(DatagramHandler h) {
    datagram_handler_ = std::move(h);
  }
  /// `dst` may be a unicast node id or a multicast group id. The payload
  /// is framed in place (taken by value) and, for multicast, one buffer
  /// is shared by every receiver. `trace`/`span` stamp the packet for the
  /// profiler (0 = untraced).
  void SendDatagram(net::NodeId dst, Bytes payload, uint64_t trace = 0,
                    uint64_t span = 0);

  /// Simulates a node crash: all connection state vanishes (it lives in
  /// volatile memory) and the incarnation number advances so that pre-
  /// crash packets can never be confused with new-connection traffic.
  void Crash();

  net::NodeId id() const { return id_; }
  /// Current incarnation (advanced by Crash()). A reconstructor that
  /// wants packets from this life rejected must seed the replacement
  /// endpoint's `WireConfig::initial_incarnation` past this value.
  uint64_t incarnation() const { return incarnation_; }
  const WireConfig& config() const { return config_; }
  sim::Scheduler* simulator() { return sim_; }

  sim::Counter& packets_sent() { return packets_sent_; }
  sim::Counter& packets_received() { return packets_received_; }

  /// The transport frame is a fixed-size trailer appended to the payload
  /// (type, conn id, seq, alloc, payload length), so framing a message
  /// appends a few bytes in place instead of copying the payload into a
  /// fresh header-prefixed buffer. Same wire size as a header would be.
  /// Message encoders reserve this much headroom past the message.
  static constexpr size_t kFrameTrailerBytes = 1 + 8 + 8 + 8 + 4;

 private:
  friend class Connection;

  // Frame types of the low-level protocol.
  static constexpr uint8_t kSyn = 1;
  static constexpr uint8_t kSynAck = 2;
  static constexpr uint8_t kAck = 3;
  static constexpr uint8_t kData = 4;
  static constexpr uint8_t kWindow = 5;
  static constexpr uint8_t kReset = 6;
  static constexpr uint8_t kDatagram = 7;

  /// Sends a protocol frame, charging the CPU budget first. Takes the
  /// payload by value: the trailer is appended in place and the buffer
  /// becomes the packet's refcounted payload without a copy. `trace` and
  /// `span` ride along onto the Packet for the profiler.
  void SendFrame(net::NodeId dst, uint8_t frame_type, uint64_t conn_id,
                 uint64_t seq, uint64_t alloc, Bytes payload,
                 uint64_t trace = 0, uint64_t span = 0);

  void OnNicDeliver(const net::Packet& packet, net::Nic* nic);
  void ProcessPacket(const net::Packet& packet);
  uint64_t NewConnectionId();

  sim::Scheduler* sim_;
  sim::Cpu* cpu_;
  net::NodeId id_;
  WireConfig config_;
  uint64_t incarnation_;  // survives crash (kept in stable storage)
  uint64_t conn_counter_ = 0;
  /// False once destroyed. Packet work already queued on the node CPU
  /// can outlive the endpoint (a restarted client's old node is destroyed
  /// with packets in flight) and must then do nothing.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  size_t next_network_ = 0;
  std::vector<std::pair<net::Network*, net::Nic*>> networks_;
  /// Hash map, keyed by connection id: looked up once per received
  /// packet, and only ever iterated by Crash() (whose per-connection
  /// work is order-independent).
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  AcceptHandler accept_handler_;
  DatagramHandler datagram_handler_;
  sim::Counter packets_sent_;
  sim::Counter packets_received_;
};

}  // namespace dlog::wire

#endif  // DLOG_WIRE_CONNECTION_H_
