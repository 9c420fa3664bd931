#include "wire/connection.h"

#include <cassert>
#include <utility>

namespace dlog::wire {

// --- Connection ---

Connection::Connection(Endpoint* endpoint, net::NodeId peer,
                       uint64_t conn_id, bool initiator)
    : endpoint_(endpoint),
      peer_(peer),
      conn_id_(conn_id),
      initiator_(initiator),
      state_(initiator ? State::kSynSent : State::kSynReceived),
      window_(endpoint->config().adaptive_window) {}

uint64_t Connection::CurrentGrant() const {
  return recv_highest_seen_ + endpoint_->config().window_packets;
}

void Connection::StartHandshake() {
  assert(initiator_);
  ++handshake_attempts_;
  endpoint_->SendFrame(peer_, Endpoint::kSyn, conn_id_, 0, CurrentGrant(),
                       {});
  handshake_timer_ = endpoint_->simulator()->After(
      endpoint_->config().handshake_retry, [this]() { HandshakeTimeout(); });
}

void Connection::HandshakeTimeout() {
  handshake_timer_ = 0;
  if (state_ != State::kSynSent) return;
  if (handshake_attempts_ >= endpoint_->config().handshake_max_retries) {
    Close();
    return;
  }
  StartHandshake();
}

void Connection::Send(Bytes payload, uint64_t trace, uint64_t span) {
  if (state_ == State::kClosed) return;
  // The message encoders leave kFrameTrailerBytes of headroom, so for
  // their buffers this reserve is a no-op and framing at flush time
  // appends the trailer in place. A payload without that headroom is
  // moved to a larger buffer here, once.
  payload.reserve(payload.size() + Endpoint::kFrameTrailerBytes);
  send_queue_.push_back({std::move(payload), trace, span});
  TryFlush();
}

void Connection::NoteAllocation(uint64_t alloc) {
  if (alloc <= peer_allocation_) return;
  peer_allocation_ = alloc;
  if (inflight_.empty()) return;
  const uint64_t window_packets = endpoint_->config().window_packets;
  if (alloc <= window_packets) return;
  // The peer grants `highest seq seen + window_packets`, so this advance
  // acknowledges every injected seq <= alloc - window_packets (including
  // seqs the network lost — they will never be acked any other way and
  // must not pin the adaptive window).
  const uint64_t acked = alloc - window_packets;
  size_t acked_bytes = 0;
  for (auto it = inflight_.begin();
       it != inflight_.end() && it->first <= acked;) {
    acked_bytes += it->second;
    it = inflight_.erase(it);
  }
  if (acked_bytes > 0) {
    bytes_in_flight_ -= acked_bytes;
    window_.OnAck(acked_bytes);
  }
}

void Connection::RecordInflight(uint64_t seq, size_t bytes) {
  if (!window_.enabled()) return;
  inflight_[seq] = bytes;
  bytes_in_flight_ += bytes;
}

void Connection::NoteOverload() {
  window_.OnCongestion(endpoint_->simulator()->Now());
}

void Connection::TryFlush() {
  if (state_ != State::kEstablished) return;
  while (!send_queue_.empty() && next_send_seq_ <= peer_allocation_ &&
         window_.Allows(bytes_in_flight_, send_queue_.front().payload.size())) {
    Outgoing out = std::move(send_queue_.front());
    send_queue_.pop_front();
    const uint64_t seq = next_send_seq_++;
    RecordInflight(seq, out.payload.size());
    endpoint_->SendFrame(peer_, Endpoint::kData, conn_id_, seq,
                         CurrentGrant(), std::move(out.payload), out.trace,
                         out.span);
    last_advertised_grant_ = CurrentGrant();
  }
  if (!send_queue_.empty()) {
    ArmOverrideTimer();
  } else if (override_timer_ != 0) {
    endpoint_->simulator()->Cancel(override_timer_);
    override_timer_ = 0;
  }
}

void Connection::ArmOverrideTimer() {
  if (override_timer_ != 0) return;
  override_timer_ = endpoint_->simulator()->After(
      endpoint_->config().allocation_override_delay, [this]() {
        override_timer_ = 0;
        if (state_ != State::kEstablished || send_queue_.empty()) return;
        // Going a full override delay without allocation progress is this
        // transport's timeout signal: shrink the adaptive window.
        window_.OnCongestion(endpoint_->simulator()->Now());
        // Exceed the allocation with a single packet after the mandated
        // pause; the receiver may drop it if genuinely overrun.
        Outgoing out = std::move(send_queue_.front());
        send_queue_.pop_front();
        const uint64_t seq = next_send_seq_++;
        RecordInflight(seq, out.payload.size());
        endpoint_->SendFrame(peer_, Endpoint::kData, conn_id_, seq,
                             CurrentGrant(), std::move(out.payload),
                             out.trace, out.span);
        last_advertised_grant_ = CurrentGrant();
        if (!send_queue_.empty()) ArmOverrideTimer();
      });
}

void Connection::GrantWindowIfNeeded(bool force) {
  const uint64_t grant = CurrentGrant();
  // Refresh the peer's allocation before it can run dry: at most half the
  // window may be un-advertised, whatever the configured threshold.
  const uint64_t threshold =
      std::max<uint64_t>(1, std::min(endpoint_->config().window_update_threshold,
                                     endpoint_->config().window_packets / 2));
  if (force || grant >= last_advertised_grant_ + threshold) {
    endpoint_->SendFrame(peer_, Endpoint::kWindow, conn_id_, 0, grant, {});
    last_advertised_grant_ = grant;
  }
}

void Connection::OnFrame(uint8_t frame_type, uint64_t seq, uint64_t alloc,
                         const SharedBytes& payload) {
  if (state_ == State::kClosed) return;
  switch (frame_type) {
    case Endpoint::kSynAck:
      if (!initiator_) return;
      NoteAllocation(alloc);
      if (state_ == State::kSynSent) {
        state_ = State::kEstablished;
        if (handshake_timer_ != 0) {
          endpoint_->simulator()->Cancel(handshake_timer_);
          handshake_timer_ = 0;
        }
        // Third leg of the handshake.
        endpoint_->SendFrame(peer_, Endpoint::kAck, conn_id_, 0,
                             CurrentGrant(), {});
        last_advertised_grant_ = CurrentGrant();
      } else {
        // Duplicate SYN_ACK: re-acknowledge.
        endpoint_->SendFrame(peer_, Endpoint::kAck, conn_id_, 0,
                             CurrentGrant(), {});
      }
      TryFlush();
      return;
    case Endpoint::kAck:
      if (initiator_) return;
      NoteAllocation(alloc);
      if (state_ == State::kSynReceived) state_ = State::kEstablished;
      TryFlush();
      return;
    case Endpoint::kWindow:
      NoteAllocation(alloc);
      // Data arriving implies the peer considers us established.
      if (state_ == State::kSynReceived) state_ = State::kEstablished;
      TryFlush();
      return;
    case Endpoint::kData: {
      NoteAllocation(alloc);
      if (state_ == State::kSynReceived) state_ = State::kEstablished;
      // Duplicate detection on permanently unique sequence numbers.
      bool duplicate = false;
      if (seq <= recv_cumulative_ || recv_out_of_order_.count(seq) > 0) {
        duplicate = true;
      } else if (seq == recv_cumulative_ + 1) {
        ++recv_cumulative_;
        while (recv_out_of_order_.erase(recv_cumulative_ + 1) > 0) {
          ++recv_cumulative_;
        }
      } else {
        recv_out_of_order_.insert(seq);
        // Bound the gap set: sequences the transport lost will never be
        // retransmitted (only re-sent as new payloads under new seqs), so
        // collapsing old gaps into the cumulative mark is safe.
        constexpr size_t kMaxGapSet = 1024;
        if (recv_out_of_order_.size() > kMaxGapSet) {
          recv_cumulative_ = *recv_out_of_order_.rbegin();
          recv_out_of_order_.clear();
        }
      }
      recv_highest_seen_ = std::max(recv_highest_seen_, seq);
      if (duplicate) {
        duplicates_dropped_.Increment();
        GrantWindowIfNeeded(/*force=*/false);
        return;
      }
      GrantWindowIfNeeded(/*force=*/false);
      if (message_handler_) message_handler_(payload);
      TryFlush();
      return;
    }
    default:
      return;
  }
}

void Connection::Close() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  if (handshake_timer_ != 0) {
    endpoint_->simulator()->Cancel(handshake_timer_);
    handshake_timer_ = 0;
  }
  if (override_timer_ != 0) {
    endpoint_->simulator()->Cancel(override_timer_);
    override_timer_ = 0;
  }
  send_queue_.clear();
  if (close_handler_) close_handler_();
}

// --- Endpoint ---

Endpoint::Endpoint(sim::Scheduler* sim, sim::Cpu* cpu, net::NodeId id,
                   const WireConfig& config)
    : sim_(sim),
      cpu_(cpu),
      id_(id),
      config_(config),
      incarnation_(config.initial_incarnation) {}

void Endpoint::AttachNetwork(net::Network* network, net::Nic* nic) {
  networks_.emplace_back(network, nic);
  nic->SetHandler(
      [this, nic](const net::Packet& packet) { OnNicDeliver(packet, nic); });
}

uint64_t Endpoint::NewConnectionId() {
  ++conn_counter_;
  return (static_cast<uint64_t>(id_) << 48) | (incarnation_ << 32) |
         conn_counter_;
}

Connection* Endpoint::Connect(net::NodeId peer) {
  const uint64_t conn_id = NewConnectionId();
  auto conn = std::unique_ptr<Connection>(
      new Connection(this, peer, conn_id, /*initiator=*/true));
  Connection* raw = conn.get();
  connections_[conn_id] = std::move(conn);
  raw->StartHandshake();
  return raw;
}

void Endpoint::Crash() {
  // Volatile connection state is lost; the incarnation (modeling a tiny
  // stable counter) ensures packets from the previous life are rejected
  // as addressing unknown connections.
  for (auto& [id, conn] : connections_) {
    conn->state_ = Connection::State::kClosed;
    if (conn->handshake_timer_ != 0) sim_->Cancel(conn->handshake_timer_);
    if (conn->override_timer_ != 0) sim_->Cancel(conn->override_timer_);
  }
  connections_.clear();
  ++incarnation_;
  conn_counter_ = 0;
}

void Endpoint::SendFrame(net::NodeId dst, uint8_t frame_type,
                         uint64_t conn_id, uint64_t seq, uint64_t alloc,
                         Bytes payload, uint64_t trace, uint64_t span) {
  // Frame in place: append the trailer to the payload buffer (reserved
  // headroom makes this a plain append) and hand the buffer itself to
  // the packet. The payload length is stored explicitly so a truncated
  // or corrupt packet is detected before slicing.
  const uint32_t payload_len = static_cast<uint32_t>(payload.size());
  payload.reserve(payload.size() + kFrameTrailerBytes);
  Encoder enc(&payload);
  enc.PutU8(frame_type);
  enc.PutU64(conn_id);
  enc.PutU64(seq);
  enc.PutU64(alloc);
  enc.PutU32(payload_len);
  SharedBytes frame(std::move(payload));

  packets_sent_.Increment();
  // Charge the transmission path CPU cost, then hand to a network.
  cpu_->Execute(config_.instructions_per_packet,
                [this, alive = alive_, dst, frame = std::move(frame), trace,
                 span]() mutable {
                  if (!*alive || networks_.empty()) return;
                  auto& [network, nic] = networks_[next_network_];
                  next_network_ = (next_network_ + 1) % networks_.size();
                  if (!nic->IsUp()) return;  // crashed node sends nothing
                  net::Packet packet;
                  packet.src = id_;
                  packet.dst = dst;
                  packet.payload = std::move(frame);
                  packet.trace = trace;
                  packet.span = span;
                  network->Send(packet);
                });
}

void Endpoint::SendDatagram(net::NodeId dst, Bytes payload, uint64_t trace,
                            uint64_t span) {
  SendFrame(dst, kDatagram, 0, 0, 0, std::move(payload), trace, span);
}

void Endpoint::OnNicDeliver(const net::Packet& packet, net::Nic* nic) {
  // Hold the ring slot until the CPU has processed the packet; this is
  // what makes back-to-back bursts overflow small NICs (Section 4.1).
  cpu_->Execute(config_.instructions_per_packet,
                [this, alive = alive_, packet, nic]() {
                  if (!*alive) return;
                  ProcessPacket(packet);
                  nic->CompleteReceive();
                });
}

void Endpoint::ProcessPacket(const net::Packet& packet) {
  packets_received_.Increment();
  const SharedBytes& buf = packet.payload;
  if (buf.size() < kFrameTrailerBytes) {
    return;  // malformed packet; the medium is unreliable anyway
  }
  Decoder dec(buf.data() + buf.size() - kFrameTrailerBytes,
              kFrameTrailerBytes);
  auto frame_type = dec.GetU8();
  auto conn_id = dec.GetU64();
  auto seq = dec.GetU64();
  auto alloc = dec.GetU64();
  auto payload_len = dec.GetU32();
  if (!frame_type.ok() || !conn_id.ok() || !seq.ok() || !alloc.ok() ||
      !payload_len.ok() ||
      *payload_len != buf.size() - kFrameTrailerBytes) {
    return;  // malformed packet
  }
  // Zero-copy: the payload is a view into the arriving packet buffer,
  // shared up through envelope and record decoding.
  SharedBytes payload = buf.Slice(0, *payload_len);

  if (*frame_type == kDatagram) {
    if (datagram_handler_) datagram_handler_(packet.src, payload);
    return;
  }

  auto it = connections_.find(*conn_id);
  if (it == connections_.end()) {
    if (*frame_type == kSyn) {
      // Passive open.
      auto conn = std::unique_ptr<Connection>(
          new Connection(this, packet.src, *conn_id, /*initiator=*/false));
      Connection* raw = conn.get();
      raw->peer_allocation_ = *alloc;
      connections_[*conn_id] = std::move(conn);
      SendFrame(packet.src, kSynAck, *conn_id, 0, raw->CurrentGrant(), {});
      raw->last_advertised_grant_ = raw->CurrentGrant();
      if (accept_handler_) accept_handler_(raw);
    } else if (*frame_type != kReset) {
      // Unknown connection (e.g., we crashed): tell the peer.
      SendFrame(packet.src, kReset, *conn_id, 0, 0, {});
    }
    return;
  }

  Connection* conn = it->second.get();
  if (*frame_type == kReset) {
    conn->Close();
    return;
  }
  if (*frame_type == kSyn) {
    // Duplicate SYN for an existing connection: re-answer.
    SendFrame(packet.src, kSynAck, *conn_id, 0, conn->CurrentGrant(), {});
    return;
  }
  conn->OnFrame(*frame_type, *seq, *alloc, payload);
}

}  // namespace dlog::wire
