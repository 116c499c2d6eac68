// Shared identifiers and configuration for the simulated cluster network:
// node ids, frame kinds, the message payload, the transport frame and the
// testbed's network parameters.
//
// A message in flight is one heap block (its Payload) plus fixed-size
// records that refer to it: a 24-byte Frame in each network hop's event,
// a 24-byte slot in its connection's ring of owed frames, and a 24-byte
// entry in a retransmission timer line.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "sim/time.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace vodsm::net {

using NodeId = uint32_t;

// Message kinds on the wire. Shared between the transport (which sends
// them) and the network model (which reads them to attribute drops).
enum class FrameKind : uint8_t {
  kData = 0,
  kRequest = 1,
  kReply = 2,
  kAck = 3
};

// One message's bytes, encoded once by its sender. Every frame that carries
// the message (the original, each resend, a cached reply, a forward) and
// the delivery its handler sees share this buffer; none copies it.
//
// A payload is one heap block: a reference count, the size, then the bytes.
// The count is a plain integer because a cell runs on one thread and no
// payload crosses cells. Null is "no payload" (an ack); an empty message
// is a block of size 0.
class Payload {
 public:
  Payload() = default;
  Payload(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Payload(const Payload& o) noexcept : b_(o.b_) {
    if (b_) ++b_->refs;
  }
  Payload(Payload&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  Payload& operator=(Payload o) noexcept {
    std::swap(b_, o.b_);
    return *this;
  }
  ~Payload() { reset(); }

  // A payload of `n` bytes, which `fill(MutByteSpan)` writes before anyone
  // else can see them.
  template <typename F>
  static Payload make(size_t n, F&& fill) {
    VODSM_CHECK(n <= UINT32_MAX);
    Payload p;
    p.b_ = ::new (::operator new(sizeof(Block) + n))
        Block{1, static_cast<uint32_t>(n)};
    fill(MutByteSpan(p.b_->bytes(), n));
    return p;
  }

  explicit operator bool() const { return b_ != nullptr; }
  size_t size() const { return b_->size; }
  const std::byte* data() const { return b_->bytes(); }
  ByteSpan bytes() const { return {data(), size()}; }

  void reset() {
    if (b_ && --b_->refs == 0) ::operator delete(b_);
    b_ = nullptr;
  }

 private:
  struct Block {
    uint32_t refs;
    uint32_t size;
    std::byte* bytes() { return reinterpret_cast<std::byte*>(this + 1); }
  };

  Block* b_ = nullptr;
};

// A payload holding a copy of `bytes`.
inline Payload share(ByteSpan bytes) {
  return Payload::make(bytes.size(), [bytes](MutByteSpan out) {
    std::copy(bytes.begin(), bytes.end(), out.begin());
  });
}

// A transport frame. Frames never leave the process, so the header is these
// fields rather than bytes; the wire is still charged for the header a real
// datagram would carry: kind (1 byte), sequence number (8), message type (2)
// and payload length (4), or only kind and sequence number for an ack.
struct Frame {
  FrameKind kind = FrameKind::kData;
  uint16_t type = 0;  // protocol message type; 0 on acks
  uint64_t seq = 0;   // the connection's sequence number
  Payload payload;    // null on acks

  size_t size() const {
    return kind == FrameKind::kAck ? 9 : 15 + payload.size();
  }
};
// The network's hops capture [this, src, dst, frame] in the engine's 48
// inline callback bytes.
static_assert(sizeof(Frame) == 24, "a frame is three words");

// Models the paper's testbed: a 100 Mbps N-way switched Ethernet connecting
// Linux PCs, with UDP-style user-level reliability. Every parameter is
// explicit so experiments can ablate them.
struct NetConfig {
  // Per-link, full-duplex bandwidth in bits/second.
  double bandwidth_bps = 100e6;
  // One-way wire + switch cut-through latency.
  sim::Time wire_latency = sim::usec(30);
  // Software cost to push one datagram through the sending stack:
  // fixed syscall/interrupt part plus a copy cost per KB.
  sim::Time send_base = sim::usec(15);
  sim::Time send_per_kb = sim::usec(8);
  // Software cost to pull one datagram out of the receiving stack (same
  // shape). This is also the NIC rx queue's service time, so fan-in bursts
  // faster than the service rate overflow the queue and drop frames.
  sim::Time recv_base = sim::usec(15);
  sim::Time recv_per_kb = sim::usec(8);

  sim::Time sendOverhead(size_t payload) const {
    return send_base +
           send_per_kb * static_cast<sim::Time>(payload / 1024 + 1);
  }
  sim::Time recvOverhead(size_t payload) const {
    return recv_base +
           recv_per_kb * static_cast<sim::Time>(payload / 1024 + 1);
  }
  // Ethernet + IP + UDP header bytes charged per wire fragment.
  size_t header_bytes = 42;
  // Maximum payload bytes per wire fragment (Ethernet MTU minus headers).
  size_t mtu_payload = 1458;
  // NIC receive queue capacity in frames; arrivals beyond this are dropped
  // (tail drop), which is what turns barrier fan-in bursts into the paper's
  // "Rexmit" retransmissions.
  int rx_queue_frames = 256;
  // Uniform random frame loss probability (cable-level noise).
  double random_loss = 0.0;
  // Retransmission timeout for the reliable transport. The paper observes
  // that one retransmission costs about one second of waiting.
  sim::Time rto = sim::sec(1);

  // Wire bytes for a message of `payload` logical bytes (fragment headers
  // included).
  size_t wireBytes(size_t payload) const {
    size_t frags = payload == 0 ? 1 : (payload + mtu_payload - 1) / mtu_payload;
    return payload + frags * header_bytes;
  }

  // Serialization time of `payload` logical bytes onto one link.
  sim::Time txTime(size_t payload) const {
    double bits = static_cast<double>(wireBytes(payload)) * 8.0;
    return static_cast<sim::Time>(bits / bandwidth_bps * sim::kSecond);
  }
};

}  // namespace vodsm::net
