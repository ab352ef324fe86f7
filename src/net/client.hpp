#pragma once

// Client half of the acexd protocol (DESIGN.md §13). DaemonClient owns the
// TCP socket and the wire protocol; the durable-session brain — heartbeat
// scheduling, resume cursor, reconnect pacing, the AdaptiveReceiver — is
// the existing session::SessionClient, driven here over a REAL socket
// instead of the in-process harness the session tests use.
//
// Inbound kData frames are queued on an InboundQueue (a Transport whose
// receive() pops the queue), which is what the SessionClient's receiver
// drains; decoded payload accumulates in stream().

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "session/client.hpp"
#include "transport/transport.hpp"
#include "util/crc32.hpp"

namespace acex::net {

/// Transport adapter between the socket demultiplexer and the
/// AdaptiveReceiver: receive() pops queued kData payloads (nullopt when
/// none pending — the receiver treats that as "drained for now").
class InboundQueue final : public transport::Transport {
 public:
  explicit InboundQueue(const Clock& clock) : clock_(&clock) {}

  void send(ByteView) override;  // throws: server-bound data never rides rx
  std::optional<Bytes> receive() override;
  const Clock& clock() const override { return *clock_; }

  void push(Bytes frame) { frames_.push_back(std::move(frame)); }
  std::size_t depth() const noexcept { return frames_.size(); }
  void clear() noexcept { frames_.clear(); }

 private:
  const Clock* clock_;
  std::deque<Bytes> frames_;
};

struct DaemonClientConfig {
  CompressionOffer offer;
  session::ClientConfig session;
  /// Bound on each wait for the daemon's answer to a hello (connect, resume).
  int io_timeout_ms = 5000;
};

/// One subscriber connection to an acexd. The constructor connects and
/// completes the handshake (throwing HandshakeError with the server's
/// typed status on a kReject); poll() then drives heartbeats, NACKs, and
/// data decode. Not thread-safe — one driving thread per client.
class DaemonClient {
 public:
  DaemonClient(std::uint16_t port, DaemonClientConfig config = {});

  /// The server's accepted handshake: session credentials + the negotiated
  /// parameter set (which may differ from the offer — the policy clamps).
  const Welcome& welcome() const noexcept { return welcome_; }
  const session::SessionClient& session() const noexcept { return session_; }
  bool connected() const noexcept { return fd_.valid(); }

  /// One I/O turn: send a heartbeat if due, flush pending NACKs, wait up
  /// to `timeout_ms` for inbound traffic, drain and decode it. Returns the
  /// number of decoded payload bytes appended to stream() by this call.
  /// A server close mid-poll marks the client dropped (connected() false).
  std::size_t poll(int timeout_ms);

  /// poll() until stream() holds at least `target_bytes` or `deadline_ms`
  /// elapses; true on reaching the target.
  bool poll_until(std::size_t target_bytes, int deadline_ms);

  /// Decoded payload bytes, in stream order, accumulated across polls
  /// (and across a kill/resume — byte identity is the invariant).
  const Bytes& stream() const noexcept { return stream_; }

  /// Raw kData frames received (pre-decode), for wire-level assertions.
  std::uint64_t data_frames() const noexcept { return data_frames_; }
  /// CRC32 over the concatenated raw kData frame bytes, in arrival order.
  std::uint32_t wire_crc() const noexcept;

  /// Orderly departure: send kBye, then close. The daemon parks the
  /// session immediately.
  void bye();

  /// Abrupt loss — close the socket WITHOUT a bye, as a killed process
  /// would. Session state (cursor, gaps) is kept for resume().
  void drop();

  /// Reconnect to `port` and resume the session from the receiver's
  /// cursor. Throws HandshakeError (kRestartRequired and friends) when the
  /// server cannot replay the gap. On success the stream continues with
  /// no gap and no duplicate.
  void resume(std::uint16_t port);

 private:
  void handshake(std::uint16_t port, const CompressionOffer& offer);
  void handle_inbound(Msg msg);
  std::size_t decode_available();
  void send_msg(MsgKind kind, ByteView payload);

  DaemonClientConfig config_;
  MonotonicClock clock_;
  ScopedFd fd_;
  InboundQueue rx_;
  session::SessionClient session_;
  Welcome welcome_;
  Bytes stream_;
  std::uint64_t data_frames_ = 0;
  Crc32 wire_crc_;
};

}  // namespace acex::net
