#pragma once

// acexd's message layer (DESIGN.md §13). Every daemon message rides the
// shared 4-byte length-prefixed framing of net/socket.hpp; inside the frame
// the first byte is the MsgKind, the rest the kind-specific payload:
//
//   kHello    client -> server  handshake::offer_encode bytes
//   kWelcome  server -> client  welcome_encode (session + negotiated params)
//   kReject   server -> client  reject_encode (typed status + reason)
//   kData     server -> client  one compressed frame, verbatim
//   kHeartbeat  client -> server  empty; proves the connection's own
//                                 session live (never acknowledged)
//   kNack     client -> server  nack_encode (sequences to replay)
//   kStatRequest  client -> server  empty; needs no kHello, opens no session
//   kStatReply    server -> client  obs::to_json_lines of the global registry
//
// There is no bye: a client leaves by closing its connection, which parks
// the session bound to it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/handshake.hpp"
#include "util/bytes.hpp"

namespace acex::net {

enum class MsgKind : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kReject = 3,
  kData = 4,
  kHeartbeat = 5,
  kNack = 6,
  kStatRequest = 7,
  kStatReply = 8,
};

std::string_view msg_kind_name(MsgKind kind) noexcept;

/// One decoded daemon message. `payload` is the bytes after the kind byte.
struct Msg {
  MsgKind kind = MsgKind::kHeartbeat;
  Bytes payload;
};

/// Prefix `payload` with the kind byte.
Bytes wrap(MsgKind kind, ByteView payload);

/// Split a received frame into kind + payload. Throws HandshakeError
/// (kMalformed) on empty frames or unknown kinds — a peer speaking a
/// different protocol is indistinguishable from corruption.
Msg unwrap(ByteView frame);

/// The server's answer to an accepted kHello: the session credentials the
/// client resumes with, plus the negotiated parameter set it must
/// configure its receiver around.
struct Welcome {
  std::uint64_t session_id = 0;
  std::uint64_t token = 0;
  std::uint64_t heartbeat_interval_ms = 500;
  bool resumed = false;          ///< this welcome answered a resume offer
  std::uint64_t replayed = 0;    ///< frames replayed to close the gap
  NegotiatedParams params;

  bool operator==(const Welcome&) const = default;
};

Bytes welcome_encode(const Welcome& welcome);
Welcome welcome_decode(ByteView payload);

/// The server's answer to a refused kHello; the connection closes after.
struct Reject {
  HandshakeStatus status = HandshakeStatus::kMalformed;
  std::string reason;

  bool operator==(const Reject&) const = default;
};

Bytes reject_encode(const Reject& reject);
Reject reject_decode(ByteView payload);

/// kNack payload: the frame sequences a client asks the server to replay
/// from its retransmit ring.
Bytes nack_encode(const std::vector<std::uint64_t>& sequences);
std::vector<std::uint64_t> nack_decode(ByteView payload);

}  // namespace acex::net
