#include "net/protocol.hpp"

#include "util/varint.hpp"

namespace acex::net {

namespace {

constexpr std::size_t kMaxNackSequences = 4096;
constexpr std::size_t kMaxReasonBytes = 1024;

[[noreturn]] void malformed(const std::string& what) {
  throw HandshakeError(HandshakeStatus::kMalformed, what);
}

std::uint64_t take_varint(ByteView wire, std::size_t* pos, const char* field) {
  try {
    return get_varint(wire, pos);
  } catch (const Error&) {
    malformed(std::string("truncated ") + field);
  }
}

}  // namespace

std::string_view msg_kind_name(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::kHello: return "hello";
    case MsgKind::kWelcome: return "welcome";
    case MsgKind::kReject: return "reject";
    case MsgKind::kData: return "data";
    case MsgKind::kControl: return "control";
    case MsgKind::kNack: return "nack";
    case MsgKind::kStatRequest: return "stat-request";
    case MsgKind::kStatReply: return "stat-reply";
  }
  return "unknown";
}

Bytes wrap(MsgKind kind, ByteView payload) {
  Bytes out;
  out.reserve(1 + payload.size());
  out.push_back(static_cast<std::uint8_t>(kind));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Msg unwrap(ByteView frame) {
  if (frame.empty()) malformed("empty message");
  const std::uint8_t raw = frame[0];
  if (raw < static_cast<std::uint8_t>(MsgKind::kHello) ||
      raw > static_cast<std::uint8_t>(MsgKind::kStatReply)) {
    malformed("unknown message kind " + std::to_string(raw));
  }
  Msg msg;
  msg.kind = static_cast<MsgKind>(raw);
  msg.payload.assign(frame.begin() + 1, frame.end());
  return msg;
}

Bytes welcome_encode(const Welcome& welcome) {
  Bytes out;
  put_varint(out, welcome.session_id);
  put_varint(out, welcome.token);
  put_varint(out, welcome.heartbeat_interval_ms);
  out.push_back(welcome.resumed ? 1 : 0);
  put_varint(out, welcome.replayed);
  const Bytes params = params_encode(welcome.params);
  out.insert(out.end(), params.begin(), params.end());
  return out;
}

Welcome welcome_decode(ByteView payload) {
  std::size_t pos = 0;
  Welcome welcome;
  welcome.session_id = take_varint(payload, &pos, "session id");
  welcome.token = take_varint(payload, &pos, "token");
  welcome.heartbeat_interval_ms =
      take_varint(payload, &pos, "heartbeat interval");
  if (pos >= payload.size()) malformed("truncated welcome");
  welcome.resumed = payload[pos++] != 0;
  welcome.replayed = take_varint(payload, &pos, "replay count");
  welcome.params = params_decode(payload.subspan(pos));
  return welcome;
}

Bytes reject_encode(const Reject& reject) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(reject.status));
  put_varint(out, reject.reason.size());
  out.insert(out.end(), reject.reason.begin(), reject.reason.end());
  return out;
}

Reject reject_decode(ByteView payload) {
  if (payload.empty()) malformed("empty reject");
  std::size_t pos = 0;
  Reject reject;
  const std::uint8_t raw = payload[pos++];
  if (raw > static_cast<std::uint8_t>(HandshakeStatus::kUnsupportedPolicy)) {
    malformed("unknown reject status " + std::to_string(raw));
  }
  reject.status = static_cast<HandshakeStatus>(raw);
  const std::uint64_t len = take_varint(payload, &pos, "reason length");
  if (len > kMaxReasonBytes) malformed("reject reason too long");
  if (payload.size() - pos < len) malformed("truncated reject reason");
  reject.reason.assign(reinterpret_cast<const char*>(payload.data() + pos),
                       static_cast<std::size_t>(len));
  return reject;
}

Bytes nack_encode(const std::vector<std::uint64_t>& sequences) {
  Bytes out;
  put_varint(out, sequences.size());
  for (const std::uint64_t seq : sequences) put_varint(out, seq);
  return out;
}

std::vector<std::uint64_t> nack_decode(ByteView payload) {
  std::size_t pos = 0;
  const std::uint64_t n = take_varint(payload, &pos, "nack count");
  if (n > kMaxNackSequences) malformed("nack list too long");
  std::vector<std::uint64_t> sequences;
  sequences.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    sequences.push_back(take_varint(payload, &pos, "nack sequence"));
  }
  return sequences;
}

}  // namespace acex::net
