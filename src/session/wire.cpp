#include "session/wire.hpp"

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex::session {
namespace {

constexpr std::uint8_t kMagic = 0xA5;

bool kind_valid(std::uint8_t k) noexcept {
  return k >= static_cast<std::uint8_t>(ControlKind::kHello) &&
         k <= static_cast<std::uint8_t>(ControlKind::kBye);
}

}  // namespace

Bytes control_encode(const ControlMsg& msg) {
  Bytes out;
  out.push_back(kMagic);
  out.push_back(static_cast<std::uint8_t>(msg.kind));
  put_varint(out, msg.session_id);
  put_varint(out, msg.token);
  put_varint(out, msg.resume_from);
  put_varint(out, msg.reason.size());
  out.insert(out.end(), msg.reason.begin(), msg.reason.end());
  const std::uint32_t crc = crc32(ByteView(out.data(), out.size()));
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  return out;
}

ControlMsg control_decode(ByteView wire) {
  if (wire.size() < 2 + 4) {
    throw DecodeError("session control: truncated message");
  }
  const std::size_t body = wire.size() - 4;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(wire[body + i]) << (8 * i);
  }
  if (crc32(ByteView(wire.data(), body)) != stored) {
    throw DecodeError("session control: CRC mismatch");
  }
  if (wire[0] != kMagic) throw DecodeError("session control: bad magic");
  if (!kind_valid(wire[1])) {
    throw DecodeError("session control: unknown kind");
  }
  ControlMsg msg;
  msg.kind = static_cast<ControlKind>(wire[1]);
  std::size_t pos = 2;
  const ByteView payload(wire.data(), body);
  msg.session_id = get_varint(payload, &pos);
  msg.token = get_varint(payload, &pos);
  msg.resume_from = get_varint(payload, &pos);
  const std::uint64_t reason_size = get_varint(payload, &pos);
  if (reason_size != body - pos) {
    throw DecodeError("session control: bad reason length");
  }
  msg.reason.assign(reinterpret_cast<const char*>(payload.data()) + pos,
                    reason_size);
  return msg;
}

}  // namespace acex::session
