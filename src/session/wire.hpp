#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.hpp"

namespace acex::session {

/// Session control verbs exchanged beside the data stream. Heartbeats and
/// byes are fire-and-forget; hello/resume carry enough state for the
/// manager to (re)attach a subscriber.
enum class ControlKind : std::uint8_t {
  kHello = 1,      ///< client -> server: new session request
  kWelcome,        ///< server -> client: session id + resume token
  kHeartbeat,      ///< client -> server: liveness proof
  kResume,         ///< client -> server: re-attach, replay from resume_from
  kResumeOk,       ///< server -> client: gap replayed, stream continues
  kResumeFail,     ///< server -> client: gap evicted / token bad — restart
  kBye,            ///< client -> server: orderly departure, park immediately
};

struct ControlMsg {
  ControlKind kind = ControlKind::kHeartbeat;
  std::uint64_t session_id = 0;
  std::uint64_t token = 0;        ///< resume credential issued at connect
  std::uint64_t resume_from = 0;  ///< kResume: first sequence still needed
  std::string reason;             ///< kResumeFail/kBye: human-readable cause

  bool operator==(const ControlMsg&) const = default;
};

/// Wire form: magic byte 0xA5 | kind | varint session_id | varint token |
/// varint resume_from | varint reason size | reason | crc32 (LE) of
/// everything before it. Control messages cross the same faulted links as
/// data, so they carry their own integrity check.
Bytes control_encode(const ControlMsg& msg);

/// Throws DecodeError on truncation, bad magic, unknown kind, or CRC
/// mismatch.
ControlMsg control_decode(ByteView wire);

}  // namespace acex::session
