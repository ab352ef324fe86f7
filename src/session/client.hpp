#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "adaptive/pipeline.hpp"
#include "session/deadline.hpp"
#include "session/reconnect.hpp"
#include "util/clock.hpp"

namespace acex::session {

struct ClientConfig {
  ReconnectConfig reconnect;
  /// Heartbeat cadence; the server's advisory interval from
  /// ConnectResult normally overwrites this at on_connected().
  Seconds heartbeat_interval = 0.5;
  adaptive::ReceiverConfig receiver{adaptive::RecoveryPolicy::kNack};
};

/// The subscriber's half of a durable session: owns the AdaptiveReceiver
/// (whose sequence cursor IS the resume cursor), schedules heartbeats on a
/// Deadline, and paces reconnect attempts through a ReconnectPolicy. The
/// harness/app drives it: this class tracks state but never touches a
/// socket itself — the caller sends each due heartbeat and reports it
/// with heartbeat_sent().
class SessionClient {
 public:
  explicit SessionClient(const Clock& clock, ClientConfig config = {},
                         std::uint64_t seed = 1);

  /// Server accepted the session: bind the receive transport, adopt the
  /// advisory heartbeat interval (when positive), start the heartbeat
  /// schedule. Creates a FRESH receiver — a connect is a new stream.
  void on_connected(std::uint64_t session_id, std::uint64_t token,
                    transport::Transport& rx,
                    Seconds heartbeat_interval = 0);

  /// Link declared dead: stop heartbeating, start the backoff schedule.
  /// The receiver (and its cursor) is kept — that is the whole point.
  void on_dropped();

  /// Server resumed this session: rebind the receiver to the new link and
  /// reset the backoff for the next incident. Pass the (possibly fresh)
  /// token the server handed back.
  void on_resumed(transport::Transport& rx, std::uint64_t token);

  /// Delay before the next reconnect attempt; nullopt when the policy has
  /// exhausted its attempts and the session should be abandoned.
  std::optional<Seconds> next_retry_delay();

  /// First sequence this client still needs — what resume() replays from.
  std::uint64_t resume_from() const;

  /// True when the heartbeat schedule says one is due (connected only).
  bool heartbeat_due() const;

  /// A heartbeat went out: re-arm the schedule.
  void heartbeat_sent();

  bool connected() const noexcept { return connected_; }
  std::uint64_t session_id() const noexcept { return session_id_; }
  std::uint64_t token() const noexcept { return token_; }
  std::size_t reconnect_attempts() const noexcept {
    return reconnect_.attempts();
  }

  /// The live receiver; null before the first on_connected().
  adaptive::AdaptiveReceiver* receiver() noexcept { return receiver_.get(); }

 private:
  const Clock* clock_;
  ClientConfig config_;
  ReconnectPolicy reconnect_;
  std::unique_ptr<adaptive::AdaptiveReceiver> receiver_;
  Deadline heartbeat_due_;
  std::uint64_t session_id_ = 0;
  std::uint64_t token_ = 0;
  Seconds heartbeat_interval_ = 0;
  bool connected_ = false;
};

}  // namespace acex::session
