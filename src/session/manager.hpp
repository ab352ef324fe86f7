#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "broker/broker.hpp"
#include "session/budget.hpp"
#include "session/deadline.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace acex::session {

using SessionId = std::uint64_t;

/// Session lifecycle (DESIGN.md §12):
///   live --(liveness_timeout)--> suspect --(suspect_grace)--> parked
///   parked --(park_grace)--> expired
/// A heartbeat returns live/suspect to live; resume() returns parked (or
/// suspect) to live with the gap replayed; expiry is terminal — the
/// record stays as a tombstone so a late resume gets a clean "restart"
/// instead of an unknown-session error.
enum class SessionState { kLive, kSuspect, kParked, kExpired };

std::string_view state_name(SessionState state) noexcept;

struct SessionConfig {
  broker::SubscriberConfig subscriber;
  /// No heartbeat for this long: live -> suspect.
  Seconds liveness_timeout = 2.0;
  /// Suspect for this long: parked (state kept warm, egress shed).
  Seconds suspect_grace = 1.0;
  /// Parked for this long: expired (state destroyed, resume refused).
  Seconds park_grace = 10.0;
  /// Advisory heartbeat cadence handed back to the client at connect.
  Seconds heartbeat_interval = 0.5;

  void validate() const;
};

struct ManagerConfig {
  broker::BrokerConfig broker;
  BudgetConfig budget;
  /// Seeds the resume-token generator (tokens must be deterministic under
  /// test, unguessable-ish in deployment).
  std::uint64_t token_seed = 0xACE55E551ull;
};

struct ConnectResult {
  bool accepted = false;
  SessionId session_id = 0;
  std::uint64_t token = 0;
  Seconds heartbeat_interval = 0;
  std::string reason;  ///< set when refused (overload ladder kRefuseNew)
};

struct ResumeResult {
  enum class Status {
    kResumed,   ///< gap replayed; stream continues byte-identically
    kRestart,   ///< session unrecoverable (expired / gap evicted) — the
                ///< caller reconnects fresh and restarts from a snapshot
    kRejected,  ///< unknown session or bad token; nothing changed
  };
  Status status = Status::kRejected;
  std::size_t replayed = 0;
  std::string reason;
};

/// One tick()'s lifecycle transitions, for callers that drive the sweep.
struct TickReport {
  std::size_t suspects = 0;
  std::size_t parks = 0;
  std::size_t expired = 0;
};

/// Aggregate ground-truth counters, mirrored to `acex.session.*`.
struct SessionCounters {
  std::uint64_t connects = 0;
  std::uint64_t refused = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t suspects = 0;
  std::uint64_t parks = 0;
  std::uint64_t resumes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t expired = 0;
  std::uint64_t shed = 0;  ///< parked sessions expired early by the ladder
};

/// Durable subscriber sessions over a FanoutBroker. The manager owns the
/// broker, issues session ids + resume tokens, tracks liveness deadlines
/// on the supplied clock, parks dead peers' state for a grace window, and
/// replays resume gaps from each subscriber's retransmit ring. It also
/// owns the process MemoryBudget and applies its degradation ladder:
/// codec downgrades through each sender's method_governor, egress
/// shedding, parked-session shedding, and subscribe refusal.
///
/// Thread safety: every public method may be called concurrently; the
/// manager serializes on one internal mutex and the broker below it (lock
/// order: manager, then broker — never the reverse).
class SessionManager {
 public:
  /// `clock` drives liveness deadlines and must outlive the manager; the
  /// chaos harness passes the shared VirtualClock.
  explicit SessionManager(const Clock& clock, ManagerConfig config = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Open a session over `transport` (which must outlive it or be swapped
  /// by resume()). Refused while the ladder sits at kRefuseNew.
  ConnectResult connect(transport::Transport& transport,
                        SessionConfig config = {});

  /// Liveness proof. Returns true and re-arms the deadline for live or
  /// suspect sessions with a matching token; false for parked (the client
  /// must resume()), expired, or unknown sessions and bad tokens.
  bool heartbeat(SessionId id, std::uint64_t token);

  /// The session's connection closed: park immediately, skipping
  /// suspect. The grace window still applies, so a quick reconnect
  /// resumes cleanly. It takes no token, so only the holder of the
  /// session's connection may call it (acexd binds each session to one
  /// connection, DESIGN.md §13).
  bool disconnect(SessionId id);

  /// Re-attach on a (new) transport, replaying `[resume_from, head)` so
  /// the resumed stream is byte-identical to one that never dropped.
  /// Falls back to kRestart when the session expired or the ring evicted
  /// the gap — the session is then expired and the caller reconnects.
  ResumeResult resume(SessionId id, std::uint64_t token,
                      std::uint64_t resume_from,
                      transport::Transport& transport);

  /// Sweep every session's deadline and apply lifecycle transitions.
  /// Call periodically (the heartbeat interval is a natural cadence).
  TickReport tick();

  /// Refresh the memory budget, apply the (possibly new) ladder stage,
  /// and publish one block to every non-expired session.
  void publish(ByteView block);

  /// Delivery pumps and NACK service, addressed by session id.
  std::size_t pump(SessionId id);
  std::size_t pump_all();
  std::size_t retransmit(SessionId id,
                         const std::vector<std::uint64_t>& sequences);

  SessionState state(SessionId id) const;
  broker::SubscriberStats subscriber_stats(SessionId id) const;
  DegradationStage stage() const {
    return static_cast<DegradationStage>(stage_.load());
  }
  SessionCounters counters() const;
  std::size_t live_count() const;
  std::size_t parked_count() const;

  MemoryBudget& budget() noexcept { return budget_; }
  broker::FanoutBroker& broker() noexcept { return broker_; }

 private:
  struct Session {
    SessionId id = 0;
    std::uint64_t token = 0;
    broker::SubscriberId subscriber = 0;
    SessionState state = SessionState::kLive;
    Deadline deadline;
    SessionConfig config;
  };

  MethodId govern(MethodId method) const noexcept;
  void apply_stage_locked(DegradationStage next);
  void park_locked(Session& s);
  void expire_locked(Session& s, bool shed);
  void set_gauges_locked();

  const Clock* clock_;
  ManagerConfig config_;
  broker::FanoutBroker broker_;
  MemoryBudget budget_;
  std::atomic<int> stage_{0};

  mutable std::mutex mutex_;
  std::map<SessionId, Session> sessions_;
  SessionId next_id_ = 1;
  Rng token_rng_;
  SessionCounters counters_;
};

}  // namespace acex::session
