#include "session/manager.hpp"

#include <utility>

#include "adaptive/decision.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace acex::session {
namespace {

struct SessionMetrics {
  obs::Counter& connects;
  obs::Counter& refused;
  obs::Counter& heartbeats;
  obs::Counter& suspects;
  obs::Counter& parks;
  obs::Counter& resumes;
  obs::Counter& restarts;
  obs::Counter& expired;
  obs::Counter& shed;
  obs::Gauge& live;
  obs::Gauge& parked;
};

SessionMetrics& session_metrics() {
  auto& r = obs::MetricsRegistry::global();
  static SessionMetrics m{
      r.counter("acex.session.connects"),
      r.counter("acex.session.refused"),
      r.counter("acex.session.heartbeats"),
      r.counter("acex.session.suspects"),
      r.counter("acex.session.parks"),
      r.counter("acex.session.resumes"),
      r.counter("acex.session.restarts"),
      r.counter("acex.session.expired"),
      r.counter("acex.session.shed"),
      r.gauge("acex.session.live"),
      r.gauge("acex.session.parked"),
  };
  return m;
}

}  // namespace

std::string_view state_name(SessionState state) noexcept {
  switch (state) {
    case SessionState::kLive: return "live";
    case SessionState::kSuspect: return "suspect";
    case SessionState::kParked: return "parked";
    case SessionState::kExpired: return "expired";
  }
  return "?";
}

void SessionConfig::validate() const {
  if (liveness_timeout <= 0 || heartbeat_interval <= 0) {
    throw ConfigError("session: liveness_timeout and heartbeat_interval "
                      "must be positive");
  }
  if (suspect_grace < 0 || park_grace < 0) {
    throw ConfigError("session: grace windows must be >= 0");
  }
}

SessionManager::SessionManager(const Clock& clock, ManagerConfig config)
    : clock_(&clock),
      config_(std::move(config)),
      broker_(config_.broker),
      budget_(config_.budget),
      token_rng_(config_.token_seed) {
  session_metrics();  // an idle manager still exports every acex.session.*
}

SessionManager::~SessionManager() = default;

MethodId SessionManager::govern(MethodId method) const noexcept {
  const auto stage = static_cast<DegradationStage>(stage_.load());
  if (stage == DegradationStage::kNormal) return method;
  if (stage >= DegradationStage::kNullCodec) return MethodId::kNone;
  // kCheaperCodec: one rung down the adaptive ladder — trade ratio for
  // CPU and buffer space, the Ferragina–Tosoni frontier slide.
  const std::size_t rung = adaptive::decision_ladder_rung(method);
  if (rung == 0 || rung == adaptive::kDecisionLadder.size()) {
    return method;  // kNone and off-ladder methods unchanged
  }
  return adaptive::kDecisionLadder[rung - 1];
}

ConnectResult SessionManager::connect(transport::Transport& transport,
                                      SessionConfig config) {
  config.validate();
  std::lock_guard<std::mutex> lock(mutex_);
  if (stage() >= DegradationStage::kRefuseNew) {
    ++counters_.refused;
    session_metrics().refused.add(1);
    ConnectResult refused;
    refused.reason = "overloaded: refusing new sessions";
    return refused;
  }
  // The governor hook is how the ladder reaches into every subscriber's
  // plan step; it reads one atomic, so calling it from the publish thread
  // under the subscriber's sender lock is safe. A caller-supplied governor
  // (the daemon's negotiated method allowlist) is COMPOSED, not replaced:
  // the ladder demotes first, the user governor runs last, so an overload
  // downgrade can never land on a method the client did not negotiate.
  config.subscriber.adaptive.method_governor =
      [this, user = std::move(config.subscriber.adaptive.method_governor)](
          MethodId m) { return user ? user(govern(m)) : govern(m); };

  Session s;
  s.id = next_id_++;
  s.token = token_rng_();
  s.config = config;
  if (config.subscriber.name.empty()) {
    config.subscriber.name = "session-" + std::to_string(s.id);
  }
  s.subscriber = broker_.subscribe(transport, config.subscriber);
  s.state = SessionState::kLive;
  s.deadline = Deadline(*clock_, config.liveness_timeout);
  // The ladder may already demand shedding; a newcomer is not exempt.
  if (stage() >= DegradationStage::kDropOldest) {
    broker_.set_shed(s.subscriber, true);
  }

  ConnectResult result;
  result.accepted = true;
  result.session_id = s.id;
  result.token = s.token;
  result.heartbeat_interval = config.heartbeat_interval;
  sessions_.emplace(s.id, std::move(s));
  ++counters_.connects;
  session_metrics().connects.add(1);
  set_gauges_locked();
  return result;
}

bool SessionManager::heartbeat(SessionId id, std::uint64_t token) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second.token != token) return false;
  Session& s = it->second;
  if (s.state != SessionState::kLive && s.state != SessionState::kSuspect) {
    // Parked or expired: a heartbeat alone cannot re-attach a transport;
    // the client must resume().
    return false;
  }
  s.state = SessionState::kLive;
  s.deadline.extend(*clock_, s.config.liveness_timeout);
  ++counters_.heartbeats;
  session_metrics().heartbeats.add(1);
  set_gauges_locked();
  return true;
}

bool SessionManager::disconnect(SessionId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session& s = it->second;
  if (s.state != SessionState::kLive && s.state != SessionState::kSuspect) {
    return false;
  }
  park_locked(s);
  set_gauges_locked();
  return true;
}

ResumeResult SessionManager::resume(SessionId id, std::uint64_t token,
                                    std::uint64_t resume_from,
                                    transport::Transport& transport) {
  std::lock_guard<std::mutex> lock(mutex_);
  ResumeResult result;
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    result.reason = "unknown session";
    return result;
  }
  Session& s = it->second;
  if (s.token != token) {
    result.reason = "bad resume token";
    return result;
  }
  if (s.state == SessionState::kExpired) {
    result.status = ResumeResult::Status::kRestart;
    result.reason = "session expired past its grace window";
    ++counters_.restarts;
    session_metrics().restarts.add(1);
    return result;
  }
  // A client can reconnect before the server even noticed the drop; park
  // first so resume always starts from the same (shed, unpumped) shape.
  if (s.state != SessionState::kParked) park_locked(s);

  const broker::BrokerResume br =
      broker_.resume(s.subscriber, transport, resume_from);
  if (!br.ok) {
    // The ring evicted part of the gap: this incarnation can never be
    // made whole, so it dies here and the caller restarts from scratch.
    expire_locked(s, false);
    set_gauges_locked();
    result.status = ResumeResult::Status::kRestart;
    result.reason = "resume gap evicted from the retransmit ring";
    ++counters_.restarts;
    session_metrics().restarts.add(1);
    return result;
  }
  s.state = SessionState::kLive;
  s.deadline.extend(*clock_, s.config.liveness_timeout);
  if (stage() >= DegradationStage::kDropOldest) {
    broker_.set_shed(s.subscriber, true);
  }
  ++counters_.resumes;
  session_metrics().resumes.add(1);
  set_gauges_locked();
  result.status = ResumeResult::Status::kResumed;
  result.replayed = br.replayed;
  return result;
}

TickReport SessionManager::tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  TickReport report;
  for (auto& [id, s] : sessions_) {
    if (!s.deadline.expired(*clock_)) continue;
    switch (s.state) {
      case SessionState::kLive:
        s.state = SessionState::kSuspect;
        s.deadline.extend(*clock_, s.config.suspect_grace);
        ++counters_.suspects;
        session_metrics().suspects.add(1);
        ++report.suspects;
        break;
      case SessionState::kSuspect:
        park_locked(s);
        ++report.parks;
        break;
      case SessionState::kParked:
        expire_locked(s, false);
        ++report.expired;
        break;
      case SessionState::kExpired:
        break;
    }
  }
  set_gauges_locked();
  return report;
}

void SessionManager::publish(ByteView block) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The budget sees exactly what the broker holds: every subscriber's
    // queued egress frames plus its retransmit ring — live AND parked,
    // which is what makes parked state a first-class citizen of the
    // envelope. Share-aware: N queues and rings retaining views of ONE
    // shared-encode buffer (or shm slab) charge it once, so zero-copy
    // fan-out cannot falsely trip the overload ladder (DESIGN.md §16).
    apply_stage_locked(
        budget_.refresh_with(broker_.memory_usage_unique()));
  }
  // Broker locks are taken strictly after (never inside) the manager's.
  broker_.publish(block);
}

void SessionManager::apply_stage_locked(DegradationStage next) {
  const auto prev = static_cast<DegradationStage>(
      stage_.exchange(static_cast<int>(next)));
  const bool shed_now = next >= DegradationStage::kDropOldest;
  if (shed_now != (prev >= DegradationStage::kDropOldest)) {
    for (auto& [id, s] : sessions_) {
      if (s.state == SessionState::kLive ||
          s.state == SessionState::kSuspect) {
        broker_.set_shed(s.subscriber, shed_now);
      }
    }
  }
  if (next >= DegradationStage::kShedParked) {
    // Applied every refresh, not just on the edge: a session parked while
    // the stage holds is shed at the next publish.
    for (auto& [id, s] : sessions_) {
      if (s.state == SessionState::kParked) expire_locked(s, true);
    }
    set_gauges_locked();
  }
}

void SessionManager::park_locked(Session& s) {
  broker_.park(s.subscriber);
  s.state = SessionState::kParked;
  s.deadline.extend(*clock_, s.config.park_grace);
  ++counters_.parks;
  session_metrics().parks.add(1);
}

void SessionManager::expire_locked(Session& s, bool shed) {
  broker_.unsubscribe(s.subscriber);
  s.state = SessionState::kExpired;
  s.deadline.disarm();
  ++counters_.expired;
  session_metrics().expired.add(1);
  if (shed) {
    ++counters_.shed;
    session_metrics().shed.add(1);
  }
}

void SessionManager::set_gauges_locked() {
  std::int64_t live = 0;
  std::int64_t parked = 0;
  for (const auto& [id, s] : sessions_) {
    if (s.state == SessionState::kLive || s.state == SessionState::kSuspect) {
      ++live;
    } else if (s.state == SessionState::kParked) {
      ++parked;
    }
  }
  session_metrics().live.set(live);
  session_metrics().parked.set(parked);
}

std::size_t SessionManager::pump(SessionId id) {
  broker::SubscriberId sub = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return 0;
    sub = it->second.subscriber;
  }
  return broker_.pump(sub);
}

std::size_t SessionManager::pump_all() { return broker_.pump_all(); }

std::size_t SessionManager::retransmit(
    SessionId id, const std::vector<std::uint64_t>& sequences) {
  broker::SubscriberId sub = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return 0;
    sub = it->second.subscriber;
  }
  return broker_.retransmit(sub, sequences);
}

SessionState SessionManager::state(SessionId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw ConfigError("session: unknown id " + std::to_string(id));
  }
  return it->second.state;
}

broker::SubscriberStats SessionManager::subscriber_stats(SessionId id) const {
  broker::SubscriberId sub = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      throw ConfigError("session: unknown id " + std::to_string(id));
    }
    sub = it->second.subscriber;
  }
  return broker_.subscriber_stats(sub);
}

SessionCounters SessionManager::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::size_t SessionManager::live_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, s] : sessions_) {
    if (s.state == SessionState::kLive || s.state == SessionState::kSuspect) {
      ++n;
    }
  }
  return n;
}

std::size_t SessionManager::parked_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, s] : sessions_) {
    if (s.state == SessionState::kParked) ++n;
  }
  return n;
}

}  // namespace acex::session
