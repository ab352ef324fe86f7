#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fixtures.hpp"
#include "netsim/link.hpp"
#include "qa/chaos.hpp"
#include "session/budget.hpp"
#include "session/client.hpp"
#include "session/deadline.hpp"
#include "session/manager.hpp"
#include "session/reconnect.hpp"
#include "testdata.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace acex::session {
namespace {

Bytes incompressible_block(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  return rng.bytes(size);
}

// ------------------------------------------------------------- deadlines

TEST(SessionDeadline, DefaultUnarmedNeverExpires) {
  VirtualClock clock;
  Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired(clock));
  clock.advance(1e9);
  EXPECT_FALSE(d.expired(clock));
  EXPECT_EQ(d.when(), std::numeric_limits<Seconds>::infinity());
  EXPECT_EQ(d.remaining(clock), std::numeric_limits<Seconds>::infinity());
}

TEST(SessionDeadline, ArmsExpiresExtendsAndDisarms) {
  VirtualClock clock;
  Deadline d(clock, 2.0);
  EXPECT_TRUE(d.armed());
  EXPECT_FALSE(d.expired(clock));
  EXPECT_DOUBLE_EQ(d.remaining(clock), 2.0);

  clock.advance(1.5);
  EXPECT_FALSE(d.expired(clock));
  d.extend(clock, 2.0);  // heartbeat: horizon pushed out from NOW
  clock.advance(1.0);
  EXPECT_FALSE(d.expired(clock));
  clock.advance(1.0);
  EXPECT_TRUE(d.expired(clock));
  EXPECT_LE(d.remaining(clock), 0.0);

  d.disarm();
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired(clock));
}

// ------------------------------------------------------------- reconnect

TEST(SessionReconnect, FirstDelayIsExactlyTheBase) {
  ReconnectPolicy policy;
  const auto d = policy.next_delay();
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, policy.config().base_delay);
  EXPECT_EQ(policy.attempts(), 1u);
}

TEST(SessionReconnect, DelaysStayInsideTheDecorrelatedJitterEnvelope) {
  ReconnectConfig config;
  config.base_delay = 0.1;
  config.max_delay = 1.0;
  config.max_attempts = 0;  // never exhaust
  ReconnectPolicy policy(config, 99);

  Seconds prev = *policy.next_delay();
  EXPECT_DOUBLE_EQ(prev, config.base_delay);
  for (int i = 0; i < 200; ++i) {
    const auto d = policy.next_delay();
    ASSERT_TRUE(d.has_value());
    const Seconds ceiling = std::min(config.max_delay, prev * 3);
    EXPECT_GE(*d, config.base_delay - 1e-12);
    EXPECT_LE(*d, ceiling + 1e-12);
    EXPECT_LE(*d, config.max_delay + 1e-12);
    prev = *d;
  }
}

TEST(SessionReconnect, ExhaustsAfterMaxAttemptsAndResetsOnSuccess) {
  ReconnectConfig config;
  config.max_attempts = 3;
  ReconnectPolicy policy(config, 7);
  EXPECT_TRUE(policy.next_delay().has_value());
  EXPECT_TRUE(policy.next_delay().has_value());
  EXPECT_TRUE(policy.next_delay().has_value());
  EXPECT_TRUE(policy.exhausted());
  EXPECT_FALSE(policy.next_delay().has_value());
  EXPECT_EQ(policy.attempts(), 3u);

  policy.reset();
  EXPECT_FALSE(policy.exhausted());
  EXPECT_EQ(policy.attempts(), 0u);
  const auto d = policy.next_delay();
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, config.base_delay);  // schedule restarts from scratch
}

TEST(SessionReconnect, DeterministicForAGivenSeed) {
  ReconnectConfig config;
  config.max_attempts = 0;
  ReconnectPolicy a(config, 42), b(config, 42);
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(*a.next_delay(), *b.next_delay());
  }
}

TEST(SessionReconnect, RejectsDegenerateConfig) {
  ReconnectConfig bad;
  bad.base_delay = 0;
  EXPECT_THROW(ReconnectPolicy{bad}, ConfigError);
  bad.base_delay = 2.0;
  bad.max_delay = 1.0;
  EXPECT_THROW(ReconnectPolicy{bad}, ConfigError);
}

// ---------------------------------------------------------------- budget

BudgetConfig thousand_byte_budget() {
  BudgetConfig config;
  config.limit_bytes = 1000;
  return config;
}

TEST(SessionBudget, WalksTheLadderInOrder) {
  MemoryBudget budget(thousand_byte_budget());
  EXPECT_EQ(budget.stage(), DegradationStage::kNormal);
  EXPECT_EQ(budget.refresh_with(599), DegradationStage::kNormal);
  EXPECT_EQ(budget.refresh_with(600), DegradationStage::kCheaperCodec);
  EXPECT_EQ(budget.refresh_with(750), DegradationStage::kNullCodec);
  EXPECT_EQ(budget.refresh_with(850), DegradationStage::kDropOldest);
  EXPECT_EQ(budget.refresh_with(920), DegradationStage::kShedParked);
  EXPECT_EQ(budget.refresh_with(970), DegradationStage::kRefuseNew);
  EXPECT_EQ(budget.stage_changes(), 5u);
  EXPECT_EQ(budget.used_bytes(), 970u);
}

TEST(SessionBudget, SpikeEscalatesStraightToTheTopStage) {
  MemoryBudget budget(thousand_byte_budget());
  // Overload protection must not climb one rung per refresh.
  EXPECT_EQ(budget.refresh_with(2000), DegradationStage::kRefuseNew);
  EXPECT_EQ(budget.stage_changes(), 1u);
}

TEST(SessionBudget, HysteresisHoldsTheStageThroughBoundaryDither) {
  MemoryBudget budget(thousand_byte_budget());
  EXPECT_EQ(budget.refresh_with(610), DegradationStage::kCheaperCodec);
  ASSERT_EQ(budget.stage_changes(), 1u);
  // 100+ refreshes dithering around the entry threshold, all above the
  // de-escalation point (600 - 80 = 520): the ladder must not flap.
  for (int i = 0; i < 120; ++i) {
    const std::size_t used = (i % 2 == 0) ? 590 : 610;
    EXPECT_EQ(budget.refresh_with(used), DegradationStage::kCheaperCodec);
  }
  EXPECT_EQ(budget.stage_changes(), 1u);
  // Clearly below the margin: full recovery in one step.
  EXPECT_EQ(budget.refresh_with(500), DegradationStage::kNormal);
  EXPECT_EQ(budget.stage_changes(), 2u);
}

TEST(SessionBudget, DeEscalationWaitsForTheMarginOfTheCurrentStage) {
  MemoryBudget budget(thousand_byte_budget());
  EXPECT_EQ(budget.refresh_with(980), DegradationStage::kRefuseNew);
  // Below the top entry threshold but not below 970 - 80 = 890: hold.
  EXPECT_EQ(budget.refresh_with(900), DegradationStage::kRefuseNew);
  // Once clearly below the margin, de-escalation goes straight to the
  // stage the usage actually calls for — no rung-at-a-time lag.
  EXPECT_EQ(budget.refresh_with(889), DegradationStage::kDropOldest);
  EXPECT_EQ(budget.refresh_with(100), DegradationStage::kNormal);
}

TEST(SessionBudget, RejectsDegenerateConfig) {
  BudgetConfig bad;
  bad.limit_bytes = 0;
  EXPECT_THROW(MemoryBudget{bad}, ConfigError);
  bad = BudgetConfig{};
  bad.enter_null = bad.enter_cheaper;  // not strictly increasing
  EXPECT_THROW(MemoryBudget{bad}, ConfigError);
  bad = BudgetConfig{};
  bad.hysteresis = bad.enter_cheaper;  // would allow negative floor
  EXPECT_THROW(MemoryBudget{bad}, ConfigError);
}

// ------------------------------------------------------------- lifecycle

SessionConfig quick_session() {
  SessionConfig config;
  config.liveness_timeout = 1.0;
  config.suspect_grace = 0.5;
  config.park_grace = 2.0;
  config.heartbeat_interval = 0.25;
  return config;
}

TEST(SessionLifecycle, HeartbeatsKeepTheSessionLive) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, quick_session());
  ASSERT_TRUE(cr.accepted);
  EXPECT_GT(cr.token, 0u);
  EXPECT_DOUBLE_EQ(cr.heartbeat_interval, 0.25);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kLive);

  for (int i = 0; i < 8; ++i) {
    clock.advance(0.8);  // inside the liveness window every time
    EXPECT_TRUE(manager.heartbeat(cr.session_id, cr.token));
    const TickReport tick = manager.tick();
    EXPECT_EQ(tick.suspects, 0u);
  }
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kLive);
  EXPECT_EQ(manager.counters().heartbeats, 8u);
  EXPECT_EQ(manager.live_count(), 1u);
}

TEST(SessionLifecycle, MissedHeartbeatsWalkSuspectParkedExpired) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, quick_session());
  ASSERT_TRUE(cr.accepted);

  clock.advance(1.1);  // past liveness_timeout
  TickReport tick = manager.tick();
  EXPECT_EQ(tick.suspects, 1u);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kSuspect);
  // A suspect is still reachable: one heartbeat rescues it.
  EXPECT_TRUE(manager.heartbeat(cr.session_id, cr.token));
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kLive);

  clock.advance(1.1);
  manager.tick();  // suspect again
  clock.advance(0.6);  // past suspect_grace
  tick = manager.tick();
  EXPECT_EQ(tick.parks, 1u);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kParked);
  EXPECT_EQ(manager.parked_count(), 1u);
  // Parked state cannot be heartbeaten back — it has no transport.
  EXPECT_FALSE(manager.heartbeat(cr.session_id, cr.token));

  clock.advance(2.1);  // past park_grace
  tick = manager.tick();
  EXPECT_EQ(tick.expired, 1u);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kExpired);
  EXPECT_EQ(manager.live_count(), 0u);
  EXPECT_EQ(manager.parked_count(), 0u);

  const SessionCounters c = manager.counters();
  EXPECT_EQ(c.suspects, 2u);
  EXPECT_EQ(c.parks, 1u);
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.shed, 0u);
}

TEST(SessionLifecycle, RejectsBadTokensAndUnknownIds) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, quick_session());
  EXPECT_FALSE(manager.heartbeat(cr.session_id, cr.token + 1));
  EXPECT_FALSE(manager.heartbeat(cr.session_id + 99, cr.token));
  EXPECT_THROW(manager.state(cr.session_id + 99), ConfigError);

  SinkTransport other;
  const ResumeResult r =
      manager.resume(cr.session_id, cr.token + 1, 0, other);
  EXPECT_EQ(r.status, ResumeResult::Status::kRejected);
  EXPECT_FALSE(r.reason.empty());
  EXPECT_EQ(manager.counters().resumes, 0u);
}

// ---------------------------------------------------------------- resume

/// Drain everything currently deliverable to the client, advancing the
/// virtual clock so SimLink actually surfaces the frames.
Bytes drain(VirtualClock& clock, SessionManager& manager, SessionId id,
            SessionClient& client) {
  Bytes out;
  for (int i = 0; i < 8; ++i) {
    manager.pump(id);
    clock.advance(0.05);
    const Bytes got = client.receiver()->receive_available();
    out.insert(out.end(), got.begin(), got.end());
  }
  return out;
}

TEST(SessionResume, ReplaysTheGapByteIdentically) {
  VirtualClock clock;
  SessionManager manager(clock);
  auto ep = std::make_unique<SimEndpoint>(clock, 1e6, 5);
  SessionConfig sc = quick_session();
  sc.subscriber.adaptive.decision.block_size = 4096;
  const ConnectResult cr = manager.connect(ep->duplex.a(), sc);
  ASSERT_TRUE(cr.accepted);

  SessionClient client(clock);
  client.on_connected(cr.session_id, cr.token, ep->duplex.b(),
                      cr.heartbeat_interval);
  ASSERT_TRUE(client.connected());

  Bytes expected;
  const auto publish_one = [&](std::uint64_t seed) {
    const Bytes block = testdata::low_entropy(2048, seed);
    expected.insert(expected.end(), block.begin(), block.end());
    manager.publish(block);
  };

  for (std::uint64_t s = 0; s < 3; ++s) publish_one(s);
  Bytes delivered = drain(clock, manager, cr.session_id, client);
  EXPECT_EQ(delivered.size(), 3u * 2048);
  EXPECT_EQ(client.resume_from(), 3u);

  // The link dies. The server parks; the client keeps its cursor.
  client.on_dropped();
  ASSERT_TRUE(manager.disconnect(cr.session_id));
  EXPECT_FALSE(client.connected());
  ASSERT_TRUE(client.next_retry_delay().has_value());

  // Three more blocks fan out while this session is parked: they reach the
  // retransmit ring, not the dead link.
  for (std::uint64_t s = 3; s < 6; ++s) publish_one(s);

  // Reconnect on a brand-new endpoint; resume from the client's cursor.
  auto ep2 = std::make_unique<SimEndpoint>(clock, 1e6, 17);
  const ResumeResult rr = manager.resume(cr.session_id, cr.token,
                                         client.resume_from(), ep2->duplex.a());
  ASSERT_EQ(rr.status, ResumeResult::Status::kResumed) << rr.reason;
  EXPECT_EQ(rr.replayed, 3u);
  client.on_resumed(ep2->duplex.b(), cr.token);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.reconnect_attempts(), 0u);  // backoff reset on success

  ep.reset();  // the old endpoint is gone for good; nothing may touch it
  const Bytes resumed = drain(clock, manager, cr.session_id, client);
  delivered.insert(delivered.end(), resumed.begin(), resumed.end());

  // The acceptance bar: byte-identical to a stream that never dropped —
  // zero lost, zero duplicated.
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(client.receiver()->frames_duplicate(), 0u);
  EXPECT_EQ(manager.counters().resumes, 1u);
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kLive);
}

TEST(SessionResume, DowngradesToRestartWhenTheRingEvictedTheGap) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  SessionConfig sc = quick_session();
  sc.subscriber.adaptive.retransmit_capacity = 2;  // tiny history on purpose
  const ConnectResult cr = manager.connect(sink, sc);
  ASSERT_TRUE(cr.accepted);
  ASSERT_TRUE(manager.disconnect(cr.session_id));

  // Six blocks published while parked, a two-frame ring: [0, 4) is gone.
  for (std::uint64_t s = 0; s < 6; ++s) {
    manager.publish(testdata::low_entropy(1024, s));
  }

  SinkTransport fresh;
  const ResumeResult rr = manager.resume(cr.session_id, cr.token, 0, fresh);
  EXPECT_EQ(rr.status, ResumeResult::Status::kRestart);
  EXPECT_FALSE(rr.reason.empty());
  // The incarnation is dead — resume must never wedge it half-attached.
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kExpired);
  EXPECT_EQ(manager.counters().restarts, 1u);
  EXPECT_EQ(manager.counters().expired, 1u);

  // A second resume attempt on the tombstone stays a clean restart.
  const ResumeResult again =
      manager.resume(cr.session_id, cr.token, 0, fresh);
  EXPECT_EQ(again.status, ResumeResult::Status::kRestart);
  EXPECT_EQ(manager.counters().restarts, 2u);
}

TEST(SessionResume, ExpiredSessionGetsRestartNotResume) {
  VirtualClock clock;
  SessionManager manager(clock);
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, quick_session());
  ASSERT_TRUE(manager.disconnect(cr.session_id));

  clock.advance(2.1);  // past park_grace
  const TickReport tick = manager.tick();
  EXPECT_EQ(tick.expired, 1u);

  SinkTransport fresh;
  const ResumeResult rr = manager.resume(cr.session_id, cr.token, 0, fresh);
  EXPECT_EQ(rr.status, ResumeResult::Status::kRestart);
  EXPECT_EQ(manager.counters().restarts, 1u);
}

// -------------------------------------------------------------- overload

SessionConfig overload_session() {
  SessionConfig config = quick_session();
  config.subscriber.egress_capacity = 512;  // egress drives the pressure
  config.subscriber.adaptive.retransmit_capacity = 4;
  config.subscriber.adaptive.retransmit_max_bytes = 2048;
  config.subscriber.adaptive.decision.block_size = 4096;
  return config;
}

TEST(SessionOverload, LadderWalksInOrderRefusesNewAndRecovers) {
  VirtualClock clock;
  ManagerConfig mc;
  mc.budget.limit_bytes = 32 * 1024;
  SessionManager manager(clock, mc);

  const SessionConfig sc = overload_session();
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, sc);
  ASSERT_TRUE(cr.accepted);

  // Never pump: each published block parks ~512 incompressible bytes in
  // the egress, walking usage monotonically up through every stage.
  std::vector<DegradationStage> walk;
  for (std::uint64_t s = 0; s < 90; ++s) {
    manager.publish(incompressible_block(512, 1000 + s));
    const DegradationStage stage = manager.stage();
    if (walk.empty() || walk.back() != stage) walk.push_back(stage);
  }

  // Every stage, in escalation order, no oscillation while pressure only
  // grows — the hysteresis guard means a stage once entered is kept.
  const std::vector<DegradationStage> expected_walk = {
      DegradationStage::kNormal,     DegradationStage::kCheaperCodec,
      DegradationStage::kNullCodec,  DegradationStage::kDropOldest,
      DegradationStage::kShedParked, DegradationStage::kRefuseNew,
  };
  EXPECT_EQ(walk, expected_walk);
  EXPECT_EQ(manager.budget().stage_changes(), 5u);

  // At kRefuseNew a newcomer is turned away with a reason.
  SinkTransport late;
  const ConnectResult refused = manager.connect(late, sc);
  EXPECT_FALSE(refused.accepted);
  EXPECT_FALSE(refused.reason.empty());
  EXPECT_EQ(manager.counters().refused, 1u);
  // The incumbent keeps its session through the whole episode.
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kLive);

  // Pressure clears: drain the egress, publish once more to refresh, and
  // the ladder de-escalates fully. Service quality is restored, and the
  // next newcomer is welcome.
  while (manager.pump(cr.session_id) > 0) {
  }
  manager.publish(incompressible_block(512, 4242));
  EXPECT_EQ(manager.stage(), DegradationStage::kNormal);
  SinkTransport welcome;
  const ConnectResult ok = manager.connect(welcome, sc);
  EXPECT_TRUE(ok.accepted);
}

TEST(SessionOverload, ShedsParkedSessionsAtDepthThenRecovers) {
  VirtualClock clock;
  ManagerConfig mc;
  mc.budget.limit_bytes = 32 * 1024;
  SessionManager manager(clock, mc);

  const SessionConfig sc = overload_session();
  SinkTransport sink;
  const ConnectResult cr = manager.connect(sink, sc);
  ASSERT_TRUE(cr.accepted);

  // Climb until the ladder demands parked-session shedding.
  for (std::uint64_t s = 0;
       s < 90 && manager.stage() < DegradationStage::kShedParked; ++s) {
    manager.publish(incompressible_block(512, 2000 + s));
  }
  ASSERT_GE(manager.stage(), DegradationStage::kShedParked);

  // The session dies while the stage holds. Normally park_grace would keep
  // its state warm for 2 s; under kShedParked the very next refresh expires
  // it early instead — parked state is exactly the memory the ladder is
  // fighting for.
  ASSERT_TRUE(manager.disconnect(cr.session_id));
  EXPECT_EQ(manager.parked_count(), 1u);
  manager.publish(incompressible_block(512, 4243));
  EXPECT_EQ(manager.state(cr.session_id), SessionState::kExpired);
  EXPECT_EQ(manager.parked_count(), 0u);
  EXPECT_EQ(manager.counters().shed, 1u);
  EXPECT_EQ(manager.counters().expired, 1u);

  // Shedding released the subscriber's egress and ring: the next refresh
  // sees the pressure gone and the ladder stands down completely.
  manager.publish(incompressible_block(512, 4244));
  EXPECT_EQ(manager.stage(), DegradationStage::kNormal);
}

TEST(SessionOverload, GovernorForcesTheNullCodecAtDepth) {
  // The same data, the same link: without a governor the selector
  // compresses; with the ladder's null-codec governor every block ships
  // uncompressed — the overload path reaches into the plan step itself.
  VirtualClock clock;
  const Bytes data = testdata::repetitive_text(8 * 4096, 11);

  adaptive::AdaptiveConfig config;
  config.decision.block_size = 4096;
  config.decision.sample_size = 1024;
  config.async_sampling = false;
  config.target_rate_Bps = 1e12;  // compression is always worthwhile

  SimEndpoint plain_ep(clock, 100e3, 3);
  adaptive::AdaptiveSender plain(plain_ep.duplex.a(), config);
  const adaptive::StreamReport before = plain.send_all(data);
  bool compressed_without_governor = false;
  for (const auto& block : before.blocks) {
    if (block.method != MethodId::kNone) compressed_without_governor = true;
  }
  EXPECT_TRUE(compressed_without_governor);

  config.method_governor = [](MethodId) { return MethodId::kNone; };
  SimEndpoint governed_ep(clock, 100e3, 4);
  adaptive::AdaptiveSender governed(governed_ep.duplex.a(), config);
  adaptive::AdaptiveReceiver rx(governed_ep.duplex.b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});
  const adaptive::StreamReport after = governed.send_all(data);
  for (const auto& block : after.blocks) {
    EXPECT_EQ(block.method, MethodId::kNone);
  }
  clock.advance(60.0);
  EXPECT_EQ(rx.receive_available(), data);  // degraded, never corrupted
}

// ----------------------------------------------------------------- chaos

TEST(SessionChaos, SixteenSubscribersEachKilledThriceResumeByteExact) {
  qa::ChaosConfig config;  // defaults: 16 sessions, min_kills 3
  ASSERT_EQ(config.sessions, 16u);
  ASSERT_EQ(config.min_kills, 3u);

  const qa::ChaosReport report = qa::run_chaos(config);
  for (const std::string& v : report.violations) {
    ADD_FAILURE() << "chaos violation: " << v;
  }
  EXPECT_TRUE(report.ok());
  // Every peer was killed at least min_kills times mid-stream...
  EXPECT_GE(report.kills, config.sessions * config.min_kills);
  // ...and both recovery paths actually ran.
  EXPECT_GT(report.resumes, 0u);
  EXPECT_GT(report.restarts + report.expired, 0u);
  EXPECT_GT(report.published, 0u);
  EXPECT_GT(report.delivered, 0u);
  EXPECT_GT(report.heartbeats, 0u);
}

}  // namespace
}  // namespace acex::session
