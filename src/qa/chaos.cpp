#include "qa/chaos.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "adaptive/pipeline.hpp"
#include "obs/metrics.hpp"
#include "qa/delivery.hpp"
#include "qa/generators.hpp"
#include "qa/oracles.hpp"
#include "session/client.hpp"
#include "session/manager.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace acex::qa {
namespace {

/// Virtual seconds per chaos round; every lifecycle constant below is a
/// multiple of this so the state machine's timing is round-countable.
constexpr Seconds kRoundDt = 0.25;

struct ChaosSoak {
  /// One network endpoint incarnation + the durable client riding it. The
  /// endpoint (its faulted wire) is replaced wholesale at every reconnect —
  /// a resumed session runs on a genuinely new "socket" — but the
  /// SessionClient and its receiver cursor persist across kills.
  struct Peer {
    std::unique_ptr<FaultedWire> wire;
    std::unique_ptr<session::SessionClient> client;
    session::SessionId sid = 0;
    DeliveryLedger::Receiver got;  ///< this session's view of the stream
    bool alive = true;
    std::size_t kills = 0;
    std::size_t revive_round = 0;
    bool overstay = false;  ///< deliberately sleeps past the park grace
  };

  const ChaosConfig& config;
  ChaosReport& report;
  const Violate violate;

  VirtualClock clock;
  session::SessionManager manager;
  std::vector<std::unique_ptr<Peer>> peers;
  DeliveryLedger ledger;
  std::size_t rounds_cap;
  std::uint64_t next_endpoint = 0;
  Rng rng;

  ChaosSoak(const ChaosConfig& cfg, ChaosReport& rep)
      : config(cfg),
        report(rep),
        violate(collect_into(rep.violations)),
        manager(clock),
        ledger(violate),
        rounds_cap(cfg.rounds * 4),
        rng(cfg.seed + 97) {
    for (std::size_t i = 0; i < cfg.sessions; ++i) {
      auto peer = std::make_unique<Peer>();
      fresh_endpoint(*peer);
      connect(*peer);
      peers.push_back(std::move(peer));
    }
  }

  /// A new network endpoint for the peer, replacing (and destroying) its
  /// old one.
  void fresh_endpoint(Peer& peer) {
    peer.wire =
        endpoint_wire(clock, config.seed, ++next_endpoint, fault_mix(config));
  }

  session::SessionConfig session_config() const {
    session::SessionConfig sc;
    sc.liveness_timeout = 2 * kRoundDt;
    sc.suspect_grace = kRoundDt;
    sc.park_grace = 4 * kRoundDt;
    sc.heartbeat_interval = kRoundDt;
    sc.subscriber.adaptive.decision.block_size = config.block_size;
    sc.subscriber.adaptive.decision.sample_size =
        std::min<std::size_t>(1024, config.block_size);
    // The ring must cover every block a within-grace resume could need, or
    // resume fidelity degenerates into restart (a different code path).
    const std::size_t span = rounds_cap * config.blocks_per_round + 64;
    sc.subscriber.adaptive.retransmit_capacity = span;
    sc.subscriber.adaptive.retransmit_max_retries = config.nack_retry_cap + 4;
    sc.subscriber.egress_capacity = span;
    // kDropOldest: the chaos harness pumps on the publishing thread, so
    // kBlock would self-deadlock on overflow (same reasoning as BrokerSoak).
    sc.subscriber.policy = broker::SlowConsumerPolicy::kDropOldest;
    return sc;
  }

  void connect(Peer& peer) {
    session::SessionConfig sc = session_config();
    const session::ConnectResult cr =
        manager.connect(peer.wire->sender(), sc);
    if (!cr.accepted) {
      violate("chaos: connect refused outside overload: " + cr.reason);
      return;
    }
    peer.sid = cr.session_id;
    peer.got = ledger.join("chaos");
    session::ClientConfig cc;
    cc.receiver.nack_retry_cap = config.nack_retry_cap;
    peer.client = std::make_unique<session::SessionClient>(
        clock, cc, config.seed * 977 + cr.session_id);
    peer.client->on_connected(cr.session_id, cr.token, peer.wire->receiver(),
                              cr.heartbeat_interval);
    peer.alive = true;
  }

  void publish_round(std::size_t round_index) {
    const std::size_t round_bytes =
        config.blocks_per_round * config.block_size;
    auto regimes = seed_payloads(round_bytes, config.seed + 53 * round_index);
    const Bytes& data = regimes[round_index % regimes.size()].data;
    for (std::size_t at = 0; at < data.size(); at += config.block_size) {
      const std::size_t len = std::min(config.block_size, data.size() - at);
      ledger.publish(ByteView(data.data() + at, len));
      manager.publish(ByteView(data.data() + at, len));
    }
  }

  void pump_and_drain(Peer& peer) {
    manager.pump(peer.sid);
    peer.wire->flush();
    ledger.drain(peer.got, peer.client->receiver()->receive_report());
  }

  bool nack_cycle(Peer& peer, int extra_passes) {
    return replay_nacks(*peer.client->receiver(),
                        config.nack_retry_cap + extra_passes,
                        [&](const std::vector<std::uint64_t>& nacks) {
                          manager.retransmit(peer.sid, nacks);
                          pump_and_drain(peer);
                        });
  }

  void kill(Peer& peer, std::size_t round) {
    peer.alive = false;
    peer.client->on_dropped();
    ++peer.kills;
    ++report.kills;
    peer.overstay = rng.chance(config.expire_prob);
    // A peer that overstays sleeps past liveness + suspect + park grace
    // (7 rounds of silence) so the manager must expire it; a normal crash
    // comes back inside the window.
    const std::size_t away =
        peer.overstay ? 9 : 1 + static_cast<std::size_t>(rng.below(3));
    peer.revive_round = round + away;
  }

  /// Dead peer's half-open socket: whatever is in flight is lost.
  void drop_in_flight(Peer& peer) {
    while (peer.wire->receiver().receive()) {
    }
  }

  void revive(Peer& peer) {
    // Pace the attempt through the backoff policy like a real client; the
    // delay itself is virtual so we just consume it.
    if (auto delay = peer.client->next_retry_delay()) {
      clock.advance(std::min<Seconds>(*delay, kRoundDt / 8));
    }
    const std::uint64_t resume_from = peer.client->resume_from();
    // Replace the dead socket. Nothing touches the broker-side dangling
    // pointer to the old one until resume() swaps it: the session is
    // parked (or parks first thing inside resume) and a parked
    // subscriber's pump bails before dereferencing its transport.
    fresh_endpoint(peer);
    const session::ResumeResult rr = manager.resume(
        peer.sid, peer.client->token(), resume_from, peer.wire->sender());
    switch (rr.status) {
      case session::ResumeResult::Status::kResumed:
        ++report.resumes;
        peer.client->on_resumed(peer.wire->receiver(), peer.client->token());
        peer.alive = true;
        pump_and_drain(peer);
        nack_cycle(peer, 2);
        break;
      case session::ResumeResult::Status::kRestart:
        // Expired (or gap evicted): the old incarnation's deliveries are
        // settled and the client reconnects as a brand-new session.
        ++report.restarts;
        ledger.leave(peer.got);
        connect(peer);
        break;
      case session::ResumeResult::Status::kRejected:
        violate("chaos: resume rejected for a legitimate session: " +
                rr.reason);
        peer.alive = true;  // avoid wedging the harness on a violation
        break;
    }
  }

  bool all_done() const {
    for (const auto& peer : peers) {
      if (!peer->alive || peer->kills < config.min_kills) return false;
    }
    return true;
  }

  void round(std::size_t round_index) {
    for (auto& peer : peers) {
      if (!peer->alive) continue;
      const bool forced =
          peer->kills < config.min_kills &&
          round_index >= (peer->kills + 1) * config.rounds /
                             (config.min_kills + 1);
      if (forced || rng.chance(config.extra_kill_prob)) {
        kill(*peer, round_index);
      }
    }

    publish_round(round_index);

    for (auto& peer : peers) {
      if (!peer->client) continue;  // connect refused (already a violation)
      if (peer->alive) {
        const Bytes reply = manager.handle_control(peer->client->make_heartbeat());
        const session::ControlMsg ack = session::control_decode(reply);
        if (ack.kind != session::ControlKind::kHeartbeat) {
          violate("chaos: live heartbeat not acknowledged: " + ack.reason);
        }
        ++report.heartbeats;
        pump_and_drain(*peer);
        nack_cycle(*peer, 2);
      } else {
        drop_in_flight(*peer);
        if (round_index >= peer->revive_round) revive(*peer);
      }
    }

    clock.advance(kRoundDt);
    manager.tick();
    ++report.rounds;
  }

  /// Heal the links, revive stragglers, push a sentinel past tail drops,
  /// replay to a fixed point, then check the resume-fidelity identities.
  void finish() {
    for (std::size_t spin = 0; spin < rounds_cap; ++spin) {
      bool any_dead = false;
      for (auto& peer : peers) {
        if (!peer->alive) {
          any_dead = true;
          drop_in_flight(*peer);
          revive(*peer);
        }
      }
      if (!any_dead) break;
      clock.advance(kRoundDt);
      manager.tick();
    }

    for (auto& peer : peers) peer->wire->heal();
    const Bytes sentinel = rng.bytes(config.block_size);
    ledger.publish(sentinel);
    manager.publish(sentinel);

    for (auto& peer : peers) {
      if (!peer->client) continue;  // connect refused (already a violation)
      // Keep heartbeating so the settle passes below never race a park.
      manager.handle_control(peer->client->make_heartbeat());
      ++report.heartbeats;
      pump_and_drain(*peer);
      if (!nack_cycle(*peer, 4)) {
        violate("chaos: NACK traffic did not converge on a healed link");
      }
      // settle() fails on a surviving gap; an abandoned block is lost too.
      adaptive::AdaptiveReceiver& rx = *peer->client->receiver();
      ledger.settle(peer->got, rx);
      if (rx.nacks_abandoned() != 0) {
        violate("chaos: session ended with " +
                std::to_string(rx.nacks_abandoned()) +
                " abandoned blocks — resume fidelity broken");
      }
      if (peer->kills < config.min_kills) {
        violate("chaos: peer only survived " + std::to_string(peer->kills) +
                " kills; the schedule must reach " +
                std::to_string(config.min_kills));
      }
    }
    report.delivered = ledger.recovered();
    report.published = ledger.published();

    const session::SessionCounters sc = manager.counters();
    report.expired = sc.expired;
    if (sc.resumes != report.resumes) {
      violate("chaos: manager resume count diverges from harness truth");
    }
    if (sc.restarts != report.restarts) {
      violate("chaos: manager restart count diverges from harness truth");
    }
    if (sc.refused != 0) {
      violate("chaos: sessions refused without overload pressure");
    }
    for (const auto& peer : peers) {
      if (manager.state(peer->sid) != session::SessionState::kLive &&
          manager.state(peer->sid) != session::SessionState::kSuspect) {
        violate("chaos: peer ended the run wedged in state " +
                std::string(session::state_name(manager.state(peer->sid))));
      }
    }
  }
};

}  // namespace

ChaosReport run_chaos(const ChaosConfig& config) {
  if (config.sessions == 0) {
    throw ConfigError("chaos: at least one session is required");
  }
  if (config.blocks_per_round == 0 || config.block_size == 0) {
    throw ConfigError("chaos: blocks_per_round and block_size must be positive");
  }
  if (config.rounds == 0) {
    throw ConfigError("chaos: rounds must be positive");
  }

  ChaosReport report;
  const obs::MetricsSnapshot obs_before =
      obs::MetricsRegistry::global().snapshot();

  {
    ChaosSoak soak(config, report);
    for (std::size_t r = 0;
         r < soak.rounds_cap && (r < config.rounds || !soak.all_done()); ++r) {
      soak.round(r);
      if (report.violations.size() >= kMaxViolations) break;
    }
    soak.finish();

    // The obs mirror must agree with the manager's ground truth — the
    // deltas absorb whatever earlier in-process tests left in the registry.
    const session::SessionCounters sc = soak.manager.counters();
    for (std::string& v : check_series(
             obs_before, obs::MetricsRegistry::global().snapshot(),
             {{"acex.session.connects", sc.connects},
              {"acex.session.refused", sc.refused},
              {"acex.session.heartbeats", sc.heartbeats},
              {"acex.session.suspects", sc.suspects},
              {"acex.session.parks", sc.parks},
              {"acex.session.resumes", sc.resumes},
              {"acex.session.restarts", sc.restarts},
              {"acex.session.expired", sc.expired},
              {"acex.session.shed", sc.shed}})) {
      soak.violate("chaos: obs mirror " + std::move(v));
    }
  }

  return report;
}

}  // namespace acex::qa
