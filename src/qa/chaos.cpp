#include "qa/chaos.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "adaptive/pipeline.hpp"
#include "netsim/link.hpp"
#include "obs/metrics.hpp"
#include "qa/generators.hpp"
#include "qa/oracles.hpp"
#include "session/client.hpp"
#include "session/manager.hpp"
#include "transport/fault_transport.hpp"
#include "transport/sim_transport.hpp"
#include "util/clock.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace acex::qa {
namespace {

constexpr std::size_t kMaxViolations = 64;

/// Virtual seconds per chaos round; every lifecycle constant below is a
/// multiple of this so the state machine's timing is round-countable.
constexpr Seconds kRoundDt = 0.25;

netsim::LinkParams chaos_link(double bps) {
  netsim::LinkParams p;
  p.bandwidth_Bps = bps;
  p.jitter_frac = 0;
  p.latency_s = 0;
  return p;
}

struct ChaosSoak {
  /// One network endpoint incarnation + the durable client riding it. The
  /// endpoint (links, duplex, injector) is replaced wholesale at every
  /// reconnect — a resumed session runs on a genuinely new "socket" — but
  /// the SessionClient and its receiver cursor persist across kills.
  struct Peer {
    std::unique_ptr<netsim::SimLink> forward;
    std::unique_ptr<netsim::SimLink> reverse;
    std::unique_ptr<transport::SimDuplex> duplex;
    std::unique_ptr<transport::FaultInjectingTransport> lossy;
    std::unique_ptr<session::SessionClient> client;
    session::SessionId sid = 0;
    std::size_t joined_at = 0;  ///< crcs.size() at connect of this session
    std::map<std::uint64_t, std::uint32_t> recovered;  ///< local seq -> crc
    bool alive = true;
    std::size_t kills = 0;
    std::size_t revive_round = 0;
    bool overstay = false;  ///< deliberately sleeps past the park grace
  };

  const ChaosConfig& config;
  ChaosReport& report;

  VirtualClock clock;
  session::SessionManager manager;
  std::vector<std::unique_ptr<Peer>> peers;
  std::vector<std::uint32_t> crcs;  ///< ground truth per published block
  std::uint64_t settled_delivered = 0;  ///< from pre-restart incarnations
  std::size_t rounds_cap;
  std::uint64_t next_endpoint = 0;
  Rng rng;

  ChaosSoak(const ChaosConfig& cfg, ChaosReport& rep)
      : config(cfg),
        report(rep),
        manager(clock),
        rounds_cap(cfg.rounds * 4),
        rng(cfg.seed + 97) {
    for (std::size_t i = 0; i < cfg.sessions; ++i) {
      auto peer = std::make_unique<Peer>();
      fresh_endpoint(*peer);
      connect(*peer);
      peers.push_back(std::move(peer));
    }
  }

  void violate(std::string why) {
    if (report.violations.size() < kMaxViolations) {
      report.violations.push_back(std::move(why));
    }
  }

  /// Rebuild the peer's network endpoint: new links, new duplex, a new
  /// fault injector with its own deterministic seed. The old endpoint (if
  /// any) is destroyed only after nothing references it — the caller must
  /// rebind broker and receiver first, which resume()/connect() both do
  /// before this incarnation's unique_ptrs are overwritten.
  void fresh_endpoint(Peer& peer) {
    const std::uint64_t n = ++next_endpoint;
    peer.forward = std::make_unique<netsim::SimLink>(
        chaos_link(2e7), config.seed * 131 + n * 2);
    peer.reverse = std::make_unique<netsim::SimLink>(
        chaos_link(2e8), config.seed * 131 + n * 2 + 1);
    peer.duplex = std::make_unique<transport::SimDuplex>(*peer.forward,
                                                         *peer.reverse, clock);
    transport::FaultConfig fc;
    fc.drop_prob = config.drop_prob;
    fc.reorder_prob = config.reorder_prob;
    fc.duplicate_prob = config.duplicate_prob;
    fc.bit_flip_prob = config.bit_flip_prob;
    fc.truncate_prob = config.truncate_prob;
    fc.seed =
        config.seed ^ (0x165667B19E3779F9ull + n * 0x27D4EB2F165667C5ull);
    peer.lossy = std::make_unique<transport::FaultInjectingTransport>(
        peer.duplex->a(), fc);
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
    const session::ConnectResult cr = manager.connect(*peer.lossy, sc);
    if (!cr.accepted) {
      violate("chaos: connect refused outside overload: " + cr.reason);
      return;
    }
    peer.sid = cr.session_id;
    peer.joined_at = crcs.size();
    peer.recovered.clear();
    session::ClientConfig cc;
    cc.receiver.nack_retry_cap = config.nack_retry_cap;
    peer.client = std::make_unique<session::SessionClient>(
        clock, cc, config.seed * 977 + cr.session_id);
    peer.client->on_connected(cr.session_id, cr.token, peer.duplex->b(),
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
      crcs.push_back(crc32(ByteView(data.data() + at, len)));
      manager.publish(ByteView(data.data() + at, len));
    }
  }

  void drain(Peer& peer) {
    adaptive::AdaptiveReceiver* rx = peer.client->receiver();
    const adaptive::ReceiveReport r = rx->receive_report();
    for (const auto& frame : r.frames) {
      if (frame.status != adaptive::FrameOutcome::Status::kOk) continue;
      if (!frame.has_sequence) {
        violate("chaos: intact frame delivered without a sequence");
        continue;
      }
      const std::uint64_t global = peer.joined_at + frame.sequence;
      if (global >= crcs.size()) {
        violate("chaos: delivered sequence " +
                std::to_string(frame.sequence) +
                " maps past the published stream");
        continue;
      }
      const std::uint32_t got = crc32(frame.data);
      if (!peer.recovered.emplace(frame.sequence, got).second) {
        violate("chaos: frame " + std::to_string(frame.sequence) +
                " delivered twice across a resume (duplication)");
      } else if (got != crcs[static_cast<std::size_t>(global)]) {
        violate("chaos: frame " + std::to_string(frame.sequence) +
                " diverged from block " + std::to_string(global) +
                " after a resume (byte-identity broken)");
      }
    }
  }

  void pump_and_drain(Peer& peer) {
    manager.pump(peer.sid);
    peer.lossy->flush();
    drain(peer);
  }

  bool nack_cycle(Peer& peer, int extra_passes) {
    for (int pass = 0; pass < config.nack_retry_cap + extra_passes; ++pass) {
      const std::vector<std::uint64_t> nacks =
          peer.client->receiver()->take_nacks();
      if (nacks.empty()) return true;
      manager.retransmit(peer.sid, nacks);
      pump_and_drain(peer);
    }
    return peer.client->receiver()->take_nacks().empty();
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
    while (peer.duplex->b().receive()) {
    }
  }

  void revive(Peer& peer) {
    // Pace the attempt through the backoff policy like a real client; the
    // delay itself is virtual so we just consume it.
    if (auto delay = peer.client->next_retry_delay()) {
      clock.advance(std::min<Seconds>(*delay, kRoundDt / 8));
    }
    const std::uint64_t resume_from = peer.client->resume_from();
    // Tear the dead socket down before standing up its replacement (the
    // injector and duplex reference the links, so order matters). Nothing
    // touches the broker-side dangling pointer until resume() swaps it:
    // the session is parked (or parks first thing inside resume) and a
    // parked subscriber's pump bails before dereferencing its transport.
    peer.lossy.reset();
    peer.duplex.reset();
    peer.forward.reset();
    peer.reverse.reset();
    fresh_endpoint(peer);
    const session::ResumeResult rr = manager.resume(
        peer.sid, peer.client->token(), resume_from, *peer.lossy);
    switch (rr.status) {
      case session::ResumeResult::Status::kResumed:
        ++report.resumes;
        peer.client->on_resumed(peer.duplex->b(), peer.client->token());
        peer.alive = true;
        pump_and_drain(peer);
        nack_cycle(peer, 2);
        break;
      case session::ResumeResult::Status::kRestart:
        // Expired (or gap evicted): the old incarnation's deliveries are
        // settled and the client reconnects as a brand-new session.
        ++report.restarts;
        settled_delivered += peer.recovered.size();
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

    transport::FaultConfig clean;
    for (auto& peer : peers) peer->lossy->set_config(clean);
    const Bytes sentinel = rng.bytes(config.block_size);
    crcs.push_back(crc32(sentinel));
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
      const std::uint64_t published_while = crcs.size() - peer->joined_at;
      adaptive::AdaptiveReceiver* rx = peer->client->receiver();
      const std::size_t abandoned = rx->nacks_abandoned();
      const std::size_t gaps = rx->receive_report().gaps.size();
      if (peer->recovered.size() + abandoned + gaps != published_while) {
        violate("chaos: accounting leak: " +
                std::to_string(peer->recovered.size()) + " recovered + " +
                std::to_string(abandoned) + " abandoned + " +
                std::to_string(gaps) + " gaps != " +
                std::to_string(published_while) + " published while joined");
      }
      if (abandoned + gaps != 0) {
        violate("chaos: session ended with " +
                std::to_string(abandoned + gaps) +
                " lost blocks — resume fidelity broken");
      }
      report.delivered += peer->recovered.size();
      if (peer->kills < config.min_kills) {
        violate("chaos: peer only survived " + std::to_string(peer->kills) +
                " kills; the schedule must reach " +
                std::to_string(config.min_kills));
      }
    }
    report.delivered += settled_delivered;
    report.published = crcs.size();

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
