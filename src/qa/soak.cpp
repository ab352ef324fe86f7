#include "qa/soak.hpp"

#include <chrono>
#include <memory>
#include <string>

#include "adaptive/pipeline.hpp"
#include "broker/broker.hpp"
#include "echo/bridge.hpp"
#include "echo/channel.hpp"
#include "obs/metrics.hpp"
#include "qa/delivery.hpp"
#include "qa/generators.hpp"
#include "qa/oracles.hpp"
#include "transport/fault_transport.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace acex::qa {
namespace {

/// Checks a retired injector's identity and folds its counters into `sum`
/// (the obs mirror check in run_soak compares every injector's share).
void retire_injector(const char* tag, const transport::FaultCounters& c,
                     transport::FaultCounters& sum, const Violate& violate) {
  for (std::string& v : fault_identity(c)) {
    violate(std::string(tag) + ": " + std::move(v));
  }
  using F = transport::FaultCounters;
  for (std::uint64_t F::*n : {&F::messages, &F::drops, &F::reorders,
                              &F::duplicates, &F::bit_flips, &F::truncations,
                              &F::clean}) {
    sum.*n += c.*n;
  }
}

/// Broker half of the soak: one FanoutBroker fanning every published block
/// out to N subscribers, each over its own faulted wire with a kNack
/// receiver. Subscribers churn mid-stream; a subscriber that joined after
/// J published blocks maps its local sequence s to block J + s (broker
/// sequences start at 0 at subscribe time).
struct BrokerSoak {
  struct Sub {
    std::unique_ptr<FaultedWire> wire;
    std::unique_ptr<adaptive::AdaptiveReceiver> rx;
    broker::SubscriberId id = 0;
    DeliveryLedger::Receiver got;
  };

  const SoakConfig& config;
  const transport::FaultConfig faults;  ///< reseeded per subscriber
  Violate violate;

  VirtualClock clock;  ///< shared by every subscriber link
  broker::FanoutBroker broker;
  std::vector<std::unique_ptr<Sub>> subs;
  DeliveryLedger ledger;
  std::uint64_t planned_frames = 0;    ///< Σ live subscribers per publish
  std::uint64_t retransmits = 0;
  transport::FaultCounters fault_sum;  ///< over every retired injector
  std::uint64_t next_endpoint = 0;
  Rng rng;

  BrokerSoak(const SoakConfig& cfg, const transport::FaultConfig& mix,
             Violate v)
      : config(cfg),
        faults(mix),
        violate(std::move(v)),
        broker(broker_config(cfg)),
        ledger(violate),
        rng(cfg.seed + 71) {
    for (std::size_t i = 0; i < cfg.broker_subscribers; ++i) {
      add_subscriber();
    }
  }

  static broker::BrokerConfig broker_config(const SoakConfig& cfg) {
    broker::BrokerConfig bc;
    bc.worker_threads = cfg.workers == 0 ? 1 : cfg.workers;
    return bc;
  }

  void add_subscriber() {
    auto sub = std::make_unique<Sub>();
    const std::uint64_t n = ++next_endpoint;
    sub->wire = endpoint_wire(clock, config.seed, n, faults);

    adaptive::ReceiverConfig rc;
    rc.policy = adaptive::RecoveryPolicy::kNack;
    rc.nack_retry_cap = config.nack_retry_cap;
    sub->rx = std::make_unique<adaptive::AdaptiveReceiver>(
        sub->wire->receiver(), rc);

    broker::SubscriberConfig sc;
    sc.name = "qa-sub-" + std::to_string(n);
    sc.adaptive.decision.block_size = config.block_size;
    sc.adaptive.decision.sample_size =
        std::min<std::size_t>(1024, config.block_size);
    // Fig. 4's model, not the wall clock: the same seed plans the same
    // methods, so the encode counts replay too.
    sc.adaptive.cpu_meter = adaptive::CpuMeter::paper_model();
    sc.adaptive.retransmit_capacity = config.blocks_per_round * 6 + 64;
    sc.adaptive.retransmit_max_retries = config.nack_retry_cap;
    sc.egress_capacity = config.blocks_per_round * 6 + 64;
    // kDropOldest: the soak pumps on the publishing thread, so kBlock
    // would self-deadlock on overflow; evictions are NACK-recoverable.
    sc.policy = broker::SlowConsumerPolicy::kDropOldest;
    sub->got = ledger.join("broker");
    sub->id = broker.subscribe(sub->wire->sender(), sc);
    subs.push_back(std::move(sub));
  }

  void publish(ByteView block) {
    for (const auto& sub : subs) {
      if (!broker.disconnected(sub->id)) ++planned_frames;
    }
    ledger.publish(block);
    broker.publish(block);
  }

  void pump_and_drain(Sub& sub) {
    broker.pump(sub.id);
    sub.wire->flush();
    ledger.drain(sub.got, sub.rx->receive_report());
  }

  bool nack_cycle(Sub& sub, int extra_passes) {
    return replay_nacks(*sub.rx, config.nack_retry_cap + extra_passes,
                        [&](const std::vector<std::uint64_t>& nacks) {
                          retransmits += broker.retransmit(sub.id, nacks);
                          pump_and_drain(sub);
                        });
  }

  void round(std::size_t round_index) {
    const std::size_t round_bytes =
        config.blocks_per_round * config.block_size;
    auto regimes = seed_payloads(round_bytes, config.seed + 53 * round_index);
    const Bytes& data = regimes[round_index % regimes.size()].data;
    for (std::size_t at = 0; at < data.size(); at += config.block_size) {
      const std::size_t len = std::min(config.block_size, data.size() - at);
      publish(ByteView(data.data() + at, len));
    }
    for (auto& sub : subs) {
      pump_and_drain(*sub);
      nack_cycle(*sub, 2);
      if (broker.disconnected(sub->id)) {
        violate("broker: subscriber " + std::to_string(sub->id) +
                " disconnected unexpectedly");
      }
    }
  }

  /// Settle the oldest subscriber's accounting and replace it with a fresh
  /// endpoint: the churn the broker promises to survive mid-stream.
  void maybe_churn(std::size_t completed_rounds) {
    if (config.broker_churn_every == 0 || subs.empty()) return;
    if (completed_rounds % config.broker_churn_every != 0) return;
    Sub& leaving = *subs.front();
    nack_cycle(leaving, 2);
    ledger.leave(leaving.got);
    retire_injector("broker", leaving.wire->counters(), fault_sum, violate);
    broker.unsubscribe(leaving.id);
    subs.erase(subs.begin());
    add_subscriber();
  }

  /// Heal every link, push a sentinel block past any tail drops, replay to
  /// a fixed point, then check the accounting and shared-encode identities.
  void finish(SoakReport& report) {
    for (auto& sub : subs) sub->wire->heal();
    if (!subs.empty()) {
      const Bytes sentinel = rng.bytes(config.block_size);
      publish(sentinel);
      for (auto& sub : subs) {
        pump_and_drain(*sub);
        if (!nack_cycle(*sub, 4)) {
          violate("broker: NACK traffic did not converge on a healed link");
        }
      }
    }
    for (auto& sub : subs) {
      ledger.settle(sub->got, *sub->rx);
      retire_injector("broker", sub->wire->counters(), fault_sum, violate);
    }

    report.broker_blocks = ledger.published();
    report.broker_recovered = ledger.recovered();
    report.broker_abandoned = ledger.abandoned();
    report.broker_retransmits = retransmits;
    const broker::BrokerStats bs = broker.stats();
    report.broker_encodes = bs.encodes;
    report.broker_cache_hits = bs.cache_hits;
    for (std::string& v :
         shared_encode_identity(bs, ledger.published(), planned_frames)) {
      violate("broker: " + std::move(v));
    }
  }
};

}  // namespace

SoakReport run_soak(const SoakConfig& config) {
  if (config.block_size == 0) {
    throw ConfigError("soak: block_size must be positive");
  }
  if (config.events_per_round == 0 && config.blocks_per_round == 0) {
    throw ConfigError("soak: nothing to soak (no events, no blocks)");
  }
  if (config.seconds <= 0 && config.rounds == 0) {
    throw ConfigError("soak: either seconds or rounds must be positive");
  }

  SoakReport report;
  const Violate violate = collect_into(report.violations);

  const obs::MetricsSnapshot obs_before =
      obs::MetricsRegistry::global().snapshot();

  transport::FaultConfig faults = fault_mix(config);

  // ---- pub/sub half: ECho channels bridged over a faulted link ---------
  VirtualClock pub_clock;
  faults.seed = config.seed ^ 0x9E3779B97F4A7C15ull;
  FaultedWire pub_wire(pub_clock, 2e7, 2e8, config.seed * 4 + 1, faults);

  echo::EventChannel producer("qa.soak.producer");
  echo::EventChannel consumer("qa.soak.consumer");
  const std::size_t ring_capacity = config.events_per_round * 4 + 64;
  echo::ChannelSender bridge_tx(producer, pub_wire.sender(), ring_capacity,
                                config.nack_retry_cap);
  echo::ChannelReceiver bridge_rx(consumer, pub_wire.receiver(),
                                  config.nack_retry_cap);

  // Events are numbered by the app-level `qa.seq` attribute (== the bridge
  // sequence: this producer channel carries soak events only).
  DeliveryLedger events(violate);
  DeliveryLedger::Receiver events_got = events.join("pubsub");
  consumer.subscribe([&](const echo::Event& event) {
    const auto seq = event.attributes.get_int("qa.seq");
    if (!seq || *seq < 0) {
      violate("pubsub: delivered event carries no valid qa.seq attribute");
      return;
    }
    events.deliver(events_got, static_cast<std::uint64_t>(*seq),
                   event.payload);
  });
  const auto publish_event = [&](Bytes payload) {
    echo::Event event(std::move(payload));
    event.attributes.set_int("qa.seq",
                             static_cast<std::int64_t>(events.published()));
    events.publish(event.payload);
    producer.submit(std::move(event));
  };

  // ---- engine half: parallel sender + NACK receiver over a faulted link
  VirtualClock eng_clock;
  faults.seed = config.seed ^ 0xC2B2AE3D27D4EB4Full;
  FaultedWire eng_wire(eng_clock, 5e7, 5e8, config.seed * 4 + 3, faults);

  adaptive::AdaptiveConfig eng_config =
      engine_config(config.workers, config.block_size);
  eng_config.retransmit_capacity = config.blocks_per_round * 6 + 64;
  eng_config.retransmit_max_retries = config.nack_retry_cap;
  adaptive::AdaptiveSender eng_tx(eng_wire.sender(), eng_config);

  adaptive::ReceiverConfig rx_config;
  rx_config.policy = adaptive::RecoveryPolicy::kNack;
  rx_config.nack_retry_cap = config.nack_retry_cap;
  adaptive::AdaptiveReceiver eng_rx(eng_wire.receiver(), rx_config);

  DeliveryLedger blocks(violate);
  DeliveryLedger::Receiver blocks_got = blocks.join("engine");
  const auto send_blocks = [&](ByteView data) {
    const std::uint64_t before = blocks.published();
    blocks.publish(data, config.block_size);
    const std::uint64_t expected = blocks.published() - before;
    const std::size_t sent = eng_tx.send_all(data).blocks.size();
    if (sent != expected) {
      violate("engine: sender split " + std::to_string(sent) +
              " blocks where " + std::to_string(expected) + " were expected");
    }
    eng_wire.flush();
    blocks.drain(blocks_got, eng_rx.receive_report());
  };

  auto pubsub_nack_cycle = [&](int extra_passes) {
    return replay_nacks(
        config.nack_retry_cap + extra_passes,
        [&] { return bridge_rx.signal_nacks(); },
        [&] {
          bridge_tx.pump_control();
          pub_wire.flush();
          bridge_rx.poll();
        });
  };
  auto engine_nack_cycle = [&](int extra_passes) {
    return replay_nacks(eng_rx, config.nack_retry_cap + extra_passes,
                        [&](const std::vector<std::uint64_t>& nacks) {
                          report.block_retransmits += eng_tx.retransmit(nacks);
                          eng_wire.flush();
                          blocks.drain(blocks_got, eng_rx.receive_report());
                        });
  };

  // ---- broker half (optional): fan-out with per-subscriber recovery ----
  std::unique_ptr<BrokerSoak> brk;
  if (config.broker_subscribers > 0) {
    brk = std::make_unique<BrokerSoak>(config, faults, violate);
  }

  Rng event_rng(config.seed + 17);

  // ---- the soak loop ---------------------------------------------------
  const auto started = std::chrono::steady_clock::now();
  auto budget_left = [&] {
    if (report.violations.size() >= kMaxViolations) return false;
    if (config.seconds <= 0) return report.rounds < config.rounds;
    if (report.rounds == 0) return true;  // always run at least one round
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    return elapsed < config.seconds;
  };

  while (budget_left()) {
    // Pub/sub round: publish, drain, NACK-replay while still faulty.
    for (std::size_t i = 0; i < config.events_per_round; ++i) {
      publish_event(event_rng.bytes(64 + event_rng.below(961)));
    }
    pub_wire.flush();
    bridge_rx.poll();
    pubsub_nack_cycle(2);
    events.check_gaps(events_got, bridge_rx.missing());

    // Engine round: stream one workload regime, drain, NACK-replay.
    if (config.blocks_per_round > 0) {
      const std::size_t round_bytes =
          config.blocks_per_round * config.block_size;
      auto regimes =
          seed_payloads(round_bytes, config.seed + 31 * report.rounds);
      send_blocks(regimes[report.rounds % regimes.size()].data);
      engine_nack_cycle(2);
    }

    // Broker round: publish the fan-out stream, recover per subscriber,
    // then churn the subscriber set on its cadence.
    if (brk) {
      brk->round(report.rounds);
      brk->maybe_churn(report.rounds + 1);
    }

    ++report.rounds;
  }

  // ---- convergence: heal both links, flush the tails, replay to a fixed
  // point where every sequence is recovered or explicitly abandoned ------
  pub_wire.heal();
  eng_wire.heal();

  {  // Sentinel event: tail drops only become visible gaps once a later
     // sequence arrives, so push one clean event past them.
    publish_event(event_rng.bytes(64));
    pub_wire.flush();
    bridge_rx.poll();
    if (!pubsub_nack_cycle(4)) {
      violate("pubsub: NACK traffic did not converge on a healed link");
    }
  }
  if (blocks.published() > 0) {  // Sentinel block, same reason.
    send_blocks(event_rng.bytes(config.block_size));
    if (!engine_nack_cycle(4)) {
      violate("engine: retransmit ring did not converge on a healed link");
    }
  }
  if (brk) brk->finish(report);

  // ---- final accounting: recovered + abandoned + gaps == published ------
  events.settle(events_got, bridge_rx.events_abandoned(),
                bridge_rx.missing().size());
  report.events_published = events.published();
  report.events_delivered = events.recovered();
  report.events_unrecovered = events.abandoned();
  report.event_retransmits = bridge_tx.events_retransmitted();

  blocks.settle(blocks_got, eng_rx);
  report.blocks_sent = blocks.published();
  report.blocks_recovered = blocks.recovered();
  report.blocks_abandoned = blocks.abandoned();

  // Fault-counter identity on every injector, and the obs mirror.
  transport::FaultCounters fault_sum = brk ? brk->fault_sum
                                           : transport::FaultCounters{};
  retire_injector("pubsub", pub_wire.counters(), fault_sum, violate);
  retire_injector("engine", eng_wire.counters(), fault_sum, violate);
  report.faults_injected = fault_sum.drops + fault_sum.reorders +
                           fault_sum.duplicates + fault_sum.bit_flips +
                           fault_sum.truncations;
  for (std::string& v :
       check_series(obs_before, obs::MetricsRegistry::global().snapshot(),
                    fault_rows(fault_sum))) {
    violate("obs: " + std::move(v));
  }

  return report;
}

}  // namespace acex::qa
