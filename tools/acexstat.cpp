// acexstat — observability smoke tool: drives a parallel adaptive stream
// over a fault-injecting simulated link, then prints the metrics registry
// and block-lifecycle trace that run produced (DESIGN.md §9).
//
//   acexstat [-w WORKERS] [-n BLOCKS] [-b BLOCK_KIB] [-s SEED]
//            [--json PATH] [--prom PATH] [--spans]
//   acexstat --broker SUBS [-n BLOCKS] [-b BLOCK_KIB] [-s SEED]
//   acexstat --chaos SESSIONS [-s SEED]
//   acexstat --shm SUBS [-n BLOCKS] [-b BLOCK_KIB] [-w WORKERS]
//
// The run itself doubles as a consistency check: each recovered block must
// arrive once and match the block sent, the obs fault counters must match
// the injector's own tallies, the NACK/retransmit counters the sender and
// receiver bookkeeping, and every histogram must satisfy p50 <= p99. Any
// violation exits 1 — CI runs this binary as a test. In every mode each obs
// comparison is one (series, ground truth) row checked by qa::check_series.
//
// --chaos SESSIONS runs the session-resilience battery instead: SESSIONS
// durable sessions are killed and reconnected mid-stream over faulted
// links (qa::run_chaos), and every `acex.session.*` series is checked
// against the chaos harness's own ground truth. Any mismatch exits 1.
//
// --broker SUBS runs the fan-out demo instead: SUBS subscribers on
// heterogeneous links (half fast, half slow, every fourth one faulted)
// receive the same block stream through one FanoutBroker, and every
// broker obs series — blocks, encode-cache hits/misses, per-subscriber
// frames/drops/fallbacks — is checked against the broker's own ground
// truth and the receivers' byte-exact recovery. Any mismatch exits 1.
//
// --shm SUBS runs the shared-memory fan-out demo instead: SUBS ShmBus
// endpoints receive the same block stream as descriptor-only messages
// staged once into refcounted slabs (DESIGN.md §16), verified byte-
// identical to the frames a plain capture transport would have carried,
// then a deliberately undersized ring exercises the force-reclaim /
// stale-descriptor / stale-release ladder. Every `acex.shm.*` series is
// checked against the ring's and endpoints' own ground truth.
//
// --json / --prom write the same snapshot through the JSON-lines or
// Prometheus exporter ("-" for stdout); --spans dumps the raw span ring.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "broker/broker.hpp"
#include "engine/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qa/chaos.hpp"
#include "qa/delivery.hpp"
#include "qa/oracles.hpp"
#include "shm/bus.hpp"
#include "transport/fault_transport.hpp"
#include "util/error.hpp"

namespace {

using namespace acex;

struct Options {
  std::size_t workers = 8;
  std::size_t blocks = 64;
  std::size_t block_kib = 4;
  std::uint64_t seed = 17;
  std::size_t broker_subs = 0;  // > 0 switches to the fan-out demo
  std::size_t chaos_sessions = 0;  // > 0 switches to the chaos battery
  std::size_t shm_subs = 0;  // > 0 switches to the shared-memory demo
  std::string json_path;  // empty = off, "-" = stdout
  std::string prom_path;
  bool dump_spans = false;
};

/// Deterministic test payload: repetitive text with a pseudo-random block
/// mixed in every fourth block, so the selector exercises several methods.
Bytes make_payload(std::size_t blocks, std::size_t block_size,
                   std::uint64_t seed) {
  Bytes data;
  data.reserve(blocks * block_size);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  const char* words[] = {"exchange ", "configurable ", "compression ",
                         "adaptive "};
  for (std::size_t b = 0; b < blocks; ++b) {
    if (b % 4 == 3) {
      for (std::size_t i = 0; i < block_size; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        data.push_back(static_cast<std::uint8_t>(x));
      }
    } else {
      while (data.size() < (b + 1) * block_size) {
        const char* w = words[(b + data.size() / 16) % 4];
        for (const char* c = w; *c && data.size() < (b + 1) * block_size; ++c) {
          data.push_back(static_cast<std::uint8_t>(*c));
        }
      }
    }
  }
  return data;
}

void write_output(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot create " + path);
  out << text;
  if (!out) throw IoError("failed writing " + path);
}

using Failures = std::vector<std::string>;

/// Scope every series to this run (the instruments themselves are
/// process-wide and permanent; only the values reset). Returns the zeroed
/// snapshot the run's obs rows are measured from.
obs::MetricsSnapshot reset_registry() {
  obs::MetricsRegistry::global().reset_values();
  obs::BlockTracer::global().clear();
  return obs::MetricsRegistry::global().snapshot();
}

/// Check `rows` against the registry as it stands now.
void check_rows(Failures& failures, const obs::MetricsSnapshot& before,
                const std::vector<qa::SeriesRow>& rows) {
  for (std::string& v : qa::check_series(
           before, obs::MetricsRegistry::global().snapshot(), rows)) {
    failures.push_back("MISMATCH " + std::move(v));
  }
}

/// A plain (non-obs) identity check.
void expect_identity(Failures& failures, const std::string& what,
                     std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    failures.push_back("MISMATCH " + what + ": " + std::to_string(got) +
                       " != " + std::to_string(want));
  }
}

/// Every mode's epilogue: each failure, then the verdict. `ok` is printed
/// only when every check held.
int verdict(const Failures& failures, const char* ok) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "acexstat: %s\n", f.c_str());
  }
  if (!failures.empty()) {
    std::fprintf(stderr, "acexstat: %zu consistency check(s) FAILED\n",
                 failures.size());
    return 1;
  }
  if (ok != nullptr) std::printf("  %s\n", ok);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: acexstat [-w WORKERS] [-n BLOCKS] [-b BLOCK_KIB] "
               "[-s SEED] [--json PATH] [--prom PATH] [--spans]\n"
               "       acexstat --broker SUBS [-n BLOCKS] [-b BLOCK_KIB] "
               "[-s SEED]\n"
               "       acexstat --chaos SESSIONS [-s SEED]\n"
               "       acexstat --shm SUBS [-n BLOCKS] [-b BLOCK_KIB] "
               "[-w WORKERS]\n");
  return 2;
}

// ------------------------------------------------------ fan-out demo mode
/// One broker subscriber endpoint for the demo: its own wire (all on a
/// shared virtual clock), every fourth one faulted, with a NACK receiver
/// draining the far side.
struct DemoSubscriber {
  std::unique_ptr<qa::FaultedWire> wire;
  std::unique_ptr<adaptive::AdaptiveReceiver> rx;
  broker::SubscriberId id = 0;
  qa::DeliveryLedger::Receiver got;
};

int run_broker_demo(const Options& opt) {
  const obs::MetricsSnapshot before = reset_registry();

  const std::size_t block_size = opt.block_kib * 1024;
  VirtualClock clock;
  broker::BrokerConfig bc;
  bc.worker_threads = opt.workers;
  broker::FanoutBroker broker(bc);
  Failures failures;
  qa::DeliveryLedger ledger(
      [&](std::string v) { failures.push_back(std::move(v)); });

  // Heterogeneous fleet: even subscribers ride a fast link, odd ones a slow
  // link (so the planners pick different methods and the encode cache has
  // real groups to share), and every fourth link drops/corrupts frames.
  std::vector<std::unique_ptr<DemoSubscriber>> subs;
  for (std::size_t i = 0; i < opt.broker_subs; ++i) {
    auto sub = std::make_unique<DemoSubscriber>();
    const bool fast = i % 2 == 0;
    const bool faulted = i % 4 == 3;
    const double link_bps = fast ? 5e7 : 2e5;
    transport::FaultConfig faults;
    faults.drop_prob = 0.05;
    faults.bit_flip_prob = 0.02;
    faults.seed = opt.seed * 31 + i;
    sub->wire = std::make_unique<qa::FaultedWire>(
        clock, link_bps, 1e9, opt.seed + i * 2,
        faulted ? std::optional(faults) : std::nullopt);
    adaptive::ReceiverConfig rc;
    rc.policy = adaptive::RecoveryPolicy::kNack;
    rc.nack_retry_cap = 4;
    sub->rx = std::make_unique<adaptive::AdaptiveReceiver>(
        sub->wire->receiver(), rc);

    broker::SubscriberConfig sc;
    sc.name = (fast ? "fast-" : "slow-") + std::to_string(i);
    if (faulted) sc.name += "-faulted";
    sc.adaptive.decision.block_size = block_size;
    sc.adaptive.decision.sample_size = std::min<std::size_t>(1024, block_size);
    sc.adaptive.initial_bandwidth_Bps = link_bps;
    // Fig. 4's model, not the wall clock: every run plans the same methods.
    sc.adaptive.cpu_meter = adaptive::CpuMeter::paper_model();
    sc.adaptive.retransmit_capacity = opt.blocks + 8;
    sc.adaptive.retransmit_max_retries = 4;
    sc.egress_capacity = opt.blocks + 8;
    sub->got = ledger.join(sc.name);
    sub->id = broker.subscribe(sub->wire->sender(), sc);
    subs.push_back(std::move(sub));
  }

  // Publish the stream, pump every subscriber, drain + NACK-replay the
  // faulted ones until every receiver has every block.
  const Bytes data = make_payload(opt.blocks, block_size, opt.seed);
  for (std::size_t at = 0; at < data.size(); at += block_size) {
    const ByteView block(data.data() + at,
                         std::min(block_size, data.size() - at));
    ledger.publish(block);
    broker.publish(block);
  }

  for (auto& sub : subs) {
    const auto pump_and_drain = [&] {
      broker.pump(sub->id);
      sub->wire->flush();
      ledger.drain(sub->got, sub->rx->receive_report());
    };
    pump_and_drain();
    qa::replay_nacks(*sub->rx, 16,
                     [&](const std::vector<std::uint64_t>& nacks) {
                       broker.retransmit(sub->id, nacks);
                       pump_and_drain();
                     });
    // A lost last frame is never a gap, because nothing follows it: on the
    // healed wire, replay whatever the receiver has not reached.
    sub->wire->heal();
    std::vector<std::uint64_t> tail;
    for (std::uint64_t seq = sub->rx->next_expected();
         seq < ledger.published(); ++seq) {
      tail.push_back(seq);
    }
    if (!tail.empty()) {
      broker.retransmit(sub->id, tail);
      pump_and_drain();
    }
  }

  // Obs rows: every broker series equals the broker's own bookkeeping, and
  // the fault mirror the demo's own injectors (the only ones alive).
  const broker::BrokerStats bs = broker.stats();
  std::uint64_t total_frames = 0;
  std::uint64_t fault_messages = 0;
  std::size_t least_recovered = ledger.published();
  std::vector<qa::SeriesRow> rows = {
      {"acex.broker.blocks", bs.blocks},
      {"acex.broker.encode_cache.hits", bs.cache_hits},
      {"acex.broker.encode_cache.misses", bs.cache_misses},
      {"acex.broker.subscribers", subs.size()},
  };
  for (auto& sub : subs) {
    const broker::SubscriberStats ss = broker.subscriber_stats(sub->id);
    total_frames += ss.frames;
    fault_messages += sub->wire->counters().messages;
    const std::string& name = sub->got.label;
    const std::string label = "{subscriber=\"" + name + "\"}";
    rows.push_back({"acex.broker.sub.frames" + label, ss.frames});
    rows.push_back({"acex.broker.sub.drops" + label, ss.drops});
    rows.push_back({"acex.broker.sub.fallbacks" + label, ss.fallbacks});
    ledger.settle(sub->got, *sub->rx);
    expect_identity(failures, name + " recovered blocks",
                    sub->got.recovered.size(), ledger.published());
    least_recovered = std::min(least_recovered, sub->got.recovered.size());
    if (broker.disconnected(sub->id)) {
      failures.push_back(name + " disconnected unexpectedly");
    }
  }
  rows.push_back({"acex.transport.fault.messages", fault_messages});
  check_rows(failures, before, rows);

  // Plain identities: the cache accounts for every planned frame, and
  // misses == codec runs.
  for (std::string& v :
       qa::shared_encode_identity(bs, ledger.published(), total_frames)) {
    failures.push_back("MISMATCH " + std::move(v));
  }

  const double hit_ratio =
      bs.cache_hits + bs.cache_misses == 0
          ? 0.0
          : static_cast<double>(bs.cache_hits) /
                static_cast<double>(bs.cache_hits + bs.cache_misses);
  std::printf(
      "acexstat --broker: %zu subscribers x %llu blocks (%zu KiB), seed %llu\n"
      "  encodes %llu, cache hits %llu (%.1f%% shared), last block had %llu "
      "method group(s)\n"
      "  every subscriber recovered %zu/%llu blocks byte-exact\n",
      subs.size(), static_cast<unsigned long long>(ledger.published()),
      opt.block_kib, static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(bs.encodes),
      static_cast<unsigned long long>(bs.cache_hits), hit_ratio * 100.0,
      static_cast<unsigned long long>(bs.last_groups), least_recovered,
      static_cast<unsigned long long>(ledger.published()));
  return verdict(failures, "obs counters match ground truth on every series");
}

// ----------------------------------------- shared-memory fan-out demo
/// Reference sink: what the TCP path would have carried, frame by frame.
struct ShmDemoCapture final : transport::Transport {
  void send(ByteView message) override {
    frames.emplace_back(message.begin(), message.end());
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const Clock& clock() const override { return clock_; }
  std::vector<Bytes> frames;

 private:
  MonotonicClock clock_;
};

int run_shm_demo(const Options& opt) {
  const obs::MetricsSnapshot before = reset_registry();
  const std::size_t block_size = opt.block_kib * 1024;
  const Bytes data = make_payload(opt.blocks, block_size, opt.seed);
  Failures failures;

  // Phase 1: fan out through a well-sized slab ring and verify the
  // descriptor path carries frames byte-identical to a capture transport.
  shm::ShmBusConfig bus_cfg;
  bus_cfg.ring.slab_count = opt.blocks + 16;
  bus_cfg.ring.slab_size = block_size + 512;
  bus_cfg.queue_capacity = opt.blocks + 8;
  shm::RingStats ring_truth;
  shm::ShmBusStats bus_truth;
  std::uint64_t stale_descriptors = 0;
  {
    const auto fan_out = [&](shm::ShmBus* bus) {
      broker::BrokerConfig bc;
      bc.worker_threads = opt.workers;
      if (bus != nullptr) bc.frame_builder = bus->frame_builder();
      broker::FanoutBroker broker(bc);
      std::vector<std::unique_ptr<shm::ShmEndpoint>> eps;
      std::vector<std::unique_ptr<ShmDemoCapture>> sinks;
      for (std::size_t i = 0; i < opt.shm_subs; ++i) {
        broker::SubscriberConfig sc;
        sc.adaptive.decision.block_size = block_size;
        sc.adaptive.decision.sample_size =
            std::min<std::size_t>(1024, block_size);
        // Fig. 4's model, not the wall clock: the capture and shm fan-outs
        // plan the same methods, so their frames can be compared byte for
        // byte.
        sc.adaptive.cpu_meter = adaptive::CpuMeter::paper_model();
        sc.egress_capacity = opt.blocks + 8;
        if (bus != nullptr) {
          eps.push_back(bus->endpoint());
          broker.subscribe(*eps.back(), sc);
        } else {
          sinks.push_back(std::make_unique<ShmDemoCapture>());
          broker.subscribe(*sinks.back(), sc);
        }
      }
      for (std::size_t at = 0; at < data.size(); at += block_size) {
        broker.publish(
            ByteView(data.data() + at, std::min(block_size, data.size() - at)));
      }
      broker.pump_all();

      if (bus != nullptr) {
        // Mid-flight, with every frame still pinned by descriptors and
        // retransmit rings: the gauges must mirror the ring exactly.
        const shm::RingStats mid = bus->ring().stats();
        check_rows(failures, before,
                   {{"acex.shm.slabs_in_use", mid.slabs_in_use},
                    {"acex.shm.ring.occupancy_pct",
                     static_cast<std::uint64_t>(
                         100.0 * mid.slabs_in_use /
                         static_cast<double>(mid.slab_count))}});
      }
      std::vector<std::vector<Bytes>> out(opt.shm_subs);
      for (std::size_t i = 0; i < opt.shm_subs; ++i) {
        if (bus != nullptr) {
          while (auto frame = eps[i]->receive()) out[i].push_back(*frame);
          stale_descriptors += eps[i]->stats().stale_descriptors;
        } else {
          out[i] = sinks[i]->frames;
        }
      }
      return out;
    };

    const auto reference = fan_out(nullptr);
    shm::ShmBus bus(bus_cfg);
    const auto via_shm = fan_out(&bus);
    for (std::size_t i = 0; i < opt.shm_subs; ++i) {
      if (reference[i] != via_shm[i]) {
        failures.push_back("MISMATCH shm subscriber " + std::to_string(i) +
                           " frames differ from the capture path");
      }
      expect_identity(failures, "shm frames per subscriber",
                      via_shm[i].size(), opt.blocks);
    }
    ring_truth = bus.ring().stats();
    bus_truth = bus.stats();
    expect_identity(failures, "shm phase-1 copy fallbacks",
                    bus_truth.copy_fallbacks, 0);
    expect_identity(failures, "shm staged frames", bus_truth.staged,
                    opt.blocks);
  }

  // Phase 2: a deliberately undersized ring (2 slabs, zero reclaim grace)
  // walks the whole degradation ladder — force-reclaim, stale descriptor,
  // stale release, corrupt injection — so the failure-path series have
  // real ground truth to be checked against.
  shm::ShmBusConfig tiny_cfg;
  tiny_cfg.ring.slab_count = 2;
  tiny_cfg.ring.slab_size = 4096;
  tiny_cfg.ring.reclaim_wait = 0;
  shm::ShmBus tiny(tiny_cfg);
  {
    const auto ep = tiny.endpoint();
    const Bytes small(64, 0x5A);
    // A held view outliving its slab: send/receive one, keep the view
    // pinned while two more sends force-reclaim its slab underneath it.
    ep->send(small);
    std::optional<BufferView> held = ep->receive_buffer();
    if (!held) {
      failures.push_back("shm stress receive came up empty");
      return verdict(failures, nullptr);
    }
    ep->send(small);
    ep->send(small);  // ring full: force-reclaims the held view's slab
    held.reset();     // stale release: the slab moved on without us
    // A queued descriptor outliving its slab: fill both slabs with queued
    // sends, then a third send reclaims the oldest while still queued.
    while (ep->receive_buffer()) {
    }
    ep->send(small);
    ep->send(small);
    ep->send(small);
    // Garbage on the wire is counted and skipped, never fatal.
    ep->inject_raw(Bytes{0xDE, 0xAD, 0xBE, 0xEF});
    while (ep->receive_buffer()) {
    }
    stale_descriptors += ep->stats().stale_descriptors;
    expect_identity(failures, "shm stress corrupt descriptors",
                    ep->stats().corrupt_descriptors, 1);
    expect_identity(failures, "shm stress stale descriptors",
                    ep->stats().stale_descriptors, 1);
  }
  const shm::RingStats tiny_truth = tiny.ring().stats();
  const shm::ShmBusStats tiny_bus = tiny.stats();

  // Every acex.shm.* series must equal the sum of the two rings' own
  // bookkeeping (the instruments are process-global, the truth is not);
  // everything was drained and released, so the gauge must read empty.
  check_rows(
      failures, before,
      {{"acex.shm.copy_fallbacks",
        bus_truth.copy_fallbacks + tiny_bus.copy_fallbacks},
       {"acex.shm.force_reclaims",
        ring_truth.force_reclaims + tiny_truth.force_reclaims},
       {"acex.shm.stale_releases",
        ring_truth.stale_releases + tiny_truth.stale_releases},
       {"acex.shm.stale_descriptors", stale_descriptors},
       {"acex.shm.reclaim_wait_seconds",
        ring_truth.reclaim_waits + tiny_truth.reclaim_waits},
       {"acex.shm.slabs_in_use",
        ring_truth.slabs_in_use + tiny_truth.slabs_in_use}});
  expect_identity(failures, "shm stress force-reclaims",
                  tiny_truth.force_reclaims, 2);

  std::printf(
      "acexstat --shm: %zu subscribers x %zu blocks (%zu KiB), %zu workers\n"
      "  staged %llu frames (%llu bytes) once each, %llu zero-copy "
      "deliveries, 0 copy fallbacks\n"
      "  stress ring: %llu force-reclaims, %llu stale releases, %llu stale "
      "descriptors, all typed and counted\n",
      opt.shm_subs, opt.blocks, opt.block_kib,
      opt.workers,
      static_cast<unsigned long long>(bus_truth.staged),
      static_cast<unsigned long long>(bus_truth.staged_bytes),
      static_cast<unsigned long long>(
          static_cast<std::uint64_t>(opt.shm_subs) * opt.blocks),
      static_cast<unsigned long long>(tiny_truth.force_reclaims),
      static_cast<unsigned long long>(tiny_truth.stale_releases),
      static_cast<unsigned long long>(stale_descriptors));
  return verdict(failures,
                 "shm obs series match ground truth on every series, frames "
                 "byte-identical to the capture path");
}

// -------------------------------------------------- chaos battery mode
int run_chaos_stat(const Options& opt) {
  const obs::MetricsSnapshot before = reset_registry();
  qa::ChaosConfig config;
  config.sessions = opt.chaos_sessions;
  config.seed = opt.seed;
  const qa::ChaosReport report = qa::run_chaos(config);

  Failures failures;
  for (const std::string& violation : report.violations) {
    failures.push_back("CHAOS VIOLATION " + violation);
  }
  // The session series against the harness's own report, and every
  // session ending the run attached: live gauge full, parked empty, and
  // the budget ladder back at its normal stage.
  check_rows(failures, before,
             {{"acex.session.resumes", report.resumes},
              {"acex.session.restarts", report.restarts},
              {"acex.session.expired", report.expired},
              {"acex.session.heartbeats", report.heartbeats},
              {"acex.session.live", opt.chaos_sessions},
              {"acex.session.parked", 0},
              {"acex.budget.stage", 0}});

  std::printf(
      "acexstat --chaos: %zu sessions, seed %llu, %zu rounds, %llu blocks\n"
      "  kills %llu, resumes %llu, restarts %llu, expired %llu, "
      "delivered %llu\n",
      opt.chaos_sessions, static_cast<unsigned long long>(opt.seed),
      report.rounds, static_cast<unsigned long long>(report.published),
      static_cast<unsigned long long>(report.kills),
      static_cast<unsigned long long>(report.resumes),
      static_cast<unsigned long long>(report.restarts),
      static_cast<unsigned long long>(report.expired),
      static_cast<unsigned long long>(report.delivered));
  return verdict(failures, "session obs series match ground truth, every "
                           "session resumed byte-exact");
}

int run(const Options& opt) {
  const obs::MetricsSnapshot before = reset_registry();
  VirtualClock clock;
  transport::FaultConfig faults;
  faults.bit_flip_prob = 0.02;
  faults.drop_prob = 0.01;
  faults.duplicate_prob = 0.01;
  faults.reorder_prob = 0.02;
  faults.seed = opt.seed;
  qa::FaultedWire wire(clock, 5e6, 1e9, opt.seed, faults);

  adaptive::AdaptiveConfig config =
      qa::engine_config(opt.workers, opt.block_kib * 1024);
  config.retransmit_capacity = opt.blocks + 8;  // keep every frame replayable
  config.retransmit_max_retries = 4;
  adaptive::AdaptiveSender sender(wire.sender(), config);
  adaptive::AdaptiveReceiver rx(wire.receiver(),
                                {adaptive::RecoveryPolicy::kNack, 4});

  // Every recovered block is checked against the block that was sent.
  Failures failures;
  qa::DeliveryLedger ledger(
      [&](std::string v) { failures.push_back(std::move(v)); });
  qa::DeliveryLedger::Receiver got = ledger.join("rx");
  const Bytes data =
      make_payload(opt.blocks, config.decision.block_size, opt.seed);
  ledger.publish(data, config.decision.block_size);
  const adaptive::StreamReport stream = sender.send_all(data);
  wire.flush();
  ledger.drain(got, rx.receive_report());

  std::uint64_t nacks_issued = 0;
  qa::replay_nacks(rx, 16, [&](const std::vector<std::uint64_t>& nacks) {
    nacks_issued += nacks.size();
    sender.retransmit(nacks);
    wire.flush();
    ledger.drain(got, rx.receive_report());
  });

  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::global().snapshot();
  const std::vector<obs::SpanEvent> spans = obs::BlockTracer::global().snapshot();

  // ------------------------------------------------ consistency checks
  std::vector<qa::SeriesRow> rows = qa::fault_rows(wire.counters());
  rows.push_back({"acex.adaptive.rx.nacks_issued", nacks_issued});
  rows.push_back(
      {"acex.adaptive.retransmits", sender.degradation().retransmits});
  rows.push_back({"acex.adaptive.blocks", stream.blocks.size()});
  check_rows(failures, before, rows);
  for (const obs::MetricPoint& point : snapshot.points) {
    if (point.kind != obs::MetricPoint::Kind::kHistogram) continue;
    if (point.hist.count == 0) continue;
    if (!(point.hist.p50() <= point.hist.p99())) {
      failures.push_back("INSANE QUANTILES " + point.full_name() + ": p50=" +
                         std::to_string(point.hist.p50()) + " > p99=" +
                         std::to_string(point.hist.p99()));
    }
  }

  // ------------------------------------------------------------ output
  std::printf("acexstat: %zu blocks x %zu KiB, %zu workers, seed %llu\n",
              opt.blocks, opt.block_kib,
              engine::resolve_worker_threads(opt.workers),
              static_cast<unsigned long long>(opt.seed));
  std::printf("recovered %zu/%zu blocks, %llu NACKs issued\n\n",
              got.recovered.size(), stream.blocks.size(),
              static_cast<unsigned long long>(nacks_issued));
  std::fputs(obs::to_text(snapshot).c_str(), stdout);

  // Per-stage span digest: the block lifecycle at a glance.
  std::map<obs::Stage, std::pair<std::uint64_t, double>> stages;
  for (const obs::SpanEvent& span : spans) {
    auto& [count, total] = stages[span.stage];
    ++count;
    total += span.duration_us();
  }
  std::printf("\nspans (%llu recorded, %llu dropped by ring wrap)\n",
              static_cast<unsigned long long>(obs::BlockTracer::global().recorded()),
              static_cast<unsigned long long>(obs::BlockTracer::global().dropped()));
  for (const auto& [stage, acc] : stages) {
    std::printf("  %-10s %8llu spans  mean %10.1f us\n",
                std::string(obs::stage_name(stage)).c_str(),
                static_cast<unsigned long long>(acc.first),
                acc.first ? acc.second / static_cast<double>(acc.first) : 0.0);
  }

  if (opt.dump_spans) {
    std::fputs("\n", stdout);
    std::fputs(obs::to_json_lines(spans).c_str(), stdout);
  }
  if (!opt.json_path.empty()) {
    write_output(opt.json_path,
                 obs::to_json_lines(snapshot) + obs::to_json_lines(spans));
  }
  if (!opt.prom_path.empty()) {
    write_output(opt.prom_path, obs::to_prometheus(snapshot));
  }

  return verdict(failures, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "-w") {
        opt.workers = std::stoul(next());
      } else if (arg == "--broker") {
        opt.broker_subs = std::stoul(next());
        if (opt.broker_subs == 0) throw ConfigError("--broker must be > 0");
      } else if (arg == "--chaos") {
        opt.chaos_sessions = std::stoul(next());
        if (opt.chaos_sessions == 0) throw ConfigError("--chaos must be > 0");
      } else if (arg == "--shm") {
        opt.shm_subs = std::stoul(next());
        if (opt.shm_subs == 0) throw ConfigError("--shm must be > 0");
      } else if (arg == "-n") {
        opt.blocks = std::stoul(next());
        if (opt.blocks == 0) throw ConfigError("-n must be > 0");
      } else if (arg == "-b") {
        opt.block_kib = std::stoul(next());
        if (opt.block_kib == 0) throw ConfigError("-b must be > 0");
      } else if (arg == "-s") {
        opt.seed = std::stoull(next());
      } else if (arg == "--json") {
        opt.json_path = next();
      } else if (arg == "--prom") {
        opt.prom_path = next();
      } else if (arg == "--spans") {
        opt.dump_spans = true;
      } else {
        return usage();
      }
    }
    if (opt.chaos_sessions > 0) return run_chaos_stat(opt);
    if (opt.shm_subs > 0) return run_shm_demo(opt);
    return opt.broker_subs > 0 ? run_broker_demo(opt) : run(opt);
  } catch (const acex::Error& e) {
    std::fprintf(stderr, "acexstat: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acexstat: internal error: %s\n", e.what());
    return 1;
  }
}
