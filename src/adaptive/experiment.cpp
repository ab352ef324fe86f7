#include "adaptive/experiment.hpp"

#include <algorithm>

#include "transport/sim_transport.hpp"

namespace acex::adaptive {
namespace {

/// Wire one scenario: loaded forward link, clean reverse link, one virtual
/// clock, CPU time charged onto that clock.
struct Scenario {
  VirtualClock clock;
  netsim::SimLink forward;
  netsim::SimLink reverse;
  transport::SimDuplex duplex;

  explicit Scenario(const ExperimentConfig& config)
      : forward(config.link, config.seed),
        reverse(config.reverse_link, config.seed + 1),
        duplex(forward, reverse, clock) {
    if (!config.background.points().empty()) {
      forward.set_background(&config.background);
    }
  }
};

AdaptiveConfig wire_cpu_clock(AdaptiveConfig adaptive, VirtualClock& clock) {
  adaptive.on_cpu_time = [&clock](Seconds t) { clock.advance(t); };
  return adaptive;
}

ExperimentResult finish(std::string policy, StreamReport stream,
                        ByteView data, transport::SimHalf& receiver_end,
                        double cpu_scale) {
  ExperimentResult result;
  result.policy = std::move(policy);
  result.stream = std::move(stream);
  AdaptiveReceiver receiver(receiver_end);
  const Bytes restored = receiver.receive_available();
  result.receiver_decompress_seconds =
      receiver.decompress_seconds() / cpu_scale;
  result.verified = restored.size() == data.size() &&
                    std::equal(restored.begin(), restored.end(), data.begin());
  return result;
}

}  // namespace

namespace {

/// Shared driver: optionally paced, adaptive (`method` empty) or fixed.
StreamReport drive_stream(ByteView data, const ExperimentConfig& config,
                          Scenario& scenario,
                          std::optional<MethodId> method) {
  AdaptiveConfig adaptive = wire_cpu_clock(config.adaptive, scenario.clock);
  if (!config.context_takeover) {
    // Same pin a context_takeover=false handshake applies: every block is
    // planned from a fresh inline sample, never from carried-over state.
    adaptive.async_sampling = false;
  }
  AdaptiveSender sender(scenario.duplex.a(), adaptive);
  StreamReport stream;
  const std::size_t block_size = adaptive.decision.block_size;
  std::size_t index = 0;
  for (std::size_t off = 0; off < data.size(); off += block_size, ++index) {
    if (config.pace > 0) {
      scenario.clock.advance_to(static_cast<double>(index) * config.pace);
    }
    if (!config.context_takeover) sender.reset_adaptation();
    const std::size_t len = std::min(block_size, data.size() - off);
    const std::size_t next_off = off + len;
    const ByteView next =
        next_off < data.size()
            ? data.subspan(next_off,
                           std::min(block_size, data.size() - next_off))
            : ByteView{};
    stream.add(method
                   ? sender.send_block_fixed(data.subspan(off, len), *method)
                   : sender.send_block(data.subspan(off, len), next));
  }
  return stream;
}

}  // namespace

ExperimentResult run_adaptive(ByteView data, const ExperimentConfig& config) {
  Scenario scenario(config);
  StreamReport stream = drive_stream(data, config, scenario, std::nullopt);
  return finish("adaptive", std::move(stream), data, scenario.duplex.b(),
                config.adaptive.cpu_scale);
}

ExperimentResult run_fixed(ByteView data, const ExperimentConfig& config,
                           MethodId method) {
  Scenario scenario(config);
  StreamReport stream = drive_stream(data, config, scenario, method);
  return finish(std::string(method_name(method)), std::move(stream), data,
                scenario.duplex.b(), config.adaptive.cpu_scale);
}

double cpu_scale_for_lz_speed(ByteView sample, double target_reducing_Bps) {
  // Measure at the granularity the sender charges: full 128 KiB block
  // compressions (4 KiB probes run severalfold faster per byte and would
  // skew the scale). Fastest-of-three over a few offsets.
  constexpr std::size_t kBlock = 128 * 1024;
  const std::size_t usable = sample.size() >= kBlock ? sample.size() : 0;
  if (usable == 0) {
    // Tiny calibration corpus: fall back to whatever fits.
    Sampler probe(std::max<std::size_t>(sample.size(), 1));
    const SampleResult s = probe.sample(sample);
    return s.reducing_speed > 0 ? target_reducing_Bps / s.reducing_speed
                                : 1.0;
  }
  MonotonicClock clock;
  LempelZivCodec lz;
  double speed_sum = 0;
  int speeds = 0;
  const std::size_t step =
      std::max<std::size_t>((usable - kBlock) / 3 + 1, 1);
  for (std::size_t off = 0; off + kBlock <= usable && speeds < 4;
       off += step) {
    const ByteView block = sample.subspan(off, kBlock);
    Seconds best = 1e9;
    std::size_t packed_size = kBlock;
    for (int run = 0; run < 3; ++run) {
      const Stopwatch sw(clock);
      packed_size = lz.compress(block).size();
      best = std::min(best, sw.elapsed());
    }
    if (packed_size < kBlock && best > 0) {
      speed_sum += static_cast<double>(kBlock - packed_size) / best;
      ++speeds;
    }
  }
  if (speeds == 0) return 1.0;  // incompressible: scaling is moot
  return target_reducing_Bps / (speed_sum / speeds);
}

std::vector<ExperimentResult> run_policy_comparison(
    ByteView data, const ExperimentConfig& config) {
  std::vector<ExperimentResult> results;
  results.push_back(run_adaptive(data, config));
  for (const MethodId method :
       {MethodId::kNone, MethodId::kLempelZiv, MethodId::kBurrowsWheeler}) {
    results.push_back(run_fixed(data, config, method));
  }
  return results;
}

}  // namespace acex::adaptive
