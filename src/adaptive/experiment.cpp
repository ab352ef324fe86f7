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
                        ByteView data, transport::SimHalf& receiver_end) {
  ExperimentResult result;
  result.policy = std::move(policy);
  result.stream = std::move(stream);
  AdaptiveReceiver receiver(receiver_end);
  const Bytes restored = receiver.receive_available();
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
  return finish("adaptive", std::move(stream), data, scenario.duplex.b());
}

ExperimentResult run_fixed(ByteView data, const ExperimentConfig& config,
                           MethodId method) {
  Scenario scenario(config);
  StreamReport stream = drive_stream(data, config, scenario, method);
  return finish(std::string(method_name(method)), std::move(stream), data,
                scenario.duplex.b());
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
