#include "adaptive/echo_integration.hpp"

#include <atomic>

#include "adaptive/pipeline.hpp"
#include "util/error.hpp"

namespace acex::adaptive {

echo::EventHandler make_compression_handler(MethodId method) {
  // The handler shares the compressor's state, not the compressor itself.
  return SwitchableCompressor(method).handler();
}

echo::EventHandler make_decompression_handler() {
  auto registry = std::make_shared<CodecRegistry>(CodecRegistry::with_builtins());
  return [registry](echo::Event event) -> std::optional<echo::Event> {
    if (!event.attributes.has(kMethodAttr)) return event;  // not compressed
    event.payload = frame_decompress(event.payload, *registry);
    event.attributes.erase(kMethodAttr);
    event.attributes.erase(kOriginalSizeAttr);
    return event;
  };
}

SwitchableCompressor::SwitchableCompressor(MethodId initial)
    : method_(initial), state_(std::make_shared<State>()) {
  state_->method = initial;
}

void SwitchableCompressor::set_method(MethodId method) {
  if (!state_->registry.contains(method)) {
    throw ConfigError("SwitchableCompressor: unknown method");
  }
  method_ = method;
  state_->method = method;
}

echo::EventHandler SwitchableCompressor::handler() {
  auto state = state_;
  return [state](echo::Event event) -> std::optional<echo::Event> {
    // The sender's one encoder, without its silent null-codec fallback:
    // the frame names the method the consumer asked for, or the bus sees
    // the codec's error. The event count is the frame sequence.
    const MethodId method = state->method;
    const std::uint64_t sequence = state->events;
    const PayloadEncode encoded =
        encode_payload(state->registry, event.payload, method,
                       /*expansion_slack_bytes=*/0, /*allow_degrade=*/false,
                       sequence);
    event.attributes.set_int(kOriginalSizeAttr,
                             static_cast<std::int64_t>(event.payload.size()));
    event.attributes.set_int(kMethodAttr, static_cast<std::int64_t>(method));
    event.payload = frame_build_seq(method, encoded.payload, encoded.crc,
                                    sequence);
    ++state->events;
    return event;
  };
}

echo::ControlSink SwitchableCompressor::control_sink() {
  auto state = state_;
  return [this, state](const echo::AttributeMap& attrs) {
    const auto requested = attrs.get_int(kMethodAttr);
    if (!requested) return;
    const auto method = static_cast<MethodId>(*requested);
    if (state->registry.contains(method)) {
      state->method = method;
      method_ = method;
      ++switches_;
    }
  };
}

DerivedChannelSwitcher::DerivedChannelSwitcher(echo::EventBus& bus,
                                               echo::ChannelId source,
                                               echo::EventSink sink,
                                               MethodId initial)
    : bus_(&bus), source_(source), sink_(std::move(sink)), method_(initial) {
  if (!sink_) throw ConfigError("switcher: sink must not be empty");
  derive(initial);
}

DerivedChannelSwitcher::~DerivedChannelSwitcher() {
  try {
    bus_->remove_channel(current_);
  } catch (const Error&) {
    // Source or channel already gone: nothing left to detach.
  }
}

void DerivedChannelSwitcher::derive(MethodId method) {
  // Process-unique suffix: multiple switchers may derive from one source
  // (one per consumer), and a bus requires unique channel names.
  static std::atomic<std::uint64_t> unique{0};
  generation_ = ++unique;
  const std::string name = bus_->channel(source_).name() + ".derived." +
                           std::to_string(generation_);
  const echo::ChannelId fresh =
      bus_->derive_channel(source_, make_compression_handler(method), name);
  const echo::SubscriberId sub = bus_->channel(fresh).subscribe(sink_);

  if (current_ != 0) {
    // Unsubscribe from the old stream, then retire its channel.
    bus_->channel(current_).unsubscribe(subscription_);
    bus_->remove_channel(current_);
  }
  current_ = fresh;
  subscription_ = sub;
  method_ = method;
}

void DerivedChannelSwitcher::switch_method(MethodId method) {
  if (method == method_) return;
  derive(method);
  ++switches_;
}

ConsumerController::ConsumerController(echo::EventChannel& channel,
                                       const Clock& clock,
                                       DecisionParams params)
    : channel_(&channel),
      clock_(&clock),
      params_(params),
      sampler_(params.sample_size) {
  params_.validate();
}

MethodId ConsumerController::observe(const echo::Event& event) {
  const Seconds now = clock_->now();
  const std::size_t wire_bytes = event.payload.size();
  if (last_event_time_ >= 0 && now > last_event_time_) {
    bandwidth_.record(wire_bytes, now - last_event_time_);
  }
  last_event_time_ = now;

  const std::size_t original = static_cast<std::size_t>(
      event.attributes.get_int(kOriginalSizeAttr)
          .value_or(static_cast<std::int64_t>(wire_bytes)));
  const auto wire_method = static_cast<MethodId>(
      event.attributes.get_int(kMethodAttr)
          .value_or(static_cast<std::int64_t>(MethodId::kNone)));

  double ratio_percent;
  if (wire_method == MethodId::kNone) {
    // Raw payload: sample it with LZ locally, which both estimates the
    // compressibility and keeps the reducing-speed estimate fresh using
    // *this* (receiver) host's CPU — "decompression requires the use of
    // receivers' CPU cycles".
    const SampleResult s = sampler_.sample(event.payload);
    ratio_percent = s.ratio_percent;
    if (s.sample_bytes > 0) {
      monitor_.record(MethodId::kLempelZiv, s.sample_bytes, s.packed_bytes,
                      CpuMeter().charge(s.work()));
    }
  } else if (original > 0) {
    ratio_percent = 100.0 * static_cast<double>(wire_bytes) /
                    static_cast<double>(original);
  } else {
    ratio_percent = 100.0;
  }

  SelectionInputs inputs;
  const double bw = bandwidth_.estimate_or(1e6);
  inputs.send_seconds = static_cast<double>(original) / bw;
  inputs.lz_reduce_seconds =
      monitor_.reduce_seconds(MethodId::kLempelZiv, original);
  inputs.sampled_ratio_percent = ratio_percent;

  const MethodId best = decide(inputs, params_);
  if (best != current_) {
    current_ = best;
    ++switches_;
    echo::AttributeMap attrs;
    attrs.set_int(kMethodAttr, static_cast<std::int64_t>(best));
    attrs.set_double(kAcceptRateAttr, bw);
    channel_->signal_control(attrs);
  }
  return best;
}

}  // namespace acex::adaptive
