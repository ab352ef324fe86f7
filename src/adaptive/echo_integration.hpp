#pragma once

#include <memory>

#include "adaptive/decision.hpp"
#include "adaptive/monitor.hpp"
#include "adaptive/sampler.hpp"
#include "compress/frame.hpp"
#include "echo/bus.hpp"
#include "netsim/bandwidth.hpp"

namespace acex::adaptive {

/// Name of the quality attribute a consumer sets to request a method
/// change, and which compressed events carry to describe their encoding.
inline constexpr const char* kMethodAttr = "acex.method";
/// Accept-rate measurement (bytes/s) consumers report upstream.
inline constexpr const char* kAcceptRateAttr = "acex.accept_rate";
/// Original (pre-compression) payload size, stamped on compressed events.
inline constexpr const char* kOriginalSizeAttr = "acex.original_size";

/// A fixed-method compression handler (§3.2: "compression methods are
/// integrated into ECho as event handlers"). Each event's payload is
/// replaced by a self-describing frame whose sequence is the handler's
/// event count; attributes gain kMethodAttr and kOriginalSizeAttr. A codec
/// failure propagates to the bus: the handler never degrades silently.
echo::EventHandler make_compression_handler(MethodId method);

/// The inverse handler for consumer-side decompression. Frames name their
/// own codec, so one handler decodes any method the producer picks.
echo::EventHandler make_decompression_handler();

/// Producer-side switchable compressor: an event handler whose method can
/// be changed mid-stream, either programmatically or by a consumer's
/// control attributes (kMethodAttr). This is the execution vessel the
/// §3.2 adaptive story needs: consumers decide, producers apply.
class SwitchableCompressor {
 public:
  explicit SwitchableCompressor(MethodId initial = MethodId::kNone);

  MethodId method() const noexcept { return method_; }
  void set_method(MethodId method);

  /// The data-path handler to install (e.g. via EventBus::derive_channel),
  /// framing as make_compression_handler() does with whichever method is
  /// current. The returned handler shares this object's method and event
  /// count, and stays valid after the compressor is destroyed.
  echo::EventHandler handler();

  /// The control-path hook: reads kMethodAttr out of consumer signals.
  echo::ControlSink control_sink();

  /// How many events the handler compressed so far (diagnostics).
  std::uint64_t events_compressed() const noexcept { return state_->events; }

  /// How many consumer control requests were applied.
  std::uint64_t switches_applied() const noexcept { return switches_; }

 private:
  struct State {
    MethodId method;
    CodecRegistry registry = CodecRegistry::with_builtins();
    std::uint64_t events = 0;
  };

  MethodId method_;  // mirror for cheap reads
  std::shared_ptr<State> state_;
  std::uint64_t switches_ = 0;
};

/// The §3.2 channel-derivation dance, packaged: "the consumer deploys a
/// new method by simply deriving the appropriate event channel with that
/// method. Having done so, the consumer can then unsubscribe from the
/// original channel and subscribe to the new one."
///
/// The switcher owns one derived channel at a time. switch_method() derives
/// a fresh channel from the source with a compression handler for the new
/// method, moves the consumer's sink over, and removes the stale derived
/// channel — producers are never touched, and "maintaining a small number
/// of open channels and switching among them ... does not adversely affect
/// performance".
class DerivedChannelSwitcher {
 public:
  /// `sink` receives the (compressed) events of whichever derived channel
  /// is current. The bus and source channel must outlive the switcher.
  DerivedChannelSwitcher(echo::EventBus& bus, echo::ChannelId source,
                         echo::EventSink sink,
                         MethodId initial = MethodId::kNone);
  ~DerivedChannelSwitcher();

  DerivedChannelSwitcher(const DerivedChannelSwitcher&) = delete;
  DerivedChannelSwitcher& operator=(const DerivedChannelSwitcher&) = delete;

  /// Re-derive with a new compression method; no-op if unchanged.
  void switch_method(MethodId method);

  MethodId method() const noexcept { return method_; }
  echo::ChannelId current_channel() const noexcept { return current_; }
  std::uint64_t switches() const noexcept { return switches_; }

 private:
  void derive(MethodId method);

  echo::EventBus* bus_;
  echo::ChannelId source_;
  echo::EventSink sink_;
  MethodId method_;
  echo::ChannelId current_ = 0;
  echo::SubscriberId subscription_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t generation_ = 0;
};

/// Consumer-side adaptation logic: measures the rate at which events are
/// accepted, runs the §2.5 decision on each event, and — when the best
/// method changes — signals the producer through the channel's control
/// path. The producer side installs a SwitchableCompressor whose
/// control_sink() consumes these signals.
///
/// This realizes the paper's loop without deriving a new channel per
/// switch; EventBus::derive_channel covers the derivation variant (the
/// test suite exercises both).
class ConsumerController {
 public:
  ConsumerController(echo::EventChannel& channel, const Clock& clock,
                     DecisionParams params = {});

  /// Call for every received (still-compressed) event, BEFORE
  /// decompression. Returns the method it now considers best; sends a
  /// control signal upstream when that changed.
  MethodId observe(const echo::Event& event);

  MethodId current() const noexcept { return current_; }
  std::uint64_t switches() const noexcept { return switches_; }

 private:
  echo::EventChannel* channel_;
  const Clock* clock_;
  DecisionParams params_;
  netsim::BandwidthEstimator bandwidth_;
  ReducingSpeedMonitor monitor_;
  Sampler sampler_;
  MethodId current_ = MethodId::kNone;
  std::uint64_t switches_ = 0;
  Seconds last_event_time_ = -1;
};

}  // namespace acex::adaptive
