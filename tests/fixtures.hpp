#pragma once

// Test doubles shared by the test binaries: simulated duplexes over
// netsim::flat_link, frame sinks, misbehaving codecs, a recovered-frame
// collector and the sampler's obs counter. Everything is inline so a
// binary pays only for what it uses.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "compress/codec.hpp"
#include "netsim/link.hpp"
#include "obs/metrics.hpp"
#include "transport/sim_transport.hpp"
#include "transport/transport.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace acex {

using netsim::flat_link;

/// LZ probes every adaptive::Sampler in the process has taken so far
/// (`acex.adaptive.samples`); tests compare deltas of it.
inline std::uint64_t samples_taken() {
  return obs::MetricsRegistry::global()
      .counter("acex.adaptive.samples")
      .value();
}

/// One emulated duplex on its own virtual clock: `bps` forward, 1 GB/s
/// back.
struct SimWire {
  explicit SimWire(double bps)
      : forward(flat_link(bps), 1),
        reverse(flat_link(1e9), 2),
        duplex(forward, reverse, clock) {}

  VirtualClock clock;
  netsim::SimLink forward, reverse;
  transport::SimDuplex duplex;
};

/// Fixture with one emulated duplex on a virtual clock: `bps` forward,
/// 1 GB/s back. Call wire() before using duplex_.
class SimWireTest : public ::testing::Test {
 protected:
  void wire(double bps = 1e6) {
    forward_.emplace(flat_link(bps), 1);
    reverse_.emplace(flat_link(1e9), 2);
    duplex_.emplace(*forward_, *reverse_, clock_);
  }

  VirtualClock clock_;
  std::optional<netsim::SimLink> forward_, reverse_;
  std::optional<transport::SimDuplex> duplex_;
};

/// One simulated subscriber endpoint: its own duplex link pair (both
/// directions at `bandwidth_Bps`), written into a() and drained from b().
struct SimEndpoint {
  explicit SimEndpoint(VirtualClock& clock, double bandwidth_Bps = 1e6,
                       std::uint64_t seed = 1)
      : forward(flat_link(bandwidth_Bps), seed),
        reverse(flat_link(bandwidth_Bps), seed + 1000),
        duplex(forward, reverse, clock) {}

  netsim::SimLink forward;
  netsim::SimLink reverse;
  transport::SimDuplex duplex;
};

/// Keeps every frame it is handed, in order. Single-threaded.
class CaptureTransport : public transport::Transport {
 public:
  void send(ByteView message) override {
    frames.emplace_back(message.begin(), message.end());
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const Clock& clock() const override { return clock_; }

  std::vector<Bytes> frames;

 private:
  MonotonicClock clock_;
};

/// Thread-safe wall-clock sink for tests that only count what left.
class SinkTransport final : public transport::Transport {
 public:
  void send(ByteView message) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++frames_;
    bytes_ += message.size();
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const Clock& clock() const override { return clock_; }

  std::uint64_t frames() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_;
  }
  std::uint64_t bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  MonotonicClock clock_;
};

/// Always-throwing codec: what a buggy or resource-starved method looks
/// like to the sender. Registered under kBurrowsWheeler.
class ThrowingCodec final : public Codec {
 public:
  MethodId id() const noexcept override { return MethodId::kBurrowsWheeler; }
  Bytes compress(ByteView) override { throw DecodeError("codec exploded"); }
  Bytes decompress(ByteView) override { throw DecodeError("codec exploded"); }
};

/// "Compressor" whose output is its input plus `growth` bytes — the other
/// degradation trigger. Registered under kBurrowsWheeler.
class ExpandingCodec final : public Codec {
 public:
  explicit ExpandingCodec(std::size_t growth = 4096) : growth_(growth) {}
  MethodId id() const noexcept override { return MethodId::kBurrowsWheeler; }
  Bytes compress(ByteView input) override {
    Bytes out(input.begin(), input.end());
    out.resize(out.size() + growth_, 0xEE);
    return out;
  }
  Bytes decompress(ByteView input) override {
    if (input.size() < growth_) throw DecodeError("short expanded payload");
    return Bytes(input.begin(), input.end() - static_cast<std::ptrdiff_t>(growth_));
  }

 private:
  std::size_t growth_;
};

/// Intact frames gathered across receive passes, keyed by sequence.
struct RecoveredFrames : std::map<std::uint64_t, Bytes> {
  void absorb(const adaptive::ReceiveReport& report) {
    for (const adaptive::FrameOutcome& f : report.frames) {
      if (f.status == adaptive::FrameOutcome::Status::kOk) {
        emplace(f.sequence, f.data);
      }
    }
  }
};

}  // namespace acex
