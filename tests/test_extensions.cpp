// Tests for the paper's §5 extension features: application-specific lossy
// compression plugged in at runtime, the derive-and-switch consumer dance,
// parallel chunked Burrows-Wheeler pipelines, and packet-pair bandwidth
// probing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "adaptive/echo_integration.hpp"
#include "compress/frame.hpp"
#include "compress/quant_codec.hpp"
#include "echo/bus.hpp"
#include "netsim/probe.hpp"
#include "testdata.hpp"
#include "util/error.hpp"
#include "workloads/molecular.hpp"

namespace acex {
namespace {

std::vector<float> to_floats(ByteView bytes) {
  std::vector<float> out(bytes.size() / 4);
  std::memcpy(out.data(), bytes.data(), out.size() * 4);
  return out;
}

// ------------------------------------------------------------ quant codec

TEST(FloatQuant, ErrorBoundedByHalfPrecision) {
  const double precision = 1e-3;
  FloatQuantCodec codec(precision);
  workloads::MolecularGenerator gen;
  const Bytes coords = gen.coordinates_bytes();

  const Bytes restored = codec.decompress(codec.compress(coords));
  ASSERT_EQ(restored.size(), coords.size());
  const auto original = to_floats(coords);
  const auto lossy = to_floats(restored);
  double max_err = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    max_err = std::max(
        max_err, std::abs(static_cast<double>(original[i]) -
                          static_cast<double>(lossy[i])));
  }
  // precision/2 from the grid, plus one float32 ULP at coordinate
  // magnitude (~100 => ulp ~ 7.6e-6) from the final cast.
  EXPECT_LE(max_err, precision / 2 + 2e-5);
}

TEST(FloatQuant, IdempotentOnAlreadyQuantizedData) {
  // Quantize-compress-decompress twice: the second pass must be lossless.
  FloatQuantCodec codec(1e-2);
  workloads::MolecularGenerator gen;
  const Bytes once = codec.decompress(codec.compress(gen.coordinates_bytes()));
  const Bytes twice = codec.decompress(codec.compress(once));
  EXPECT_EQ(twice, once);
}

TEST(FloatQuant, BeatsLosslessOnCoordinates) {
  // The whole point (§5): coordinates defeat lossless methods (Fig. 6,
  // ~90 % of original) but yield to application-specific lossy
  // compression once the application states its real precision needs.
  workloads::MolecularGenerator gen;
  const Bytes coords = gen.coordinates_bytes();

  FloatQuantCodec lossy(1e-2);  // 0.01 grid on a 100-unit box
  const auto lossless = make_codec(MethodId::kLempelZiv);
  const std::size_t lossy_size = lossy.compress(coords).size();
  const std::size_t lossless_size = lossless->compress(coords).size();
  EXPECT_LT(lossy_size, lossless_size * 2 / 3);
}

TEST(FloatQuant, CoarserPrecisionCompressesHarder) {
  workloads::MolecularGenerator gen;
  const Bytes coords = gen.coordinates_bytes();
  FloatQuantCodec fine(1e-5), coarse(1e-1);
  EXPECT_LT(coarse.compress(coords).size(), fine.compress(coords).size());
}

TEST(FloatQuant, EmptyInput) {
  FloatQuantCodec codec;
  EXPECT_TRUE(codec.decompress(codec.compress(Bytes{})).empty());
}

TEST(FloatQuant, RejectsNonFloatSizedInput) {
  FloatQuantCodec codec;
  EXPECT_THROW(codec.compress(Bytes(7, 0)), ConfigError);
}

TEST(FloatQuant, RejectsBadPrecision) {
  EXPECT_THROW(FloatQuantCodec(0.0), ConfigError);
  EXPECT_THROW(FloatQuantCodec(-1.0), ConfigError);
  EXPECT_THROW(FloatQuantCodec(std::numeric_limits<double>::infinity()),
               ConfigError);
}

TEST(FloatQuant, HandlesNonFiniteValues) {
  Bytes data;
  const float values[] = {1.0f, std::numeric_limits<float>::infinity(),
                          std::nanf(""), -2.5f};
  data.resize(sizeof values);
  std::memcpy(data.data(), values, sizeof values);
  FloatQuantCodec codec(1e-2);
  const Bytes restored = codec.decompress(codec.compress(data));
  const auto out = to_floats(restored);
  EXPECT_NEAR(out[0], 1.0f, 1e-2);
  EXPECT_NEAR(out[3], -2.5f, 1e-2);
  // Non-finite inputs quantize to zero rather than poisoning the stream.
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 0.0f);
}

TEST(FloatQuant, TruncatedStreamThrows) {
  FloatQuantCodec codec;
  workloads::MolecularGenerator gen;
  Bytes packed = codec.compress(gen.velocities_bytes());
  packed.resize(packed.size() / 2);
  EXPECT_THROW(codec.decompress(packed), DecodeError);
}

TEST(FloatQuant, RuntimeRegistrationAndFraming) {
  // The §3.2 deployment story: both sides register the new method at
  // runtime; frames then carry the application method id end to end.
  CodecRegistry sender_registry = CodecRegistry::with_builtins();
  CodecRegistry receiver_registry = CodecRegistry::with_builtins();
  register_float_quant(sender_registry, 1e-3);
  register_float_quant(receiver_registry, 1e-3);

  workloads::MolecularGenerator gen;
  const Bytes coords = gen.coordinates_bytes();
  const CodecPtr codec = sender_registry.create(FloatQuantCodec::kId);
  // Lossy codecs cannot share the CRC-checked frame helper (the restored
  // bytes differ); emulate the middleware path: compress, ship, decode by
  // id on the receiver.
  const Bytes packed = codec->compress(coords);
  const CodecPtr receiver_codec =
      receiver_registry.create(FloatQuantCodec::kId);
  const Bytes restored = receiver_codec->decompress(packed);
  EXPECT_EQ(restored.size(), coords.size());

  // An unregistered receiver must fail loudly, not misdecode.
  const CodecRegistry vanilla = CodecRegistry::with_builtins();
  EXPECT_THROW(vanilla.create(FloatQuantCodec::kId), ConfigError);
}

// --------------------------------------------------- derive-and-switch

TEST(DerivedChannelSwitcher, EventsFlowThroughCurrentMethod) {
  echo::EventBus bus;
  const auto source = bus.create_channel("data");

  std::vector<std::int64_t> methods_seen;
  adaptive::DerivedChannelSwitcher switcher(
      bus, source,
      [&](const echo::Event& e) {
        methods_seen.push_back(
            e.attributes.get_int(adaptive::kMethodAttr).value_or(-1));
      },
      MethodId::kNone);

  bus.channel(source).submit(echo::Event(testdata::repetitive_text(5000, 1)));
  switcher.switch_method(MethodId::kLempelZiv);
  bus.channel(source).submit(echo::Event(testdata::repetitive_text(5000, 2)));
  switcher.switch_method(MethodId::kBurrowsWheeler);
  bus.channel(source).submit(echo::Event(testdata::repetitive_text(5000, 3)));

  ASSERT_EQ(methods_seen.size(), 3u);
  EXPECT_EQ(methods_seen[0], static_cast<int>(MethodId::kNone));
  EXPECT_EQ(methods_seen[1], static_cast<int>(MethodId::kLempelZiv));
  EXPECT_EQ(methods_seen[2], static_cast<int>(MethodId::kBurrowsWheeler));
  EXPECT_EQ(switcher.switches(), 2u);
}

TEST(DerivedChannelSwitcher, OldChannelIsRetired) {
  echo::EventBus bus;
  const auto source = bus.create_channel("data");
  adaptive::DerivedChannelSwitcher switcher(bus, source,
                                            [](const echo::Event&) {});
  EXPECT_EQ(bus.channel_count(), 2u);  // source + derived
  const auto first = switcher.current_channel();
  switcher.switch_method(MethodId::kHuffman);
  EXPECT_EQ(bus.channel_count(), 2u);  // still exactly one derived channel
  EXPECT_NE(switcher.current_channel(), first);
  EXPECT_THROW(bus.channel(first), ConfigError);  // old one removed
}

TEST(DerivedChannelSwitcher, NoOpSwitchKeepsChannel) {
  echo::EventBus bus;
  const auto source = bus.create_channel("data");
  adaptive::DerivedChannelSwitcher switcher(bus, source,
                                            [](const echo::Event&) {},
                                            MethodId::kLempelZiv);
  const auto channel = switcher.current_channel();
  switcher.switch_method(MethodId::kLempelZiv);
  EXPECT_EQ(switcher.current_channel(), channel);
  EXPECT_EQ(switcher.switches(), 0u);
}

TEST(DerivedChannelSwitcher, SourceEventsNeverLostAcrossSwitch) {
  echo::EventBus bus;
  const auto source = bus.create_channel("data");
  const auto decompress = adaptive::make_decompression_handler();
  std::size_t bytes_received = 0;
  adaptive::DerivedChannelSwitcher switcher(
      bus, source, [&](const echo::Event& e) {
        bytes_received += decompress(e)->payload.size();
      });

  std::size_t bytes_sent = 0;
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    if (i % 5 == 4) {
      switcher.switch_method(rng.chance(0.5) ? MethodId::kLempelZiv
                                             : MethodId::kHuffman);
    }
    const Bytes payload = testdata::low_entropy(1000 + i, 10 + i);
    bytes_sent += payload.size();
    bus.channel(source).submit(echo::Event(payload));
  }
  EXPECT_EQ(bytes_received, bytes_sent);
}

TEST(DerivedChannelSwitcher, DestructorCleansUp) {
  echo::EventBus bus;
  const auto source = bus.create_channel("data");
  {
    adaptive::DerivedChannelSwitcher switcher(bus, source,
                                              [](const echo::Event&) {});
    EXPECT_EQ(bus.channel_count(), 2u);
  }
  EXPECT_EQ(bus.channel_count(), 1u);
  EXPECT_EQ(bus.channel(source).subscriber_count(), 0u);
}

// ----------------------------------------------------------- packet pair

TEST(PacketPair, EstimatesUnloadedBandwidth) {
  netsim::LinkParams params;
  params.bandwidth_Bps = 5e6;
  params.jitter_frac = 0.0;
  netsim::SimLink link(params, 3);
  const auto r = netsim::packet_pair_probe(link, 0.0);
  EXPECT_EQ(r.pairs, 5u);
  EXPECT_NEAR(r.bandwidth_Bps, 5e6, 5e4);
}

TEST(PacketPair, TracksBackgroundLoad) {
  netsim::LinkParams params;
  params.bandwidth_Bps = 5e6;
  params.jitter_frac = 0.0;
  params.share_per_connection = 0.01;
  netsim::SimLink link(params, 4);
  const netsim::LoadTrace trace({{0, 0}, {10, 60}});
  link.set_background(&trace);

  const auto quiet = netsim::packet_pair_probe(link, 0.0);
  const auto loaded = netsim::packet_pair_probe(link, 20.0);
  EXPECT_NEAR(quiet.bandwidth_Bps, 5e6, 5e4);
  EXPECT_NEAR(loaded.bandwidth_Bps, 2e6, 5e4);
}

TEST(PacketPair, MedianRobustToJitter) {
  netsim::LinkParams params = netsim::international_link();  // 46 % jitter
  netsim::SimLink link(params, 5);
  const auto r = netsim::packet_pair_probe(link, 0.0, 1500, 15);
  // Within a factor ~2 of the true mean despite wild jitter.
  EXPECT_GT(r.bandwidth_Bps, params.bandwidth_Bps / 2);
  EXPECT_LT(r.bandwidth_Bps, params.bandwidth_Bps * 2);
}

TEST(PacketPair, ProbesAdvanceVirtualTime) {
  netsim::LinkParams params;
  params.bandwidth_Bps = 1e6;
  params.jitter_frac = 0.0;
  netsim::SimLink link(params, 6);
  const auto r = netsim::packet_pair_probe(link, 1.0, 1500, 3, 0.05);
  EXPECT_GT(r.finished, 1.0);
  EXPECT_LT(r.finished, 1.5);
}

TEST(PacketPair, RejectsInvalidParameters) {
  netsim::LinkParams params;
  netsim::SimLink link(params, 7);
  EXPECT_THROW(netsim::packet_pair_probe(link, 0, 0), ConfigError);
  EXPECT_THROW(netsim::packet_pair_probe(link, 0, 1500, 0), ConfigError);
}

}  // namespace
}  // namespace acex
