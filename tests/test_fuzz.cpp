// Randomized robustness suite: every parser in acex must survive arbitrary
// corruption — throw acex::Error or return bounded garbage, never crash,
// hang, or allocate unboundedly. Seeds are parameterized so ctest runs
// each seed as its own case; set ACEX_FUZZ_ITERS for deeper fuzzing (the
// ctest default stays at 60 mutations per seed).

#include <gtest/gtest.h>

#include <set>

#include "adaptive/pipeline.hpp"
#include "compress/frame.hpp"
#include "compress/bwt_codec.hpp"
#include "compress/quant_codec.hpp"
#include "compress/registry.hpp"
#include "echo/channel.hpp"
#include "pbio/pbio.hpp"
#include "qa/mutate.hpp"
#include "testdata.hpp"
#include "transport/fault_transport.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"
#include "workloads/molecular.hpp"

namespace acex {
namespace {

using qa::mutate;

const int kMutationsPerSeed = qa::fuzz_iterations(60);

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, CodecsSurviveMutatedStreams) {
  Rng rng(GetParam());
  const Bytes data = testdata::repetitive_text(20000, GetParam());
  for (const MethodId id : paper_methods()) {
    const CodecPtr codec = make_codec(id);
    const Bytes packed = codec->compress(data);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const Bytes bad = mutate(packed, rng);
      try {
        const Bytes out = codec->decompress(bad);
        EXPECT_LE(out.size(), (bad.size() + 64) * 2100);  // decoder bounds
      } catch (const Error&) {
      }
    }
  }
}

TEST_P(Fuzz, FramesSurviveMutation) {
  Rng rng(GetParam() + 1000);
  const CodecRegistry registry = CodecRegistry::with_builtins();
  const CodecPtr codec = make_codec(MethodId::kLempelZiv);
  const Bytes framed = frame_compress_seq(
      *codec, testdata::low_entropy(8000, GetParam()), GetParam());
  int accepted = 0;
  for (int i = 0; i < kMutationsPerSeed; ++i) {
    const Bytes bad = mutate(framed, rng);
    try {
      (void)frame_decompress(bad, registry);
      ++accepted;  // CRC collision or identity mutation: astronomically rare
    } catch (const Error&) {
    }
  }
  // At most the occasional identity mutation sneaks through.
  EXPECT_LE(accepted, 2);
}

TEST_P(Fuzz, FaultedStreamRecoversEveryIntactFrame) {
  // Mutated frames ride a faulty link into a kSkip receiver: the drain must
  // never throw, every frame that reached the wire undamaged must decode to
  // its original block, and transport/receiver counters must reconcile.
  Rng rng(GetParam() + 7000);
  netsim::LinkParams params;
  params.bandwidth_Bps = 1e6;
  params.jitter_frac = 0;
  params.latency_s = 0;
  VirtualClock clock;
  netsim::SimLink forward(params, 1), reverse(params, 2);
  transport::SimDuplex duplex(forward, reverse, clock);
  transport::FaultConfig faults;
  faults.drop_prob = 0.1;
  faults.reorder_prob = 0.1;
  faults.duplicate_prob = 0.1;
  faults.seed = GetParam();
  transport::FaultInjectingTransport lossy(duplex.a(), faults);

  const CodecPtr codec = make_codec(MethodId::kLempelZiv);
  constexpr std::uint64_t kFrames = 40;
  std::vector<Bytes> blocks;
  std::set<std::uint64_t> mutated;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    blocks.push_back(testdata::low_entropy(2000 + i * 7, GetParam() + i));
    Bytes framed = frame_compress_seq(*codec, blocks.back(), i);
    if (rng.chance(0.3)) {
      framed = mutate(framed, rng);
      mutated.insert(i);
    }
    lossy.send(framed);
  }
  lossy.flush();

  adaptive::AdaptiveReceiver rx(duplex.b(),
                                {adaptive::RecoveryPolicy::kSkip, 3});
  const adaptive::ReceiveReport report = rx.receive_report();  // never throws

  const transport::FaultCounters& c = lossy.counters();
  EXPECT_EQ(c.messages, kFrames);
  EXPECT_EQ(c.messages, c.drops + c.reorders + c.duplicates + c.bit_flips +
                            c.truncations + c.clean);
  EXPECT_EQ(report.frames_ok + report.frames_corrupt + report.frames_duplicate,
            report.frames.size());

  std::set<std::uint64_t> ok_seqs;
  std::size_t ok_bytes = 0;
  for (const adaptive::FrameOutcome& f : report.frames) {
    if (f.status != adaptive::FrameOutcome::Status::kOk) continue;
    ASSERT_TRUE(f.has_sequence);
    ASSERT_LT(f.sequence, kFrames);
    EXPECT_EQ(f.data, blocks[f.sequence]) << "seq " << f.sequence;
    ok_seqs.insert(f.sequence);
    ok_bytes += f.data.size();
  }
  EXPECT_EQ(report.bytes_recovered, ok_bytes);
  // Only frames we mutated ourselves or the link dropped may be missing
  // (an identity mutation can sneak through, hence >=, not ==).
  EXPECT_GE(ok_seqs.size(), kFrames - mutated.size() - c.drops);
}

TEST_P(Fuzz, PbioSurvivesMutation) {
  Rng rng(GetParam() + 2000);
  workloads::MolecularConfig config;
  config.atom_count = 64;
  config.seed = GetParam();
  workloads::MolecularGenerator gen(config);
  const Bytes stream = gen.pbio_snapshot();
  for (int i = 0; i < kMutationsPerSeed; ++i) {
    const Bytes bad = mutate(stream, rng);
    try {
      const auto records = pbio::decode_stream(bad);
      EXPECT_LE(records.size(), 100000u);
    } catch (const Error&) {
    }
  }
}

TEST_P(Fuzz, AttributesSurviveMutation) {
  Rng rng(GetParam() + 3000);
  echo::AttributeMap attrs;
  attrs.set_int("alpha", -5);
  attrs.set_double("beta", 3.48);
  attrs.set_string("gamma", "quality attribute value");
  attrs.set_bytes("delta", rng.bytes(64));
  Bytes wire;
  attrs.serialize(wire);
  for (int i = 0; i < kMutationsPerSeed; ++i) {
    const Bytes bad = mutate(wire, rng);
    try {
      std::size_t pos = 0;
      (void)echo::AttributeMap::deserialize(bad, &pos);
    } catch (const Error&) {
    }
  }
}

TEST_P(Fuzz, EventsSurviveMutation) {
  Rng rng(GetParam() + 4000);
  echo::Event event(rng.bytes(500));
  event.attributes.set_int("seq", 1);
  const Bytes wire = serialize_event(event);
  for (int i = 0; i < kMutationsPerSeed; ++i) {
    const Bytes bad = mutate(wire, rng);
    try {
      (void)echo::deserialize_event(bad);
    } catch (const Error&) {
    }
  }
}

TEST_P(Fuzz, QuantCodecSurvivesMutation) {
  Rng rng(GetParam() + 5000);
  workloads::MolecularConfig config;
  config.atom_count = 256;
  config.seed = GetParam();
  workloads::MolecularGenerator gen(config);
  FloatQuantCodec codec(1e-3);
  const Bytes packed = codec.compress(gen.coordinates_bytes());
  for (int i = 0; i < kMutationsPerSeed; ++i) {
    const Bytes bad = mutate(packed, rng);
    try {
      const Bytes out = codec.decompress(bad);
      EXPECT_LE(out.size(), (std::size_t{1} << 34) * 4);
    } catch (const Error&) {
    }
  }
}

TEST_P(Fuzz, BwtRecoveryNeverCrashesOnArbitraryOffsets) {
  Rng rng(GetParam() + 6000);
  BurrowsWheelerCodec codec(1024);
  const Bytes packed =
      codec.compress(testdata::repetitive_text(16384, GetParam()));
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t offset = rng.below(packed.size() * 8 + 16);
    try {
      const auto chunks = codec.recover_from_bit(packed, offset);
      EXPECT_LE(chunks.size(), 16u);
    } catch (const Error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace acex
