// Edge-of-contract tests across modules: fallback paths, degenerate
// configurations, and seams the main suites reach only incidentally.

#include <gtest/gtest.h>

#include "adaptive/calibrator.hpp"
#include "adaptive/decision.hpp"
#include "compress/frame.hpp"
#include "compress/huffman.hpp"
#include "compress/metrics.hpp"
#include "compress/null_codec.hpp"
#include "echo/bus.hpp"
#include "netsim/probe.hpp"
#include "pbio/pbio.hpp"
#include "testdata.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace acex {
namespace {

// ------------------------------------------------------------- calibrator

TEST(CalibratorEdge, IncompressibleSampleKeepsBaseBeta) {
  // On random data every method's ratio is ~100 %: the BW-vs-LZ crossing
  // is undefined and the calibrator must fall back to the base constants.
  const Bytes sample = testdata::random_bytes(256 * 1024, 1);
  const adaptive::DecisionParams base;
  const auto report = adaptive::Calibrator().calibrate(sample, base);
  EXPECT_DOUBLE_EQ(report.params.beta, base.beta);
  EXPECT_NO_THROW(report.params.validate());
}

TEST(CalibratorEdge, ZeroRunsClampIntoBand) {
  // All-zero data: extreme ratios and speeds must still produce valid,
  // clamped constants.
  const Bytes sample(256 * 1024, 0);
  const auto report = adaptive::Calibrator().calibrate(sample);
  EXPECT_GE(report.params.ratio_cut_percent, 30.0);
  EXPECT_LE(report.params.ratio_cut_percent, 70.0);
  EXPECT_LE(report.params.beta, 50.0);
  EXPECT_NO_THROW(report.params.validate());
}

// ---------------------------------------------------------------- metrics

TEST(MetricsEdge, EmptyInputRatioIsOneHundred) {
  CompressionMeasurement m;
  EXPECT_DOUBLE_EQ(m.ratio_percent(), 100.0);
  EXPECT_DOUBLE_EQ(m.reducing_speed(), 0.0);
  EXPECT_DOUBLE_EQ(m.compress_throughput(), 0.0);
}

TEST(MetricsEdge, ExpansionHasZeroReducingSpeed) {
  CompressionMeasurement m;
  m.original_size = 100;
  m.compressed_size = 150;
  m.compress_time = 0.1;
  EXPECT_DOUBLE_EQ(m.reducing_speed(), 0.0);
  EXPECT_DOUBLE_EQ(m.ratio_percent(), 150.0);
}

TEST(MetricsEdge, MeasureCodecThrowsOnBrokenCodec) {
  // A codec whose decompress loses data must be caught by measure_codec.
  class Broken final : public Codec {
   public:
    MethodId id() const noexcept override { return MethodId::kNone; }
    Bytes compress(ByteView input) override {
      return Bytes(input.begin(), input.end());
    }
    Bytes decompress(ByteView input) override {
      Bytes out(input.begin(), input.end());
      if (!out.empty()) out[0] ^= 0xFF;
      return out;
    }
  };
  Broken codec;
  MonotonicClock clock;
  const Bytes data = testdata::random_bytes(64, 2);
  EXPECT_THROW(measure_codec(codec, data, clock), Error);
}

// --------------------------------------------------------- bucket ratings

TEST(BucketRatingEdge, DegenerateRangeIsGood) {
  EXPECT_EQ(adaptive::bucket_rating(5, 5, 5, true), adaptive::Rating::kGood);
}

TEST(BucketRatingEdge, LogScaleKicksInForWideSpreads) {
  // value at the geometric midpoint of a 100x spread rates mid-scale, not
  // near-worst as a linear scale would put it.
  const auto r = adaptive::bucket_rating(10.0, 100.0, 1.0, true);
  EXPECT_GE(r, adaptive::Rating::kSatisfactory);
}

TEST(BucketRatingEdge, NonPositiveValueSurvives) {
  EXPECT_EQ(adaptive::bucket_rating(0.0, 100.0, 1.0, true),
            adaptive::Rating::kPoor);
}

// ------------------------------------------------------------- event bus

TEST(EventBusEdge, RemovingMiddleOfDerivationChain) {
  echo::EventBus bus;
  const auto a = bus.create_channel("a");
  const auto b = bus.derive_channel(
      a, [](echo::Event e) -> std::optional<echo::Event> { return e; }, "b");
  const auto c = bus.derive_channel(
      b, [](echo::Event e) -> std::optional<echo::Event> { return e; }, "c");

  int c_events = 0;
  bus.channel(c).subscribe([&](const echo::Event&) { ++c_events; });

  bus.remove_channel(b);  // severs the chain
  bus.channel(a).submit(echo::Event(to_bytes("x")));
  EXPECT_EQ(c_events, 0);
  // c survives as an ordinary channel.
  bus.channel(c).submit(echo::Event(to_bytes("y")));
  EXPECT_EQ(c_events, 1);
  bus.remove_channel(c);
  EXPECT_EQ(bus.channel_count(), 1u);
}

TEST(EventBusEdge, RemoveUnknownChannelThrows) {
  echo::EventBus bus;
  EXPECT_THROW(bus.remove_channel(42), ConfigError);
}

// ----------------------------------------------------------------- frame

TEST(FrameEdge, OverheadFormulaMatchesReality) {
  NullCodec null;
  for (const std::size_t n : {0u, 1u, 127u, 128u, 100000u}) {
    const Bytes data(n, 7);
    for (const std::uint64_t seq : {0ull, 128ull, 1ull << 40}) {
      const Bytes framed = frame_compress_seq(null, data, seq);
      EXPECT_EQ(framed.size(), n + frame_overhead_seq(n, seq))
          << "n=" << n << " seq=" << seq;
    }
  }
}

// ------------------------------------------------------------------ pbio

TEST(PbioEdge, RejectsBadByteOrderFlag) {
  const pbio::Encoder enc(
      pbio::RecordFormat("t", {{"a", pbio::FieldType::kInt32}}));
  Bytes header;
  enc.encode_format(header);
  header[3] = 7;  // invalid order flag
  EXPECT_THROW(pbio::decode_stream(header), DecodeError);
}

TEST(PbioEdge, SenderOrderIsExposed) {
  const auto fmt = pbio::RecordFormat("t", {{"a", pbio::FieldType::kInt32}});
  const pbio::ByteOrder foreign =
      pbio::host_order() == pbio::ByteOrder::kLittle
          ? pbio::ByteOrder::kBig
          : pbio::ByteOrder::kLittle;
  Bytes header;
  pbio::Encoder(fmt, foreign).encode_format(header);
  std::size_t pos = 0;
  const auto decoder = pbio::Decoder::open(header, &pos);
  EXPECT_EQ(decoder.sender_order(), foreign);
}

// --------------------------------------------------------------- huffman

TEST(HuffmanEdge, LargeAlphabetRoundTrips) {
  // The LZ litlen alphabet (274) exceeds a byte; the generic helpers must
  // handle it end to end.
  constexpr std::size_t kAlphabet = 274;
  std::vector<std::uint64_t> freqs(kAlphabet, 0);
  Rng rng(3);
  std::vector<unsigned> symbols;
  for (int i = 0; i < 5000; ++i) {
    const auto s = static_cast<unsigned>(rng.below(kAlphabet));
    ++freqs[s];
    symbols.push_back(s);
  }
  const auto lengths = huff::build_code_lengths(freqs);
  BitWriter bw;
  huff::write_lengths(bw, lengths);
  const huff::Encoder enc(lengths);
  for (const auto s : symbols) enc.encode(bw, s);
  const Bytes buf = bw.take();

  BitReader br(buf);
  const huff::Decoder dec(huff::read_lengths(br, kAlphabet));
  for (const auto s : symbols) ASSERT_EQ(dec.decode(br), s);
}

TEST(HuffmanEdge, MaxBitsParameterIsEnforced) {
  std::vector<std::uint64_t> freqs(64, 0);
  std::uint64_t f = 1;
  for (std::size_t i = 0; i < 40; ++i, f = f * 3 / 2 + 1) freqs[i] = f;
  const auto lengths = huff::build_code_lengths(freqs, 9);
  for (const auto len : lengths) EXPECT_LE(len, 9);
  EXPECT_THROW(huff::build_code_lengths(freqs, 0), ConfigError);
  EXPECT_THROW(huff::build_code_lengths(freqs, 16), ConfigError);
}

// ------------------------------------------------------------- statistics

TEST(StatsEdge, HistogramQuantileExtremes) {
  Histogram h(0, 10, 5);
  for (int i = 0; i < 10; ++i) h.add(5.0);
  EXPECT_NEAR(h.quantile(0.0), 5.0, 1.1);
  EXPECT_NEAR(h.quantile(1.0), 10.0, 1.1);
  Histogram empty(0, 1, 2);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(StatsEdge, RunningStatsSingleSample) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

// ---------------------------------------------------------------- probes

TEST(ProbeEdge, ZeroGapBackToBackPairs) {
  netsim::LinkParams p;
  p.bandwidth_Bps = 1e6;
  p.jitter_frac = 0;
  netsim::SimLink link(p, 5);
  const auto r = netsim::packet_pair_probe(link, 0.0, 1500, 3, 0.0);
  EXPECT_NEAR(r.bandwidth_Bps, 1e6, 1e4);
}

}  // namespace
}  // namespace acex
