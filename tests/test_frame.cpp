#include <gtest/gtest.h>

#include <limits>

#include "compress/frame.hpp"
#include "compress/null_codec.hpp"
#include "compress/registry.hpp"
#include "compress/zlib_codec.hpp"
#include "testdata.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex {
namespace {

class FrameTest : public ::testing::Test {
 protected:
  CodecRegistry registry_ = CodecRegistry::with_builtins();
};

TEST_F(FrameTest, RoundTripsEveryBuiltinMethod) {
  const Bytes data = testdata::repetitive_text(20000, 1);
  for (const MethodId id : registry_.methods()) {
    const CodecPtr codec = registry_.create(id);
    const Bytes framed = frame_compress_seq(*codec, data, 0);
    EXPECT_EQ(frame_decompress(framed, registry_), data)
        << method_name(id);
  }
}

TEST_F(FrameTest, ParseExposesMethodAndPayload) {
  NullCodec null;
  const Bytes data = testdata::random_bytes(100, 2);
  const Bytes framed = frame_compress_seq(null, data, 9);
  const Frame frame = frame_parse(framed);
  EXPECT_EQ(frame.method, MethodId::kNone);
  EXPECT_EQ(frame.payload, data);
  EXPECT_EQ(frame.sequence, 9u);
  EXPECT_EQ(framed.size(), data.size() + frame_overhead_seq(data.size(), 9));
}

TEST_F(FrameTest, EmptyPayloadRoundTrips) {
  NullCodec null;
  const Bytes framed = frame_compress_seq(null, Bytes{}, 0);
  EXPECT_TRUE(frame_decompress(framed, registry_).empty());
}

TEST_F(FrameTest, DetectsPayloadCorruption) {
  const CodecPtr codec = registry_.create(MethodId::kHuffman);
  Bytes framed = frame_compress_seq(*codec, testdata::low_entropy(4096, 3), 0);
  framed[framed.size() / 2] ^= 0x01;
  EXPECT_THROW(frame_decompress(framed, registry_), DecodeError);
}

TEST_F(FrameTest, DetectsCrcCorruption) {
  NullCodec null;
  Bytes framed = frame_compress_seq(null, testdata::random_bytes(64, 4), 0);
  framed.back() ^= 0xFF;  // CRC trailer
  EXPECT_THROW(frame_decompress(framed, registry_), DecodeError);
}

TEST_F(FrameTest, RejectsBadMagic) {
  NullCodec null;
  Bytes framed = frame_compress_seq(null, testdata::random_bytes(64, 5), 0);
  framed[0] = 'Z';
  EXPECT_THROW(frame_parse(framed), DecodeError);
}

TEST_F(FrameTest, RejectsBadVersion) {
  NullCodec null;
  Bytes framed = frame_compress_seq(null, testdata::random_bytes(64, 6), 0);
  framed[2] = 99;
  EXPECT_THROW(frame_parse(framed), DecodeError);
}

TEST_F(FrameTest, RejectsTruncatedFrame) {
  NullCodec null;
  Bytes framed = frame_compress_seq(null, testdata::random_bytes(64, 7), 0);
  framed.resize(framed.size() - 5);
  EXPECT_THROW(frame_parse(framed), DecodeError);
}

TEST_F(FrameTest, RejectsTooShortBuffer) {
  EXPECT_THROW(frame_parse(Bytes{0x41}), DecodeError);
}

TEST_F(FrameTest, UnknownMethodIdIsCorruptWireData) {
  // An id the registry does not know arrived off the wire: that is damage
  // (or a newer dialect), not caller misuse — DecodeError, not ConfigError,
  // so recovery policies can quarantine the frame like any other bad one.
  // Built with a valid header checksum so the id, not the gate, is judged.
  const Bytes data = testdata::random_bytes(64, 8);
  const Bytes framed = frame_build_seq(static_cast<MethodId>(77), data,
                                       crc32(data), 0);
  EXPECT_NO_THROW(frame_parse(framed));
  EXPECT_THROW(frame_decompress(framed, registry_), DecodeError);
}

TEST_F(FrameTest, RecordedBytesPinTheLayout) {
  // magic "AX" | version 2 | method 0 (none) | sequence 300 (varint AC 02)
  // | size 5 | header checksum (0x5A XOR every byte before it) | "hello" |
  // crc32("hello") little-endian. Every writer shares this one layout, so
  // a byte that moves here moves on every wire.
  const Bytes recorded = {0x41, 0x58, 0x02, 0x00, 0xAC, 0x02, 0x05, 0xEA, 'h',
                          'e',  'l',  'l',  'o',  0x86, 0xA6, 0x10, 0x36};
  const Bytes hello = {'h', 'e', 'l', 'l', 'o'};
  NullCodec null;
  EXPECT_EQ(frame_compress_seq(null, hello, 300), recorded);
  const Frame frame = frame_parse(recorded);
  EXPECT_EQ(frame.method, MethodId::kNone);
  EXPECT_EQ(frame.sequence, 300u);
  EXPECT_EQ(frame.crc, 0x3610A686u);
  EXPECT_EQ(frame_decompress(recorded, registry_), hello);
}

TEST_F(FrameTest, SeqFrameRoundTripsEveryBuiltinMethod) {
  const Bytes data = testdata::repetitive_text(20000, 10);
  std::uint64_t seq = 1;
  for (const MethodId id : registry_.methods()) {
    const CodecPtr codec = registry_.create(id);
    const Bytes framed = frame_compress_seq(*codec, data, seq);
    const Frame frame = frame_parse(framed);
    EXPECT_EQ(frame.method, id) << method_name(id);
    EXPECT_EQ(frame.sequence, seq);
    EXPECT_EQ(frame_decompress(framed, registry_), data) << method_name(id);
    seq = seq * 1000 + 7;  // exercise multi-byte sequence varints
  }
}

TEST_F(FrameTest, SeqFramesRoundTripAtVarintWidthBoundaries) {
  // The envelope grows by exactly one byte per sequence-varint byte.
  const Bytes data = testdata::low_entropy(3000, 22);
  const std::size_t base_overhead = frame_overhead_seq(0, 0);
  for (const std::uint64_t seq :
       {std::uint64_t{0}, std::uint64_t{0x7F}, std::uint64_t{0x80},
        std::uint64_t{0x3FFF}, std::uint64_t{0x4000},
        std::uint64_t{0xFFFFFFFF}}) {
    const CodecPtr codec = registry_.create(MethodId::kLempelZiv);
    const Bytes framed = frame_compress_seq(*codec, data, seq);
    const Frame frame = frame_parse(framed);
    EXPECT_EQ(frame.sequence, seq);
    const std::size_t payload = frame.payload.size();
    EXPECT_EQ(framed.size(), payload + frame_overhead_seq(payload, seq))
        << "seq " << seq;
    EXPECT_EQ(frame_overhead_seq(0, seq), base_overhead - 1 + varint_size(seq))
        << "seq " << seq;
    EXPECT_EQ(frame_decompress(framed, registry_), data) << "seq " << seq;
  }
}

TEST_F(FrameTest, SeqFrameOverheadMatches) {
  NullCodec null;
  const Bytes data = testdata::random_bytes(300, 11);
  const std::uint64_t seq = 300;  // two-byte varint
  const Bytes framed = frame_compress_seq(null, data, seq);
  EXPECT_EQ(framed.size(), data.size() + frame_overhead_seq(data.size(), seq));
}

TEST_F(FrameTest, EmptySeqFrameRoundTrips) {
  NullCodec null;
  const Bytes framed = frame_compress_seq(null, Bytes{}, 0);
  ASSERT_EQ(framed.size(), 11u);  // the smallest well-formed frame
  const Frame frame = frame_parse(framed);
  EXPECT_EQ(frame.sequence, 0u);
  EXPECT_TRUE(frame_decompress(framed, registry_).empty());
}

TEST_F(FrameTest, HeaderChecksumCatchesSequenceCorruption) {
  NullCodec null;
  Bytes framed = frame_compress_seq(null, testdata::random_bytes(64, 12),
                                    0x3FFF);  // two-byte sequence varint
  framed[4] ^= 0x10;  // inside the sequence varint
  EXPECT_THROW(frame_parse(framed), DecodeError);
}

TEST_F(FrameTest, HeaderChecksumCatchesSizeCorruption) {
  // A damaged size varint must fail the header checksum before it can
  // misdirect the payload bounds.
  NullCodec null;
  Bytes framed = frame_compress_seq(null, testdata::random_bytes(64, 13), 1);
  framed[5] ^= 0x01;  // size varint: magic(2) + version + method + seq(1)
  EXPECT_THROW(frame_parse(framed), DecodeError);
}

TEST_F(FrameTest, SeqFrameTruncationsRejected) {
  NullCodec null;
  const Bytes framed =
      frame_compress_seq(null, testdata::random_bytes(64, 14), 5);
  for (const std::size_t keep :
       {framed.size() - 1, framed.size() - 5, std::size_t{10}, std::size_t{4},
        std::size_t{0}}) {
    const Bytes cut(framed.begin(),
                    framed.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(frame_parse(cut), DecodeError) << "kept " << keep;
  }
}

TEST_F(FrameTest, HugePayloadSizeVarintCannotWrapBounds) {
  // Adversarial size varint near UINT64_MAX behind a valid header
  // checksum: a naive `pos + size + 4` bound check wraps around; the
  // parser must reject, not read OOB.
  Bytes framed = {'A', 'X', kFrameVersionSeq, 0, 0};  // sequence 0
  put_varint(framed, std::numeric_limits<std::uint64_t>::max() - 2);
  framed.push_back(frame_header_checksum(framed));
  framed.insert(framed.end(), 8, 0xAB);
  EXPECT_THROW(frame_parse(framed), DecodeError);
}

TEST_F(FrameTest, OverlongVarintRejected) {
  Bytes framed = {'A', 'X', kFrameVersionSeq, 0};
  framed.insert(framed.end(), 10, 0xFF);  // never-terminating sequence
  EXPECT_THROW(frame_parse(framed), DecodeError);
}

TEST(Registry, CreateAllBuiltins) {
  const CodecRegistry reg = CodecRegistry::with_builtins();
  for (const MethodId id :
       {MethodId::kNone, MethodId::kHuffman, MethodId::kArithmetic,
        MethodId::kLempelZiv, MethodId::kBurrowsWheeler}) {
    EXPECT_TRUE(reg.contains(id));
    EXPECT_EQ(reg.create(id)->id(), id);
  }
}

TEST(Registry, RuntimeRegistrationOfNewMethod) {
  // §3.2: "a new compression method can be introduced at any time".
  CodecRegistry reg = CodecRegistry::with_builtins();
  const auto custom_id = static_cast<MethodId>(200);
  EXPECT_FALSE(reg.contains(custom_id));
  reg.register_factory(custom_id, [] { return CodecPtr(new NullCodec); });
  EXPECT_TRUE(reg.contains(custom_id));
  EXPECT_NE(reg.create(custom_id), nullptr);
}

TEST(Registry, UnregisteredIdThrows) {
  const CodecRegistry reg = CodecRegistry::with_builtins();
  EXPECT_THROW(reg.create(static_cast<MethodId>(222)), ConfigError);
}

TEST(Registry, EmptyFactoryRejected) {
  CodecRegistry reg;
  EXPECT_THROW(reg.register_factory(MethodId::kNone, nullptr), ConfigError);
}

TEST(Registry, PaperMethodsAreTheEvaluationSet) {
  const auto& methods = paper_methods();
  ASSERT_EQ(methods.size(), 4u);
  EXPECT_EQ(methods[0], MethodId::kBurrowsWheeler);
  EXPECT_EQ(methods[3], MethodId::kHuffman);
}

TEST(MethodNames, RoundTrip) {
  for (const MethodId id :
       {MethodId::kNone, MethodId::kHuffman, MethodId::kArithmetic,
        MethodId::kLempelZiv, MethodId::kBurrowsWheeler, MethodId::kZlib}) {
    EXPECT_EQ(method_from_name(method_name(id)), id);
  }
  EXPECT_THROW(method_from_name("bogus"), ConfigError);
}

TEST(Zlib, ComparatorRoundTripsWhenAvailable) {
  if (!zlib_available()) GTEST_SKIP() << "zlib not compiled in";
  const CodecPtr codec = make_codec(MethodId::kZlib);
  const Bytes data = testdata::repetitive_text(50000, 9);
  EXPECT_EQ(codec->decompress(codec->compress(data)), data);
}

TEST(Zlib, SizeHeaderBeyondDeflateRatioIsDecodeError) {
  // A corrupt header claiming more than deflate's 1032:1 over the stream
  // behind it is rejected before it sizes an allocation: std::bad_alloc
  // is not a typed decode failure. A claim within the ratio reaches zlib.
  if (!zlib_available()) GTEST_SKIP() << "zlib not compiled in";
  const CodecPtr codec = make_codec(MethodId::kZlib);
  const auto decode_error = [&](std::uint64_t size) -> std::string {
    Bytes packed;
    put_varint(packed, size);
    packed.insert(packed.end(), 16, 0x00);  // not a zlib stream
    try {
      (void)codec->decompress(packed);
    } catch (const DecodeError& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string implausible = "decode: zlib: implausible original size";
  EXPECT_EQ(decode_error(std::uint64_t{1} << 39), implausible);
  EXPECT_EQ(decode_error(17 * 1032), implausible);
  EXPECT_EQ(decode_error(16 * 1032), "decode: zlib: corrupt stream");
}

}  // namespace
}  // namespace acex
