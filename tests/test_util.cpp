#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "testdata.hpp"
#include "util/bitstream.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/varint.hpp"

namespace acex {
namespace {

// ---------------------------------------------------------------- varint

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  0xFFFFFFFFull,
                                  0xFFFFFFFFFFFFFFFFull};
  for (const auto v : values) {
    Bytes buf;
    put_varint(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v));
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(buf, &pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, SequentialDecodingAdvancesPosition) {
  Bytes buf;
  put_varint(buf, 300);
  put_varint(buf, 5);
  put_varint(buf, 1ull << 40);
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(buf, &pos), 300u);
  EXPECT_EQ(get_varint(buf, &pos), 5u);
  EXPECT_EQ(get_varint(buf, &pos), 1ull << 40);
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, ThrowsOnTruncation) {
  Bytes buf;
  put_varint(buf, 1ull << 40);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf, &pos), DecodeError);
}

TEST(Varint, ThrowsOnOverlongEncoding) {
  Bytes buf(11, 0x80);  // never terminates within 64 bits
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf, &pos), DecodeError);
}

TEST(Varint, ThrowsOnEmptyInput) {
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(Bytes{}, &pos), DecodeError);
}

// -------------------------------------------------------------- bitstream

TEST(BitStream, SingleBitsRoundTrip) {
  BitWriter w;
  const bool bits[] = {true, false, true, true, false, false, true};
  for (const bool b : bits) w.write_bit(b);
  const Bytes buf = w.take();
  BitReader r(buf);
  for (const bool b : bits) EXPECT_EQ(r.read_bit(), b);
}

TEST(BitStream, MultiBitFieldsRoundTrip) {
  BitWriter w;
  w.write(0x5, 3);
  w.write(0x1234, 16);
  w.write(0x1FFFFF, 21);
  w.write(1, 1);
  const Bytes buf = w.take();
  BitReader r(buf);
  EXPECT_EQ(r.read(3), 0x5u);
  EXPECT_EQ(r.read(16), 0x1234u);
  EXPECT_EQ(r.read(21), 0x1FFFFFu);
  EXPECT_EQ(r.read(1), 1u);
}

TEST(BitStream, MaxWidthFieldRoundTrips) {
  BitWriter w;
  const std::uint64_t v = 0x1ABCDEF012345ull;  // fits in 57 bits
  w.write(v, 57);
  const Bytes buf = w.take();
  BitReader r(buf);
  EXPECT_EQ(r.read(57), v);
}

TEST(BitStream, AlignToBytePadsWithZeros) {
  BitWriter w;
  w.write(0x7, 3);
  w.align_to_byte();
  w.write(0xFF, 8);
  const Bytes buf = w.take();
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0xE0);
  EXPECT_EQ(buf[1], 0xFF);
}

TEST(BitStream, PeekDoesNotConsume) {
  BitWriter w;
  w.write(0xAB, 8);
  const Bytes buf = w.take();
  BitReader r(buf);
  EXPECT_EQ(r.peek(4), 0xAu);
  EXPECT_EQ(r.peek(8), 0xABu);
  EXPECT_EQ(r.read(8), 0xABu);
}

TEST(BitStream, PeekZeroFillsPastEnd) {
  const Bytes buf = {0xF0};
  BitReader r(buf);
  EXPECT_EQ(r.peek(16), 0xF000u);
}

TEST(BitStream, ReadPastEndThrows) {
  const Bytes buf = {0xFF};
  BitReader r(buf);
  r.read(8);
  EXPECT_THROW(r.read(1), DecodeError);
}

TEST(BitStream, SkipPastEndThrows) {
  const Bytes buf = {0xFF};
  BitReader r(buf);
  EXPECT_THROW(r.skip(9), DecodeError);
}

TEST(BitStream, SeekRepositionsReader) {
  BitWriter w;
  w.write(0xDEAD, 16);
  const Bytes buf = w.take();
  BitReader r(buf);
  r.seek(8);
  EXPECT_EQ(r.read(8), 0xADu);
  EXPECT_THROW(r.seek(17), DecodeError);
}

TEST(BitStream, RandomizedRoundTrip) {
  Rng rng(42);
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng.below(57));
    const std::uint64_t value =
        rng() & ((width == 64) ? ~0ull : ((1ull << width) - 1));
    fields.emplace_back(value, width);
    w.write(value, width);
  }
  const Bytes buf = w.take();
  BitReader r(buf);
  for (const auto& [value, width] : fields) {
    ASSERT_EQ(r.read(width), value);
  }
}

TEST(BitStream, BitCountTracksWrites) {
  BitWriter w;
  w.write(1, 3);
  w.write(0, 10);
  EXPECT_EQ(w.bit_count(), 13u);
}

// ------------------------------------------------------------------ crc32

TEST(Crc32, MatchesKnownVector) {
  // The canonical IEEE CRC-32 of "123456789".
  const Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32(Bytes{}), 0u); }

TEST(Crc32, IncrementalEqualsOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  Crc32 inc;
  inc.update(ByteView(data).subspan(0, 10));
  inc.update(ByteView(data).subspan(10));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data = to_bytes("sensitive payload");
  const std::uint32_t before = crc32(data);
  data[3] ^= 0x10;
  EXPECT_NE(crc32(data), before);
}

/// Bit-at-a-time IEEE CRC-32: the definition both kernels must reproduce.
std::uint32_t crc32_reference(ByteView data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_portable(ByteView data) {
  return detail::crc32_portable(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswersOnBothKernels) {
  Bytes ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
  }
  const std::pair<Bytes, std::uint32_t> cases[] = {
      {to_bytes("123456789"), 0xCBF43926u},
      {Bytes(32, 0x00), 0x190A55ADu},
      {Bytes(32, 0xFF), 0xFF6CAB0Bu},
      {ascending, 0x91267E8Au},
  };
  for (const auto& [data, want] : cases) {
    EXPECT_EQ(crc32_reference(data), want);
    EXPECT_EQ(crc32(data), want);
    EXPECT_EQ(crc32_portable(data), want);
  }
}

TEST(Crc32, KernelsMatchReferenceAtEveryLengthAndOffset) {
  // Lengths 0-1024 cover the 64-byte folding threshold and every 16-byte
  // tail; start offsets 0-15 cover every load misalignment.
  const Bytes buf = testdata::random_bytes(1024 + 16, 17);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const ByteView view = ByteView(buf).subspan(offset, len);
      const std::uint32_t want = crc32_reference(view);
      ASSERT_EQ(crc32(view), want) << "offset " << offset << " length " << len;
      ASSERT_EQ(crc32_portable(view), want)
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, KernelsMatchReferenceOnRandomSpans) {
  constexpr std::size_t kMaxLen = 256 * 1024;
  const Bytes buf = testdata::random_bytes(kMaxLen + 64, 2004);
  Rng rng(2005);
  for (int i = 0; i < 200; ++i) {
    const std::size_t offset = rng.below(64);
    const std::size_t len = rng.below(kMaxLen + 1);
    const ByteView view = ByteView(buf).subspan(offset, len);
    const std::uint32_t want = crc32_reference(view);
    ASSERT_EQ(crc32(view), want) << "offset " << offset << " length " << len;
    ASSERT_EQ(crc32_portable(view), want)
        << "offset " << offset << " length " << len;
  }
}

TEST(Crc32, UpdateSplitAtRandomCutsEqualsOneShot) {
  const Bytes buf = testdata::random_bytes(64 * 1024 + 7, 31);
  const ByteView all(buf);
  const std::uint32_t want = crc32(all);
  ASSERT_EQ(want, crc32_reference(all));

  // One cut: pieces under 64 bytes, and pieces of lengths that are not a
  // multiple of 16, on either side.
  const std::size_t n = all.size();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                std::size_t{15}, std::size_t{17},
                                std::size_t{63}, std::size_t{64},
                                std::size_t{65}, std::size_t{4099}, n - 65,
                                n - 64, n - 63, n - 17, n - 1, n}) {
    Crc32 inc;
    inc.update(all.subspan(0, cut));
    inc.update(all.subspan(cut));
    ASSERT_EQ(inc.value(), want) << "cut at " << cut;
  }

  // Many cuts at seeded random points: short pieces mixed with long ones.
  Rng rng(47);
  for (int round = 0; round < 100; ++round) {
    Crc32 inc;
    for (std::size_t at = 0; at < n;) {
      const std::size_t piece =
          rng.chance(0.5) ? rng.below(64) : rng.below(n - at + 1);
      const std::size_t take = std::min(piece, n - at);
      inc.update(all.subspan(at, take));
      at += take;
    }
    ASSERT_EQ(inc.value(), want) << "round " << round;
  }
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(5);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 4000; ++i) ++seen[rng.below(8)];
  for (const int c : seen) EXPECT_GT(c, 300);  // roughly uniform
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Rng, BytesProducesRequestedLength) {
  Rng rng(17);
  EXPECT_EQ(rng.bytes(0).size(), 0u);
  EXPECT_EQ(rng.bytes(7).size(), 7u);
  EXPECT_EQ(rng.bytes(4096).size(), 4096u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

// ------------------------------------------------------------------ stats

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
  EXPECT_NEAR(s.stddev_percent(), 40.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Ewma, FirstSampleSeedsValue) {
  Ewma e(0.5);
  EXPECT_FALSE(e.has_value());
  EXPECT_DOUBLE_EQ(e.value_or(42.0), 42.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value_or(0.0), 10.0);
}

TEST(Ewma, SmoothsTowardNewSamples) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value_or(0.0), 5.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value_or(0.0), 7.5);
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), ConfigError);
  EXPECT_THROW(Ewma(1.5), ConfigError);
}

TEST(SlidingWindow, EvictsOldestBeyondCapacity) {
  SlidingWindow w(3);
  w.add(1);
  w.add(2);
  w.add(3);
  EXPECT_TRUE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.add(10);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);  // {2,3,10}
}

TEST(SlidingWindow, RejectsZeroCapacity) {
  EXPECT_THROW(SlidingWindow(0), ConfigError);
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10) + 0.5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.1);
}

TEST(Histogram, OutOfRangeGoesToOverflowBuckets) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.total(), 2u);
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    EXPECT_EQ(h.count_at(i), 0u);
  }
}

// ------------------------------------------------------------------ clock

TEST(VirtualClock, AdvancesMonotonically) {
  VirtualClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(1.5);
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance(-3.0);  // ignored
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance_to(1.0);  // ignored: in the past
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance_to(4.0);
  EXPECT_DOUBLE_EQ(c.now(), 4.0);
}

TEST(VirtualClock, StopwatchMeasuresVirtualTime) {
  VirtualClock c;
  Stopwatch sw(c);
  c.advance(2.0);
  EXPECT_DOUBLE_EQ(sw.elapsed(), 2.0);
  sw.restart();
  EXPECT_DOUBLE_EQ(sw.elapsed(), 0.0);
}

TEST(MonotonicClock, NeverGoesBackwards) {
  MonotonicClock c;
  const Seconds a = c.now();
  const Seconds b = c.now();
  EXPECT_GE(b, a);
}

// ------------------------------------------------------------------ bytes

TEST(BytesHelpers, StringRoundTrip) {
  const std::string s = "hello \x01\x02";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(BytesHelpers, HexdumpTruncates) {
  const Bytes data(100, 0xAB);
  const std::string dump = hexdump(data, 4);
  EXPECT_NE(dump.find("ab ab ab ab"), std::string::npos);
  EXPECT_NE(dump.find("..."), std::string::npos);
}

TEST(BytesHelpers, FormatSize) {
  EXPECT_EQ(format_size(512), "512 B");
  EXPECT_EQ(format_size(128 * 1024), "128.0 KiB");
  EXPECT_EQ(format_size(3 * 1024 * 1024), "3.0 MiB");
}

}  // namespace
}  // namespace acex
