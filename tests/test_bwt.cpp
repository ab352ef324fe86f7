#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "compress/bwt.hpp"
#include "compress/bwt_codec.hpp"
#include "compress/lz77.hpp"
#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "testdata.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"
#include "workloads/molecular.hpp"
#include "workloads/transactions.hpp"

namespace acex {
namespace {

// The rotation sort bwt::forward shipped with before the bucket-head
// rewrite, kept verbatim as the reference: prefix doubling with one
// counting sort per round. Every frame ever written carries its `primary`,
// so the transform must reproduce this function's output exactly,
// including where rotation 0 sits among equal rotations of a periodic
// chunk.
bwt::Transformed reference_forward(ByteView block) {
  const std::size_t n = block.size();
  bwt::Transformed result;
  if (n == 0) return result;
  if (n == 1) {
    result.last_column.assign(block.begin(), block.end());
    result.primary = 0;
    return result;
  }

  // Prefix doubling over cyclic rotations with radix (counting) sorts:
  // after round k, `rank[i]` orders rotations by their first 2^k
  // characters. O(n log n) total — this is the codec's hot loop.
  std::vector<std::uint32_t> idx(n), rank(n), next_rank(n), shifted(n);
  std::vector<std::uint32_t> counts(std::max<std::size_t>(n, 256) + 1, 0);

  // Round 0: counting sort by first character.
  for (std::size_t i = 0; i < n; ++i) ++counts[block[i] + 1];
  for (std::size_t c = 1; c <= 256; ++c) counts[c] += counts[c - 1];
  for (std::size_t i = 0; i < n; ++i) {
    idx[counts[block[i]]++] = static_cast<std::uint32_t>(i);
  }
  rank[idx[0]] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    rank[idx[i]] = rank[idx[i - 1]] + (block[idx[i]] != block[idx[i - 1]]);
  }

  for (std::size_t k = 1; rank[idx[n - 1]] != n - 1 && k < n; k <<= 1) {
    // Sorting pairs (rank[i], rank[(i+k) mod n]). `idx` is sorted by rank;
    // shifting every position back by k yields the order sorted by the
    // SECOND pair element, so one stable counting sort by the first
    // element finishes the job.
    for (std::size_t j = 0; j < n; ++j) {
      shifted[j] = (idx[j] + static_cast<std::uint32_t>(n) -
                    static_cast<std::uint32_t>(k % n)) %
                   static_cast<std::uint32_t>(n);
    }
    const std::size_t classes = rank[idx[n - 1]] + 1;
    std::fill(counts.begin(), counts.begin() + classes + 1, 0u);
    for (std::size_t i = 0; i < n; ++i) ++counts[rank[i] + 1];
    for (std::size_t c = 1; c <= classes; ++c) counts[c] += counts[c - 1];
    for (std::size_t j = 0; j < n; ++j) {
      idx[counts[rank[shifted[j]]]++] = shifted[j];
    }
    // Re-rank by (first, second) pair equality.
    const auto second = [&](std::uint32_t i) {
      return rank[(i + k) % n];
    };
    next_rank[idx[0]] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      const bool differs = rank[idx[i]] != rank[idx[i - 1]] ||
                           second(idx[i]) != second(idx[i - 1]);
      next_rank[idx[i]] = next_rank[idx[i - 1]] + differs;
    }
    rank.swap(next_rank);
  }

  result.last_column.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t start = idx[i];
    result.last_column[i] = block[start == 0 ? n - 1 : start - 1];
    if (start == 0) result.primary = static_cast<std::uint32_t>(i);
  }
  return result;
}

// Compares bwt::forward with the reference on one input; returns whether
// (last_column, primary) agree and names the first disagreement.
::testing::AssertionResult MatchesReference(ByteView block) {
  const auto got = bwt::forward(block);
  const auto want = reference_forward(block);
  if (got.primary != want.primary) {
    return ::testing::AssertionFailure()
           << "n=" << block.size() << " primary " << got.primary
           << " != reference " << want.primary;
  }
  if (got.last_column != want.last_column) {
    return ::testing::AssertionFailure()
           << "n=" << block.size() << " last column differs";
  }
  return ::testing::AssertionSuccess();
}

Bytes commercial_stream(std::size_t size, std::uint64_t seed) {
  workloads::TransactionGenerator gen(seed);
  return gen.text_block(size);
}

Bytes molecular_stream(std::uint64_t seed) {
  workloads::MolecularConfig config;
  config.atom_count = 8192;
  config.seed = seed;
  workloads::MolecularGenerator gen(config);
  return gen.stream(4);
}

// -------------------------------------------------------------- transform

TEST(BwtTransform, KnownVectorBanana) {
  // Classic example: cyclic BWT of "banana".
  const Bytes data = to_bytes("banana");
  const auto t = bwt::forward(data);
  EXPECT_EQ(bwt::inverse(t.last_column, t.primary), data);
  EXPECT_EQ(to_string(t.last_column), "nnbaaa");
}

TEST(BwtTransform, GroupsEqualContexts) {
  // BWT of repetitive text concentrates equal characters.
  const Bytes data = testdata::repetitive_text(4096, 1);
  const auto t = bwt::forward(data);
  std::size_t adjacent_equal = 0;
  for (std::size_t i = 1; i < t.last_column.size(); ++i) {
    adjacent_equal += t.last_column[i] == t.last_column[i - 1];
  }
  std::size_t baseline = 0;
  for (std::size_t i = 1; i < data.size(); ++i) {
    baseline += data[i] == data[i - 1];
  }
  EXPECT_GT(adjacent_equal, baseline * 2);
}

TEST(BwtTransform, EmptyAndSingle) {
  EXPECT_TRUE(bwt::forward(Bytes{}).last_column.empty());
  const Bytes one = {0x7F};
  const auto t = bwt::forward(one);
  EXPECT_EQ(bwt::inverse(t.last_column, t.primary), one);
}

TEST(BwtTransform, RoundTripsAllPatterns) {
  for (const auto& pattern : testdata::patterns()) {
    for (const std::size_t size : {2u, 3u, 64u, 1000u, 4097u}) {
      const Bytes data = pattern.make(size, 21);
      const auto t = bwt::forward(data);
      EXPECT_EQ(bwt::inverse(t.last_column, t.primary), data)
          << pattern.name << " size=" << size;
    }
  }
}

TEST(BwtTransform, PeriodicInputsRoundTrip) {
  // Identical rotations are the degenerate case of the rotation sort.
  for (const std::string s :
       {"aaaa", "abab", "abcabc", "xyxyxyxyxyxy", "aabaab"}) {
    const Bytes data = to_bytes(s);
    const auto t = bwt::forward(data);
    EXPECT_EQ(bwt::inverse(t.last_column, t.primary), data) << s;
  }
}

TEST(BwtTransform, InverseRejectsBadPrimary) {
  const Bytes col = to_bytes("nnbaaa");
  EXPECT_THROW(bwt::inverse(col, 6), DecodeError);
}

// ------------------------------------------- differential vs the reference

TEST(BwtDifferential, RandomInputsMatchReference) {
  Rng rng(2005);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 2 + rng.below(2999);
    const std::uint64_t alphabet = 2 + rng.below(15);
    Bytes block(n);
    for (auto& c : block) c = static_cast<std::uint8_t>(rng.below(alphabet));
    ASSERT_TRUE(MatchesReference(block)) << "trial " << trial;
  }
}

TEST(BwtDifferential, PeriodicInputsKeepReferenceTieOrder) {
  // A chunk of period p holds n / p copies of every rotation; only the
  // row of rotation 0 among its copies (`primary`) depends on the sort's
  // tie order, and that row is on the wire.
  Rng rng(2006);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t period = 1 + rng.below(40);
    const std::size_t repeats = 2 + rng.below(59);
    const std::uint64_t alphabet = 2 + rng.below(15);
    Bytes unit(period);
    for (auto& c : unit) c = static_cast<std::uint8_t>(rng.below(alphabet));
    Bytes block;
    for (std::size_t r = 0; r < repeats; ++r) {
      block.insert(block.end(), unit.begin(), unit.end());
    }
    ASSERT_TRUE(MatchesReference(block))
        << "period " << period << " repeats " << repeats;
  }
}

TEST(BwtDifferential, UniformBlocksMatchReference) {
  for (const std::size_t n : {2u, 3u, 4u, 5u, 64u, 1000u, 65536u, 131072u,
                              131073u}) {
    EXPECT_TRUE(MatchesReference(Bytes(n, 0x00)));
    EXPECT_TRUE(MatchesReference(Bytes(n, 0xFF)));
  }
}

TEST(BwtDifferential, CommercialAndMolecularChunksMatchReference) {
  constexpr std::size_t kChunk = 128 * 1024;
  for (const Bytes& stream :
       {commercial_stream(1024 * 1024, 2004), molecular_stream(2004)}) {
    for (std::size_t off = 0; off < stream.size(); off += kChunk) {
      const std::size_t len = std::min(kChunk, stream.size() - off);
      EXPECT_TRUE(MatchesReference(ByteView(stream).subspan(off, len)))
          << "chunk at " << off;
    }
  }
}

// -------------------------------------------------------------------- mtf

TEST(Mtf, KnownSequence) {
  // 'a' (97) first costs 97, immediately repeating costs 0.
  const Bytes data = to_bytes("aab");
  const Bytes coded = mtf::encode(data);
  ASSERT_EQ(coded.size(), 3u);
  EXPECT_EQ(coded[0], 97);
  EXPECT_EQ(coded[1], 0);
  EXPECT_EQ(mtf::decode(coded), data);
}

TEST(Mtf, RoundTripsAllPatterns) {
  for (const auto& pattern : testdata::patterns()) {
    const Bytes data = pattern.make(5000, 2);
    EXPECT_EQ(mtf::decode(mtf::encode(data)), data) << pattern.name;
  }
}

TEST(Mtf, LocalizedDataBecomesSmallValues) {
  const Bytes data = testdata::long_runs(10000, 3);
  const Bytes coded = mtf::encode(data);
  std::size_t small = 0;
  for (const auto b : coded) small += b < 4;
  EXPECT_GT(small, coded.size() * 9 / 10);
}

TEST(Mtf, EmptyInput) { EXPECT_TRUE(mtf::encode(Bytes{}).empty()); }

// -------------------------------------------------------------------- rle

TEST(Rle, OutputNeverContainsSentinel) {
  for (const auto& pattern : testdata::patterns()) {
    const Bytes data = pattern.make(8000, 4);
    const Bytes coded = rle::encode(data);
    for (const auto b : coded) {
      ASSERT_NE(b, rle::kSentinel) << pattern.name;
    }
    EXPECT_EQ(rle::decode(coded), data) << pattern.name;
  }
}

TEST(Rle, CompressesLongRuns) {
  const Bytes data(10000, 3);
  const Bytes coded = rle::encode(data);
  EXPECT_LT(coded.size(), 250u);
  EXPECT_EQ(rle::decode(coded), data);
}

TEST(Rle, RunOfSentinelBytesRoundTrips) {
  const Bytes data(1000, 255);
  const Bytes coded = rle::encode(data);
  for (const auto b : coded) ASSERT_NE(b, rle::kSentinel);
  EXPECT_EQ(rle::decode(coded), data);
}

TEST(Rle, RunOfEscapeBytesRoundTrips) {
  const Bytes data(1000, 254);
  EXPECT_EQ(rle::decode(rle::encode(data)), data);
}

TEST(Rle, ExactlyFourRepeatsGetCountByte) {
  const Bytes data = {9, 9, 9, 9};
  const Bytes coded = rle::encode(data);
  ASSERT_EQ(coded.size(), 5u);  // 4 bytes + count 0
  EXPECT_EQ(coded[4], 0);
  EXPECT_EQ(rle::decode(coded), data);
}

TEST(Rle, ThreeRepeatsStayRaw) {
  const Bytes data = {9, 9, 9};
  EXPECT_EQ(rle::encode(data), data);
  EXPECT_EQ(rle::decode(data), data);
}

TEST(Rle, RunCapRespectsPaperLimit) {
  // A unit covers at most kRunTrigger + kMaxExtra = 254 source bytes.
  const Bytes data(254, 1);
  const Bytes coded = rle::encode(data);
  ASSERT_EQ(coded.size(), 5u);
  EXPECT_EQ(coded[4], rle::kMaxExtra);
  EXPECT_EQ(rle::decode(coded), data);
}

TEST(Rle, DecodeRejectsPayloadSentinel) {
  const Bytes bad = {1, 2, 255};
  EXPECT_THROW(rle::decode(bad), DecodeError);
}

TEST(Rle, DecodeRejectsTruncatedEscape) {
  const Bytes bad = {254};
  EXPECT_THROW(rle::decode(bad), DecodeError);
}

TEST(Rle, DecodeRejectsInvalidEscapePayload) {
  const Bytes bad = {254, 7};
  EXPECT_THROW(rle::decode(bad), DecodeError);
}

TEST(Rle, DecodeRejectsTruncatedRunCount) {
  const Bytes bad = {5, 5, 5, 5};  // count byte missing
  EXPECT_THROW(rle::decode(bad), DecodeError);
}

TEST(Rle, DecodeRejectsOversizedRunCount) {
  const Bytes bad = {5, 5, 5, 5, 253};  // count > kMaxExtra
  EXPECT_THROW(rle::decode(bad), DecodeError);
}

// ------------------------------------------------------------ whole codec

TEST(BurrowsWheelerCodec, RoundTripsAllPatterns) {
  BurrowsWheelerCodec codec(4096);
  for (const auto& pattern : testdata::patterns()) {
    const Bytes data = pattern.make(20000, 5);
    EXPECT_EQ(codec.decompress(codec.compress(data)), data) << pattern.name;
  }
}

TEST(BurrowsWheelerCodec, EmptyInput) {
  BurrowsWheelerCodec codec;
  EXPECT_TRUE(codec.decompress(codec.compress(Bytes{})).empty());
}

TEST(BurrowsWheelerCodec, InputSmallerThanChunk) {
  BurrowsWheelerCodec codec(4096);
  const Bytes data = testdata::repetitive_text(100, 6);
  EXPECT_EQ(codec.decompress(codec.compress(data)), data);
}

TEST(BurrowsWheelerCodec, InputSpanningManyChunks) {
  BurrowsWheelerCodec codec(512);
  const Bytes data = testdata::repetitive_text(10000, 7);
  EXPECT_EQ(codec.decompress(codec.compress(data)), data);
}

TEST(BurrowsWheelerCodec, ExactChunkMultiple) {
  BurrowsWheelerCodec codec(1024);
  const Bytes data = testdata::low_entropy(4096, 8);
  EXPECT_EQ(codec.decompress(codec.compress(data)), data);
}

TEST(BurrowsWheelerCodec, BestRatioOnRepetitiveData) {
  BurrowsWheelerCodec bw(64 * 1024);
  LempelZivCodec lzc;
  const Bytes data = testdata::repetitive_text(256 * 1024, 9);
  EXPECT_LT(bw.compress(data).size(), lzc.compress(data).size());
}

TEST(BurrowsWheelerCodec, StoredModeBoundsExpansion) {
  BurrowsWheelerCodec codec(4096);
  const Bytes data = testdata::random_bytes(16 * 1024, 10);
  const Bytes packed = codec.compress(data);
  EXPECT_LE(packed.size(), data.size() + 16);
  EXPECT_EQ(codec.decompress(packed), data);
}

TEST(BurrowsWheelerCodec, FramesMatchRecordedDigest) {
  // CRC-32 over the compressed bytes of a fixed corpus, recorded with the
  // reference rotation sort: any change to a chunk's last column, primary
  // or entropy stage moves it. The corpus covers commercial blocks,
  // periodic and all-zero blocks, and inputs whose last chunk is short.
  std::vector<Bytes> corpus;
  for (const std::uint64_t seed : {2004u, 2005u}) {
    const Bytes text = commercial_stream(512 * 1024, seed);
    for (std::size_t off = 0; off < text.size(); off += 128 * 1024) {
      corpus.emplace_back(text.begin() + static_cast<std::ptrdiff_t>(off),
                          text.begin() +
                              static_cast<std::ptrdiff_t>(off + 128 * 1024));
    }
  }
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    corpus.push_back(testdata::periodic(128 * 1024, seed));
    corpus.push_back(testdata::periodic(1000 + 37 * seed, seed));
  }
  corpus.emplace_back(128 * 1024, 0x00);
  corpus.emplace_back(4096, 0x00);
  corpus.push_back(commercial_stream(131073, 7));
  corpus.push_back(commercial_stream(300000, 8));

  BurrowsWheelerCodec codec;
  Crc32 digest;
  for (const Bytes& input : corpus) digest.update(codec.compress(input));
  EXPECT_EQ(digest.value(), 0xCD7CE2A7u);
}

TEST(BurrowsWheelerCodec, RejectsBadChunkSize) {
  EXPECT_THROW(BurrowsWheelerCodec(16), ConfigError);
  EXPECT_THROW(BurrowsWheelerCodec(4 << 20), ConfigError);
}

TEST(BurrowsWheelerCodec, TruncatedInputThrows) {
  BurrowsWheelerCodec codec(2048);
  Bytes packed = codec.compress(testdata::repetitive_text(8192, 11));
  packed.resize(packed.size() / 2);
  EXPECT_THROW(codec.decompress(packed), DecodeError);
}

TEST(BurrowsWheelerCodec, RecoverFromBitFindsTailChunks) {
  // §2.4: a receiver starting mid-stream recovers chunks after the next
  // sentinel. Use text chunks so recovery is deterministic in practice.
  BurrowsWheelerCodec codec(1024);
  const Bytes data = testdata::repetitive_text(8192, 12);
  const Bytes packed = codec.compress(data);

  const auto chunks = codec.recover_from_bit(packed, 0);
  // Starting at bit 0 skips only the first chunk.
  ASSERT_EQ(chunks.size(), 7u);
  Bytes tail;
  for (const auto& c : chunks) tail.insert(tail.end(), c.begin(), c.end());
  const Bytes expected(data.begin() + 1024, data.end());
  EXPECT_EQ(tail, expected);
}

TEST(BurrowsWheelerCodec, RecoverFromMidStreamOffset) {
  BurrowsWheelerCodec codec(1024);
  const Bytes data = testdata::repetitive_text(16384, 13);
  const Bytes packed = codec.compress(data);

  // Jump ~40% into the compressed payload; everything recovered must be a
  // contiguous run of original chunks ending at the final one.
  const auto chunks =
      codec.recover_from_bit(packed, packed.size() * 8 * 2 / 5);
  ASSERT_FALSE(chunks.empty());
  ASSERT_LE(chunks.size(), 16u);
  Bytes tail;
  for (const auto& c : chunks) tail.insert(tail.end(), c.begin(), c.end());
  ASSERT_LE(tail.size(), data.size());
  const Bytes expected(data.end() - static_cast<std::ptrdiff_t>(tail.size()),
                       data.end());
  EXPECT_EQ(tail, expected);
}

TEST(BurrowsWheelerCodec, RecoverRequiresCompressedMode) {
  BurrowsWheelerCodec codec(1024);
  const Bytes packed = codec.compress(testdata::random_bytes(4096, 14));
  EXPECT_THROW(codec.recover_from_bit(packed, 0), DecodeError);
}

}  // namespace
}  // namespace acex
