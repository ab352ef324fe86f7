// Unit coverage of the QA subsystem itself (DESIGN.md §10): mutators are
// deterministic and structure-aware, the corpus persists and minimizes,
// the oracle battery passes on healthy inputs, and a short invariant soak
// of the full bridge + faulted-link + engine stack runs clean.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>

#include "compress/frame.hpp"
#include "compress/registry.hpp"
#include "obs/metrics.hpp"
#include "qa/corpus.hpp"
#include "qa/generators.hpp"
#include "qa/mutate.hpp"
#include "qa/oracles.hpp"
#include "qa/soak.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex {
namespace {

Bytes sample_text(std::size_t size, std::uint64_t seed) {
  return qa::seed_payloads(size, seed).front().data;  // the "text" regime
}

// ------------------------------------------------------------- QaMutate

TEST(QaMutate, SameSeedReplaysTheSameMutationStream) {
  const Bytes input = sample_text(2048, 5);
  Rng a(42), b(42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(qa::mutate(input, a), qa::mutate(input, b)) << "iteration " << i;
  }
}

TEST(QaMutate, EventuallyChangesTheInput) {
  const Bytes input = sample_text(512, 6);
  Rng rng(7);
  int changed = 0;
  for (int i = 0; i < 50; ++i) {
    if (qa::mutate(input, rng) != input) ++changed;
  }
  EXPECT_GT(changed, 40);  // identity mutations exist but must be rare
}

TEST(QaMutate, SurvivesEmptyInput) {
  Rng rng(1);
  for (int i = 0; i < 64; ++i) {
    const Bytes out = qa::mutate(Bytes{}, rng);
    EXPECT_LE(out.size(), 32u);  // only the splice case can grow it
  }
}

TEST(QaMutate, VarintMutatorLeavesNonVarintsAlone) {
  // Five continuation bytes and no terminator: no varint starts at 0.
  const Bytes input = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(qa::mutate_varint_at(input, 0, rng), input);
  }
}

TEST(QaMutate, VarintMutatorForgesDecodableOrAdversarialWidths) {
  Bytes input;
  put_varint(input, 300);            // two-byte varint up front
  input.insert(input.end(), 8, 0x55);  // trailing body
  Rng rng(11);
  int changed = 0;
  for (int i = 0; i < 200; ++i) {
    const Bytes out = qa::mutate_varint_at(input, 0, rng);
    ASSERT_GE(out.size(), 1u + 8u);
    // The replacement is at most an overlong/never-terminating 14 bytes.
    ASSERT_LE(out.size(), 14u + 8u);
    // The body after the varint is never disturbed.
    EXPECT_TRUE(std::equal(out.end() - 8, out.end(), input.end() - 8));
    if (out != input) ++changed;
  }
  EXPECT_GT(changed, 150);
}

TEST(QaMutate, ContainerMutatorKeepsWorkingAcrossAllCodecs) {
  const Bytes data = sample_text(4096, 9);
  for (const MethodId id : paper_methods()) {
    const CodecPtr codec = make_codec(id);
    const Bytes packed = codec->compress(data);
    Rng rng(static_cast<std::uint64_t>(id) + 100);
    for (int i = 0; i < 50; ++i) {
      const Bytes out = qa::mutate_container(packed, rng);
      EXPECT_LE(out.size(), packed.size() + 32);
    }
  }
}

// -------------------------------------------------------- QaFrameMutate

TEST(QaFrameMutate, SomeMutantsPenetrateTheHeaderChecksumGate) {
  // The structure-aware mutator re-fixes the header checksum half the
  // time, so a healthy share of mutants must still *parse* — proving the
  // corruption reaches the layers behind the first integrity gate — while
  // others must be rejected up front. About half parse; a fix-up that
  // missed the frame module's checksum would pass only the mutants whose
  // header it never touched (61 of these 400), so the bound sits above.
  const CodecPtr codec = make_codec(MethodId::kLempelZiv);
  const Bytes framed = frame_compress_seq(*codec, sample_text(4096, 13), 7);
  Rng rng(17);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 400; ++i) {
    const Bytes bad = qa::mutate_frame(framed, rng);
    try {
      (void)frame_parse(bad);
      ++parsed;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 120);
  EXPECT_GT(rejected, 40);
}

TEST(QaFrameMutate, FallsBackToGenericOnNonFrames) {
  const Bytes garbage = {1, 2, 3};
  Rng rng(23);
  for (int i = 0; i < 64; ++i) {
    (void)qa::mutate_frame(garbage, rng);  // must not crash or throw
  }
}

TEST(QaFrameMutate, DeterministicAcrossRuns) {
  const CodecPtr codec = make_codec(MethodId::kHuffman);
  const Bytes framed = frame_compress_seq(*codec, sample_text(1024, 29), 3);
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(qa::mutate_frame(framed, a), qa::mutate_frame(framed, b));
  }
}

TEST(QaFrameMutate, PbioMutatorTargetsSchemaAndFallsBackSafely) {
  const Bytes stream = qa::seed_pbio_stream(31);
  Rng rng(37);
  int changed = 0;
  for (int i = 0; i < 100; ++i) {
    const Bytes out = qa::mutate_pbio(stream, rng);
    if (out != stream) ++changed;
  }
  EXPECT_GT(changed, 60);
  // Non-PBIO bytes route through the generic fallback without crashing.
  const Bytes not_pbio = {'X', 'Y', 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 32; ++i) (void)qa::mutate_pbio(not_pbio, rng);
}

// -------------------------------------------------------------- QaIters

TEST(QaIters, EnvOverridesFallbackOnlyWhenValid) {
  ::unsetenv("ACEX_FUZZ_ITERS");
  EXPECT_EQ(qa::fuzz_iterations(60), 60);
  ::setenv("ACEX_FUZZ_ITERS", "123", 1);
  EXPECT_EQ(qa::fuzz_iterations(60), 123);
  ::setenv("ACEX_FUZZ_ITERS", "0", 1);
  EXPECT_EQ(qa::fuzz_iterations(60), 60);
  ::setenv("ACEX_FUZZ_ITERS", "-4", 1);
  EXPECT_EQ(qa::fuzz_iterations(60), 60);
  ::setenv("ACEX_FUZZ_ITERS", "12abc", 1);
  EXPECT_EQ(qa::fuzz_iterations(60), 60);
  ::setenv("ACEX_FUZZ_ITERS", "", 1);
  EXPECT_EQ(qa::fuzz_iterations(60), 60);
  ::unsetenv("ACEX_FUZZ_ITERS");
}

// ------------------------------------------------------------- QaCorpus

TEST(QaCorpus, SaveLoadRoundTripsAndDeduplicates) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "qa_corpus_rt").string();
  std::filesystem::remove_all(dir);
  qa::Corpus corpus(dir);
  EXPECT_TRUE(corpus.files().empty());  // lazily created, lists empty

  const Bytes input = sample_text(777, 41);
  const std::string path = corpus.save("crash", input);
  EXPECT_EQ(qa::Corpus::load(path), input);

  // Identical bytes under the same tag reuse the entry.
  EXPECT_EQ(corpus.save("crash", input), path);
  EXPECT_EQ(corpus.files().size(), 1u);

  // Different bytes land in a second, distinct entry.
  Bytes other = input;
  other.push_back(0xAB);
  const std::string path2 = corpus.save("crash", other);
  EXPECT_NE(path2, path);
  EXPECT_EQ(corpus.files().size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(QaCorpus, LoadMissingFileThrowsIoError) {
  EXPECT_THROW(qa::Corpus::load("/nonexistent/qa/entry.bin"), IoError);
}

TEST(QaCorpus, EmptyDirNameIsAConfigError) {
  EXPECT_THROW(qa::Corpus(""), ConfigError);
}

TEST(QaMinimize, ShrinksToTheMinimalInterestingCore) {
  Bytes input(100, 0x00);
  input[57] = 0x42;
  const auto has_marker = [](const Bytes& b) {
    return std::find(b.begin(), b.end(), 0x42) != b.end();
  };
  const Bytes minimal = qa::minimize(input, has_marker);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0], 0x42);
}

TEST(QaMinimize, ReturnsInputUnchangedWhenNotInteresting) {
  const Bytes input = sample_text(64, 43);
  const Bytes out = qa::minimize(input, [](const Bytes&) { return false; });
  EXPECT_EQ(out, input);
}

TEST(QaMinimize, PreservesMultiByteProperty) {
  // The property needs two separated markers; minimization must keep both.
  Bytes input(64, 0x00);
  input[10] = 0x11;
  input[50] = 0x22;
  const auto both = [](const Bytes& b) {
    return std::find(b.begin(), b.end(), 0x11) != b.end() &&
           std::find(b.begin(), b.end(), 0x22) != b.end();
  };
  const Bytes minimal = qa::minimize(input, both);
  EXPECT_EQ(minimal.size(), 2u);
  EXPECT_TRUE(both(minimal));
}

// ------------------------------------------------------------- QaOracle

TEST(QaOracle, GeneratorsAreDeterministicAndCoverRegimes) {
  const auto a = qa::seed_payloads(1024, 7);
  const auto b = qa::seed_payloads(1024, 7);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GE(a.size(), 6u);
  std::set<std::string> tags;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_STREQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].data, b[i].data);
    EXPECT_FALSE(a[i].data.empty()) << a[i].tag;
    tags.insert(a[i].tag);
  }
  EXPECT_EQ(tags.size(), a.size());  // regime tags are distinct
}

TEST(QaOracle, CleanInputsPassEveryOracle) {
  for (const auto& [tag, data] : qa::seed_payloads(2048, 3)) {
    for (const MethodId id : paper_methods()) {
      const qa::Verdict rt = qa::codec_roundtrip(id, data);
      EXPECT_TRUE(rt.ok) << tag << ": " << rt.detail;
    }
    const qa::Verdict z = qa::zlib_agreement(data);
    EXPECT_TRUE(z.ok) << tag << ": " << z.detail;
  }
  const qa::Verdict p = qa::pbio_survives(qa::seed_pbio_stream(3));
  EXPECT_TRUE(p.ok) << p.detail;
  const qa::Verdict e = qa::event_survives(qa::seed_event_wire(3));
  EXPECT_TRUE(e.ok) << e.detail;
}

TEST(QaOracle, CheckSeriesComparesEachSeriesDeltaWithItsTruth) {
  obs::MetricsRegistry reg;
  reg.counter("acex.qa.events").add(10);  // history the delta must ignore
  reg.histogram("acex.qa.us").record(1);
  const obs::MetricsSnapshot before = reg.snapshot();
  reg.counter("acex.qa.events").add(5);
  reg.gauge("acex.qa.depth").sub(2);
  reg.counter("acex.qa.frames", "subscriber", "s1").add(3);
  for (const double us : {4.0, 40.0, 400.0}) {
    reg.histogram("acex.qa.us").record(us);
  }
  const obs::MetricsSnapshot after = reg.snapshot();

  const std::vector<qa::SeriesRow> truth = {
      {"acex.qa.events", 5},
      {"acex.qa.depth", static_cast<std::uint64_t>(-2)},
      {"acex.qa.frames{subscriber=\"s1\"}", 3},
      {"acex.qa.us", 3},  // a histogram's count
      {"acex.qa.absent", 0},
  };
  EXPECT_TRUE(qa::check_series(before, after, truth).empty());

  // Every row off by one: one violation per row, each naming its series.
  std::vector<qa::SeriesRow> wrong = truth;
  for (qa::SeriesRow& row : wrong) ++row.truth;
  const std::vector<std::string> violations =
      qa::check_series(before, after, wrong);
  ASSERT_EQ(violations.size(), wrong.size());
  for (std::size_t i = 0; i < wrong.size(); ++i) {
    EXPECT_EQ(violations[i].rfind(wrong[i].series + ":", 0), 0u)
        << violations[i];
  }
  EXPECT_EQ(violations[1],
            "acex.qa.depth: obs delta -2 != ground truth -1");
}

TEST(QaOracle, MutatedFramesNeverBreakTheSurvivalOracle) {
  const CodecRegistry registry = CodecRegistry::with_builtins();
  const CodecPtr codec = make_codec(MethodId::kBurrowsWheeler);
  const Bytes framed = frame_compress_seq(*codec, sample_text(2048, 23), 99);
  Rng rng(47);
  for (int i = 0; i < qa::fuzz_iterations(60); ++i) {
    const Bytes bad = qa::mutate_frame(framed, rng);
    const qa::Verdict v = qa::frame_survives(bad, registry);
    EXPECT_TRUE(v.ok) << v.detail;
  }
}

TEST(QaOracle, MutatedContainersStayWithinDecoderBounds) {
  const Bytes data = sample_text(2048, 27);
  Rng rng(53);
  for (const MethodId id : paper_methods()) {
    const CodecPtr codec = make_codec(id);
    const Bytes packed = codec->compress(data);
    for (int i = 0; i < 30; ++i) {
      const Bytes bad = qa::mutate_container(packed, rng);
      const qa::Verdict v = qa::decoder_bounds(id, bad, data.size());
      EXPECT_TRUE(v.ok) << v.detail;
    }
  }
}

TEST(QaOracle, SerialAndParallelWireStreamsAreByteIdentical) {
  const Bytes data = sample_text(8 * 1024, 31);
  std::size_t blocks = 0;
  const qa::Verdict v = qa::serial_parallel_identity(
      data, MethodId::kLempelZiv, 4, 1024, &blocks);
  EXPECT_TRUE(v.ok) << v.detail;
  EXPECT_EQ(blocks, 8u);
}

TEST(QaOracle, AdaptivePathDeliversIdenticalPayloadAcrossWorkerCounts) {
  const Bytes data = sample_text(8 * 1024, 37);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const qa::Verdict v = qa::serial_parallel_adaptive(data, workers, 1024);
    EXPECT_TRUE(v.ok) << workers << " workers: " << v.detail;
  }
}

// --------------------------------------------------------------- QaSoak

TEST(QaSoak, ShortFaultedSoakRunsWithZeroViolations) {
  qa::SoakConfig config;
  config.rounds = 3;
  config.workers = 2;
  config.seed = 11;
  const qa::SoakReport report = qa::run_soak(config);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
  EXPECT_EQ(report.rounds, 3u);
  EXPECT_GT(report.events_published, 0u);
  EXPECT_EQ(report.events_delivered + report.events_unrecovered,
            report.events_published);
  EXPECT_GT(report.blocks_sent, 0u);
  EXPECT_EQ(report.blocks_recovered + report.blocks_abandoned,
            report.blocks_sent);
}

TEST(QaSoak, SoakIsDeterministicForAFixedSeed) {
  qa::SoakConfig config;
  config.rounds = 2;
  config.workers = 2;
  config.seed = 77;
  // Adaptive method choices feed on real wall-clock compression timings,
  // so two runs may frame blocks differently; restrict the fault mix to
  // content-independent classes (per-message draws) so the recovery flow
  // and every counter below are pure functions of the seed.
  config.bit_flip_prob = 0;
  config.truncate_prob = 0;
  // The broker half plans on Fig. 4's model meter, so its encode counts
  // are pure functions of the seed as well.
  config.broker_subscribers = 4;
  const qa::SoakReport a = qa::run_soak(config);
  const qa::SoakReport b = qa::run_soak(config);
  EXPECT_EQ(a.events_published, b.events_published);
  EXPECT_EQ(a.events_delivered, b.events_delivered);
  EXPECT_EQ(a.blocks_sent, b.blocks_sent);
  EXPECT_EQ(a.blocks_recovered, b.blocks_recovered);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.broker_blocks, b.broker_blocks);
  EXPECT_EQ(a.broker_recovered, b.broker_recovered);
  EXPECT_EQ(a.broker_abandoned, b.broker_abandoned);
  EXPECT_EQ(a.broker_retransmits, b.broker_retransmits);
  EXPECT_EQ(a.broker_encodes, b.broker_encodes);
  EXPECT_EQ(a.broker_cache_hits, b.broker_cache_hits);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(QaSoak, RetryCapOfOneSettlesEveryLostBlock) {
  // One NACK per gap on a 20 %-drop link: many blocks are lost for good.
  // The engine receiver must settle them, or its cursor pins, later blocks
  // fall outside the gap window and the accounting identity breaks.
  qa::SoakConfig config;
  config.rounds = 100;
  config.workers = 1;
  config.nack_retry_cap = 1;
  config.drop_prob = 0.2;
  config.seed = 3;
  const qa::SoakReport report = qa::run_soak(config);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
  EXPECT_GT(report.blocks_abandoned, 0u);
  EXPECT_EQ(report.blocks_recovered + report.blocks_abandoned,
            report.blocks_sent);
}

TEST(QaSoak, BrokerChurnSoakRunsWithZeroViolations) {
  // The broker half with subscriber churn, as `acexfuzz --soak 0 --rounds
  // 60 --broker 8 --churn 2` runs it: each subscriber's identity counts
  // the blocks its receiver settled.
  qa::SoakConfig config;
  config.rounds = 60;
  config.broker_subscribers = 8;
  config.broker_churn_every = 2;
  const qa::SoakReport report = qa::run_soak(config);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
  EXPECT_GT(report.broker_blocks, 0u);
  EXPECT_GT(report.broker_recovered, 0u);
}

TEST(QaSoak, RejectsUnusableConfigs) {
  qa::SoakConfig bad;
  bad.block_size = 0;
  EXPECT_THROW(qa::run_soak(bad), ConfigError);
  qa::SoakConfig idle;
  idle.events_per_round = 0;
  idle.blocks_per_round = 0;
  EXPECT_THROW(qa::run_soak(idle), ConfigError);
  qa::SoakConfig never;
  never.seconds = 0;
  never.rounds = 0;
  EXPECT_THROW(qa::run_soak(never), ConfigError);
}

}  // namespace
}  // namespace acex
