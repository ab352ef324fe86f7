// acexfuzz — deterministic fuzzing and differential-testing driver over
// the acex_qa subsystem (DESIGN.md §10). Modes:
//
//   acexfuzz --smoke                     budgeted mutation battery: every
//                                        codec container, frame envelope,
//                                        PBIO stream and event wire image
//                                        is mutated and run through the
//                                        robustness oracles
//   acexfuzz --diff [-n BLOCKS]          differential oracle: serial vs
//            [-w WORKERS]                N-worker wire byte identity per
//                                        paper codec (plus the columnar
//                                        pipeline codec) over fuzzed
//                                        payloads
//   acexfuzz --colpipe                   columnar-pipeline battery: the
//                                        round-trip oracle over PBIO/text/
//                                        random payloads, a truncation
//                                        sweep, and a mutate_colpipe storm
//                                        (forged stage ids, CRC-resealed
//                                        headers) through colpipe_survives
//   acexfuzz --soak SECONDS              invariant soak of the full bridge
//            [--rounds N]                + faulted-link + engine stack
//            [--broker K]                (SECONDS 0 = N deterministic
//            [--churn M]                 rounds); --broker K adds a K-
//                                        subscriber fan-out half with
//                                        subscriber churn every M rounds
//                                        (default 3, 0 = no churn); the
//                                        default soak is unchanged without
//                                        --broker
//   acexfuzz --chaos SECONDS             session-resilience chaos: kill and
//            [--rounds N]                reconnect every subscriber session
//            [--sessions K]              mid-stream over a faulted link and
//                                        check resume byte-identity, expiry
//                                        accounting and obs mirrors
//                                        (SECONDS 0 = one deterministic run
//                                        of N rounds; > 0 = a wall-clock
//                                        budget sweeping seeds from -s)
//   acexfuzz --handshake                 daemon handshake/protocol codec
//                                        battery: truncation + bit-flip +
//                                        varint mutations of offer/params/
//                                        welcome/reject/nack wire images —
//                                        nothing but a typed HandshakeError
//                                        may escape (DecodeError for the
//                                        obs JSON stat-reply payload),
//                                        valid inputs must re-encode to a
//                                        byte-identical fixpoint, and
//                                        negotiate() must hold its
//                                        invariants under random offer x
//                                        policy pairs
//   acexfuzz --shm                       shared-memory descriptor battery:
//                                        mutated/truncated/varint-mangled
//                                        slab descriptors injected into a
//                                        live ShmEndpoint (only counted
//                                        skips, nothing but DecodeError may
//                                        escape a raw decode), forged
//                                        SlabDescriptors thrown at
//                                        resolve/add_ref/drop_ref (only
//                                        typed ShmError), and a truncated/
//                                        forged-header segment-attach sweep
//                                        (every attach must fail typed,
//                                        before a slab is touched)
//   acexfuzz --replay FILE               run one corpus entry through the
//                                        oracle battery (bit-exact output)
//   acexfuzz --emit FILE                 write the deterministic mutated
//                                        input for -s SEED to FILE
//   acexfuzz --minimize FILE             shrink FILE while it keeps
//                                        triggering a finding; writes
//                                        FILE.min
//   acexfuzz --corpus DIR                replay every entry in DIR
//
// Common flags: -s SEED, --iters N (or ACEX_FUZZ_ITERS), --seeds ROUNDS,
// --size BYTES, -b BLOCK_BYTES, --out DIR (crash corpus, default
// qa/corpus).
//
// Every run is a pure function of the seed: the same invocation finds the
// same findings forever, and every finding is persisted to the crash
// corpus so `acexfuzz --replay` reproduces it from the file alone.
// Exit codes: 0 clean, 1 findings/violations, 2 usage or config error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "colpipe/columnar_codec.hpp"
#include "compress/frame.hpp"
#include "compress/registry.hpp"
#include "compress/zlib_codec.hpp"
#include "net/handshake.hpp"
#include "net/protocol.hpp"
#include "obs/export.hpp"
#include "qa/chaos.hpp"
#include "qa/corpus.hpp"
#include "qa/generators.hpp"
#include "qa/mutate.hpp"
#include "qa/oracles.hpp"
#include "qa/soak.hpp"
#include "shm/bus.hpp"
#include "util/crc32.hpp"
#include "workloads/molecular.hpp"
#include "workloads/transactions.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace acex;

enum class Mode { kNone, kSmoke, kDiff, kColpipe, kSoak, kChaos, kHandshake,
                  kShm, kReplay, kEmit, kMinimize, kCorpus };

struct Options {
  Mode mode = Mode::kNone;
  std::uint64_t seed = 1;
  int iters = 0;               // 0 = ACEX_FUZZ_ITERS or the built-in 60
  std::size_t seed_rounds = 3; // independent seed rounds per smoke run
  std::size_t size = 4096;     // seed payload size
  std::size_t block_size = 2048;
  std::size_t diff_blocks = 64;  // fuzzed blocks per codec in --diff
  std::size_t workers = 4;
  double soak_seconds = 0;
  std::size_t soak_rounds = 20;
  double chaos_seconds = 0;
  std::size_t chaos_sessions = 16;
  std::size_t broker_subscribers = 0;  // 0 = broker half off
  std::size_t broker_churn = 3;
  std::string out_dir = "qa/corpus";
  std::string path;            // FILE or DIR operand of the mode
};

int usage() {
  std::fprintf(stderr,
               "usage: acexfuzz (--smoke | --diff | --colpipe |"
               " --soak SECONDS | --chaos SECONDS |\n"
               "                 --handshake | --shm | --replay FILE |"
               " --emit FILE | --minimize FILE | --corpus DIR)\n"
               "                [-s SEED] [--iters N] [--seeds ROUNDS]"
               " [--size BYTES]\n"
               "                [-b BLOCK_BYTES] [-n DIFF_BLOCKS]"
               " [-w WORKERS]\n"
               "                [--rounds N] [--broker K] [--churn M]"
               " [--sessions K]\n"
               "                [--out DIR]\n");
  return 2;
}

/// A named oracle outcome plus the findings ledger shared by every mode.
struct Findings {
  std::size_t inputs = 0;
  std::size_t findings = 0;
  qa::Corpus corpus;

  explicit Findings(std::string dir) : corpus(std::move(dir)) {}

  /// Account one oracle run; persists the input on failure.
  void check(const char* tag, const qa::Verdict& verdict, ByteView input) {
    ++inputs;
    if (verdict.ok) return;
    ++findings;
    std::string saved = "(unsaved)";
    try {
      saved = corpus.save(tag, input);
    } catch (const Error& e) {
      std::fprintf(stderr, "acexfuzz: cannot persist finding: %s\n", e.what());
    }
    std::fprintf(stderr, "acexfuzz: FINDING [%s] %s\n  input: %s\n", tag,
                 verdict.detail.c_str(), saved.c_str());
  }
};

std::vector<MethodId> smoke_methods() {
  std::vector<MethodId> methods = paper_methods();
  if (zlib_available()) methods.push_back(MethodId::kZlib);
  return methods;
}

/// The arbitrary-bytes oracle battery --replay/--corpus/--minimize use:
/// which decoders reject or bound this input, and does the frame path
/// survive it. Returns (name, verdict) pairs in a fixed order.
std::vector<std::pair<std::string, qa::Verdict>> battery(const Bytes& input) {
  std::vector<std::pair<std::string, qa::Verdict>> results;
  const CodecRegistry registry = CodecRegistry::with_builtins();
  for (const MethodId id : smoke_methods()) {
    results.emplace_back(
        std::string("decode.") + std::string(method_name(id)),
        qa::decoder_bounds(id, input, input.size()));
  }
  results.emplace_back("frame", qa::frame_survives(input, registry));
  results.emplace_back("pbio", qa::pbio_survives(input));
  results.emplace_back("event", qa::event_survives(input));
  return results;
}

// ------------------------------------------------------------------ smoke
int run_smoke(const Options& opt) {
  const int iters = opt.iters > 0 ? opt.iters : qa::fuzz_iterations(60);
  Findings ledger(opt.out_dir);
  const CodecRegistry registry = CodecRegistry::with_builtins();
  const std::vector<MethodId> methods = smoke_methods();

  for (std::size_t round = 0; round < opt.seed_rounds; ++round) {
    const std::uint64_t seed = opt.seed + round;
    const auto payloads = qa::seed_payloads(opt.size, seed);

    for (const auto& [tag, data] : payloads) {
      for (const MethodId id : methods) {
        // Clean-input invariants first: round-trip and determinism.
        ledger.check("roundtrip", qa::codec_roundtrip(id, data), data);

        // Mutated codec containers through the bounded-decode oracle.
        const CodecPtr codec = make_codec(id);
        const Bytes packed = codec->compress(data);
        Rng rng(seed ^ (static_cast<std::uint64_t>(id) << 32) ^
                crc32(ByteView(reinterpret_cast<const std::uint8_t*>(tag),
                               std::strlen(tag))));
        for (int i = 0; i < iters; ++i) {
          const Bytes mutated = qa::mutate_container(packed, rng);
          ledger.check("container", qa::decoder_bounds(id, mutated, data.size()),
                       mutated);
        }

        // Mutated frame envelopes through the frame survival oracle.
        const CodecPtr framing = make_codec(id);
        const Bytes framed =
            frame_compress_seq(*framing, data, seed * 131 + ledger.inputs % 7);
        for (int i = 0; i < iters; ++i) {
          const Bytes mutated = qa::mutate_frame(framed, rng);
          ledger.check("frame", qa::frame_survives(mutated, registry), mutated);
        }
      }
      ledger.check("zlib", qa::zlib_agreement(data), data);
    }

    // Structured streams: PBIO records and event wire images.
    Rng srng(seed * 0x9E3779B97F4A7C15ull + 3);
    const Bytes pbio_stream = qa::seed_pbio_stream(seed);
    const Bytes event_wire = qa::seed_event_wire(seed);
    for (int i = 0; i < iters; ++i) {
      const Bytes mutated = qa::mutate_pbio(pbio_stream, srng);
      ledger.check("pbio", qa::pbio_survives(mutated), mutated);
    }
    for (int i = 0; i < iters; ++i) {
      const Bytes mutated = qa::mutate(event_wire, srng);
      ledger.check("event", qa::event_survives(mutated), mutated);
    }
    std::fprintf(stderr, "acexfuzz: smoke round %zu/%zu: %zu inputs so far\n",
                 round + 1, opt.seed_rounds, ledger.inputs);
  }

  std::printf("smoke: %zu inputs, %zu findings, seed %llu, %d iters/target\n",
              ledger.inputs, ledger.findings,
              static_cast<unsigned long long>(opt.seed), iters);
  return ledger.findings == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- diff
int run_diff(const Options& opt) {
  Findings ledger(opt.out_dir);
  // Enough regimes x seeds to pass `diff_blocks` blocks through every
  // paper codec; each payload is sized for several blocks.
  const std::size_t payload_size = opt.block_size * 8;

  // Paper codecs plus the columnar pipeline codec: the identity must hold
  // for application-registered methods too (the oracle registers colpipe on
  // both ends itself).
  std::vector<MethodId> diff_methods = paper_methods();
  diff_methods.push_back(MethodId::kColumnar);
  for (const MethodId id : diff_methods) {
    std::size_t blocks_done = 0;
    std::uint64_t seed = opt.seed;
    while (blocks_done < opt.diff_blocks) {
      const auto payloads = qa::seed_payloads(payload_size, seed++);
      for (const auto& [tag, data] : payloads) {
        if (blocks_done >= opt.diff_blocks || data.empty()) continue;
        std::size_t blocks = 0;
        ledger.check("diff",
                     qa::serial_parallel_identity(data, id, opt.workers,
                                                  opt.block_size, &blocks),
                     data);
        blocks_done += blocks;
      }
    }
    std::printf("diff: %s: %zu blocks byte-identical at %zu workers\n",
                std::string(method_name(id)).c_str(), blocks_done,
                opt.workers);
  }

  // The adaptive path only promises delivered-payload identity.
  const auto payloads = qa::seed_payloads(payload_size, opt.seed + 1031);
  for (const auto& [tag, data] : payloads) {
    ledger.check("diff_adaptive",
                 qa::serial_parallel_adaptive(data, opt.workers,
                                              opt.block_size),
                 data);
  }

  std::printf("diff: %zu oracle runs, %zu findings\n", ledger.inputs,
              ledger.findings);
  return ledger.findings == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- colpipe
int run_colpipe(const Options& opt) {
  const int iters = opt.iters > 0 ? opt.iters : qa::fuzz_iterations(80);
  Findings ledger(opt.out_dir);

  for (std::size_t round = 0; round < opt.seed_rounds; ++round) {
    const std::uint64_t seed = opt.seed + round;
    Rng rng(seed ^ 0xC01b17e5ull);

    // Targets spanning the codec's regimes: schema-bearing PBIO blocks
    // (columnar path), text (opaque fallback), incompressible noise, and
    // the empty payload.
    std::vector<std::pair<const char*, Bytes>> targets;
    workloads::TransactionGenerator txn(seed);
    targets.emplace_back("txn_pbio", txn.pbio_block(256));
    workloads::MolecularConfig mdc;
    mdc.atom_count = 512;
    mdc.seed = seed;
    workloads::MolecularGenerator md(mdc);
    targets.emplace_back("md_pbio", md.pbio_snapshot());
    workloads::TransactionGenerator text(seed + 1);
    targets.emplace_back("text", text.text_block(opt.size));
    targets.emplace_back("random", rng.bytes(opt.size));
    targets.emplace_back("empty", Bytes{});

    colpipe::ColumnarCodec codec;
    for (const auto& [tag, data] : targets) {
      (void)tag;
      // Clean-input invariants: round-trip identity and determinism.
      ledger.check("colpipe.roundtrip", qa::colpipe_roundtrip(data), data);

      const Bytes packed = codec.compress(data);

      // Every truncation of the container must be rejected cleanly or
      // decode within bounds — never crash.
      const std::size_t cuts = std::min<std::size_t>(packed.size(), 48);
      for (std::size_t len = 0; len < cuts; ++len) {
        const Bytes prefix(packed.begin(),
                           packed.begin() + static_cast<std::ptrdiff_t>(len));
        ledger.check("colpipe.truncate",
                     qa::colpipe_survives(prefix, data.size()), prefix);
      }

      // Structure-aware mutation storm: forged stage ids, varint damage,
      // and CRC-resealed pipeline headers so corruption penetrates past
      // the header check.
      for (int i = 0; i < iters; ++i) {
        const Bytes mutated = qa::mutate_colpipe(packed, rng);
        ledger.check("colpipe.survives",
                     qa::colpipe_survives(mutated, data.size()), mutated);
      }
    }
    std::fprintf(stderr, "acexfuzz: colpipe round %zu/%zu: %zu inputs so far\n",
                 round + 1, opt.seed_rounds, ledger.inputs);
  }

  std::printf("colpipe: %zu inputs, %zu findings, seed %llu, %d iters/target\n",
              ledger.inputs, ledger.findings,
              static_cast<unsigned long long>(opt.seed), iters);
  return ledger.findings == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- soak
int run_soak_mode(const Options& opt) {
  qa::SoakConfig config;
  config.seconds = opt.soak_seconds;
  config.rounds = opt.soak_rounds;
  config.seed = opt.seed;
  config.workers = opt.workers;
  config.block_size = opt.block_size;
  config.broker_subscribers = opt.broker_subscribers;
  config.broker_churn_every = opt.broker_churn;
  const qa::SoakReport report = qa::run_soak(config);

  std::printf(
      "soak: %zu rounds, seed %llu\n"
      "  events: %llu published, %llu delivered, %llu abandoned, "
      "%llu retransmits\n"
      "  blocks: %llu sent, %llu recovered, %llu abandoned, "
      "%llu retransmits\n"
      "  faults injected: %llu\n",
      report.rounds, static_cast<unsigned long long>(config.seed),
      static_cast<unsigned long long>(report.events_published),
      static_cast<unsigned long long>(report.events_delivered),
      static_cast<unsigned long long>(report.events_unrecovered),
      static_cast<unsigned long long>(report.event_retransmits),
      static_cast<unsigned long long>(report.blocks_sent),
      static_cast<unsigned long long>(report.blocks_recovered),
      static_cast<unsigned long long>(report.blocks_abandoned),
      static_cast<unsigned long long>(report.block_retransmits),
      static_cast<unsigned long long>(report.faults_injected));
  if (config.broker_subscribers > 0) {
    std::printf(
        "  broker: %llu blocks x %zu subs, %llu recovered, %llu abandoned, "
        "%llu retransmits\n"
        "  broker encode cache: %llu encodes, %llu hits\n",
        static_cast<unsigned long long>(report.broker_blocks),
        config.broker_subscribers,
        static_cast<unsigned long long>(report.broker_recovered),
        static_cast<unsigned long long>(report.broker_abandoned),
        static_cast<unsigned long long>(report.broker_retransmits),
        static_cast<unsigned long long>(report.broker_encodes),
        static_cast<unsigned long long>(report.broker_cache_hits));
  }
  for (const std::string& violation : report.violations) {
    std::fprintf(stderr, "acexfuzz: VIOLATION %s\n", violation.c_str());
  }
  std::printf("soak: %zu violations\n", report.violations.size());
  return report.ok() ? 0 : 1;
}

// ------------------------------------------------------------------ chaos
int run_chaos_once(const qa::ChaosConfig& config, qa::Corpus& corpus) {
  const qa::ChaosReport report = qa::run_chaos(config);
  std::printf(
      "chaos: seed %llu: %zu rounds, %zu sessions, %llu blocks\n"
      "  kills %llu, resumes %llu, restarts %llu, expired %llu, "
      "delivered %llu, heartbeats %llu\n",
      static_cast<unsigned long long>(config.seed), report.rounds,
      config.sessions, static_cast<unsigned long long>(report.published),
      static_cast<unsigned long long>(report.kills),
      static_cast<unsigned long long>(report.resumes),
      static_cast<unsigned long long>(report.restarts),
      static_cast<unsigned long long>(report.expired),
      static_cast<unsigned long long>(report.delivered),
      static_cast<unsigned long long>(report.heartbeats));
  for (const std::string& violation : report.violations) {
    std::fprintf(stderr, "acexfuzz: VIOLATION %s\n", violation.c_str());
  }
  if (!report.ok()) {
    // The whole run is a pure function of its config, so the repro is the
    // config itself; persist it as a corpus note for the nightly artifact.
    const std::string repro =
        "acexfuzz --chaos 0 -s " + std::to_string(config.seed) +
        " --rounds " + std::to_string(config.rounds) + " --sessions " +
        std::to_string(config.sessions) + " -b " +
        std::to_string(config.block_size) + "\n";
    try {
      const std::string saved = corpus.save(
          "chaos", ByteView(reinterpret_cast<const std::uint8_t*>(
                                repro.data()),
                            repro.size()));
      std::fprintf(stderr, "acexfuzz: chaos repro saved to %s\n",
                   saved.c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "acexfuzz: cannot persist chaos repro: %s\n",
                   e.what());
    }
  }
  std::printf("chaos: %zu violations\n", report.violations.size());
  return report.ok() ? 0 : 1;
}

int run_chaos_mode(const Options& opt) {
  qa::ChaosConfig config;
  config.rounds = opt.soak_rounds > 0 ? opt.soak_rounds : config.rounds;
  config.sessions = opt.chaos_sessions;
  config.block_size = opt.block_size;
  config.seed = opt.seed;
  qa::Corpus corpus(opt.out_dir);

  if (opt.chaos_seconds <= 0) return run_chaos_once(config, corpus);

  // Wall-clock budget: sweep seeds until time is up; any violating seed
  // fails the whole sweep (its repro line is already in the corpus).
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::duration<double>(opt.chaos_seconds);
  int worst = 0;
  std::size_t runs = 0;
  while (std::chrono::steady_clock::now() - start < budget) {
    worst = std::max(worst, run_chaos_once(config, corpus));
    ++config.seed;
    ++runs;
  }
  std::printf("chaos: swept %zu seeds in %.1fs budget\n", runs,
              opt.chaos_seconds);
  return worst;
}

// -------------------------------------------------------------- handshake
/// One fuzz target: a canonical wire image plus a decode->re-encode->
/// re-decode fixpoint check. `decode_fixpoint` must throw HandshakeError
/// (and nothing else) on inputs it cannot accept — DecodeError for the
/// `json` target; when it accepts, the re-encoded form must decode back to
/// the same value (canonicalization is a fixpoint, so a forged-but-
/// parseable image cannot smuggle state that survives one hop but not two).
struct HandshakeTarget {
  const char* tag;
  Bytes wire;
  void (*decode_fixpoint)(ByteView);
  bool json = false;  ///< obs JSON lines, not a handshake codec
};

void offer_fixpoint(ByteView wire) {
  const net::CompressionOffer a = net::offer_decode(wire);
  const net::CompressionOffer b = net::offer_decode(net::offer_encode(a));
  if (!(a == b)) throw std::logic_error("offer fixpoint violated");
}

void params_fixpoint(ByteView wire) {
  const net::NegotiatedParams a = net::params_decode(wire);
  const net::NegotiatedParams b = net::params_decode(net::params_encode(a));
  if (!(a == b)) throw std::logic_error("params fixpoint violated");
}

void welcome_fixpoint(ByteView wire) {
  const net::Welcome a = net::welcome_decode(wire);
  const net::Welcome b = net::welcome_decode(net::welcome_encode(a));
  if (!(a == b)) throw std::logic_error("welcome fixpoint violated");
}

void reject_fixpoint(ByteView wire) {
  const net::Reject a = net::reject_decode(wire);
  const net::Reject b = net::reject_decode(net::reject_encode(a));
  if (!(a == b)) throw std::logic_error("reject fixpoint violated");
}

void nack_fixpoint(ByteView wire) {
  const auto a = net::nack_decode(wire);
  const auto b = net::nack_decode(net::nack_encode(a));
  if (a != b) throw std::logic_error("nack fixpoint violated");
}

void metrics_fixpoint(ByteView wire) {
  const std::string text(wire.begin(), wire.end());
  const std::string a = obs::to_json_lines(obs::parse_json_lines(text));
  if (obs::to_json_lines(obs::parse_json_lines(a)) != a) {
    throw std::logic_error("metrics fixpoint violated");
  }
}

void msg_fixpoint(ByteView wire) {
  const net::Msg a = net::unwrap(wire);
  const net::Msg b = net::unwrap(net::wrap(a.kind, a.payload));
  if (a.kind != b.kind || a.payload != b.payload) {
    throw std::logic_error("msg fixpoint violated");
  }
}

/// Deterministic canonical wire images for one seed round.
std::vector<HandshakeTarget> handshake_targets(std::uint64_t seed) {
  Rng rng(seed * 0xD1B54A32D192ED03ull + 5);
  std::vector<HandshakeTarget> targets;

  net::CompressionOffer fresh;
  fresh.name = "fuzz-" + std::to_string(rng.below(1000));
  fresh.block_size = static_cast<std::uint32_t>(1 + rng.below(1 << 22));
  fresh.target_rate_Bps = rng.below(1ull << 44);
  targets.push_back({"offer", net::offer_encode(fresh), &offer_fixpoint});

  // Non-default policy id: the extension TLV is on the wire, so the
  // mutation battery storms the policy field bytes too. Unknown ids are
  // legal at the CODEC layer (decode keeps them raw for negotiate() to
  // reject), so the fixpoint must hold for them as well.
  net::CompressionOffer policy_offer = fresh;
  policy_offer.policy_id = rng.chance(0.5) ? 1 + rng.below(3) : rng();
  targets.push_back(
      {"offer_policy", net::offer_encode(policy_offer), &offer_fixpoint});

  net::CompressionOffer resume;
  resume.methods = {MethodId::kLempelZiv, MethodId::kNone};
  resume.context_takeover = false;
  resume.resume_session = 1 + rng.below(1 << 16);
  resume.resume_token = rng();
  resume.resume_from = rng.below(1 << 20);
  targets.push_back(
      {"offer_resume", net::offer_encode(resume), &offer_fixpoint});

  net::NegotiatedParams params;
  params.methods = {MethodId::kBurrowsWheeler, MethodId::kHuffman,
                    MethodId::kNone};
  params.block_size = static_cast<std::uint32_t>(4096 + rng.below(1 << 20));
  params.expansion_slack = static_cast<std::uint32_t>(rng.below(4096));
  const auto& policies = adaptive::all_policies();
  params.policy = policies[rng.below(policies.size())];
  targets.push_back({"params", net::params_encode(params), &params_fixpoint});

  net::Welcome welcome;
  welcome.session_id = 1 + rng.below(1 << 20);
  welcome.token = rng();
  welcome.resumed = rng.chance(0.5);
  welcome.replayed = rng.below(1 << 12);
  welcome.params = params;
  targets.push_back(
      {"welcome", net::welcome_encode(welcome), &welcome_fixpoint});

  net::Reject reject;
  reject.status = net::HandshakeStatus::kNoCommonMethod;
  reject.reason = "offer and policy share no codec";
  targets.push_back({"reject", net::reject_encode(reject), &reject_fixpoint});

  std::vector<std::uint64_t> sequences;
  for (std::size_t i = 0; i < 1 + rng.below(32); ++i) {
    sequences.push_back(rng.below(1ull << 32));
  }
  targets.push_back({"nack", net::nack_encode(sequences), &nack_fixpoint});

  // The kStatReply payload: a counter, a gauge, a labelled series and a
  // histogram, exported the way acexd answers a stat probe.
  obs::MetricsRegistry metrics;
  metrics.counter("acex.net.handshakes").add(rng());
  metrics.gauge("acex.net.connections_open")
      .set(static_cast<std::int64_t>(rng.below(1 << 16)) - (1 << 15));
  metrics.counter("acex.broker.sub.frames", "subscriber", fresh.name)
      .add(rng.below(1ull << 40));
  obs::Histogram& wait = metrics.histogram("acex.shm.reclaim_wait_seconds");
  for (int i = 0; i < 8; ++i) wait.record(rng.uniform() * 1e4);
  const std::string json = obs::to_json_lines(metrics.snapshot());
  targets.push_back({"metrics", Bytes(json.begin(), json.end()),
                     &metrics_fixpoint, /*json=*/true});

  targets.push_back(
      {"msg", net::wrap(net::MsgKind::kControl, net::offer_encode(fresh)),
       &msg_fixpoint});
  return targets;
}

int run_handshake(const Options& opt) {
  const int iters = opt.iters > 0 ? opt.iters : qa::fuzz_iterations(120);
  std::size_t inputs = 0;
  std::size_t findings = 0;
  const auto finding = [&](const char* tag, const std::string& detail) {
    ++findings;
    std::fprintf(stderr, "acexfuzz: FINDING [handshake.%s] %s\n", tag,
                 detail.c_str());
  };

  for (std::size_t round = 0; round < opt.seed_rounds; ++round) {
    const std::uint64_t seed = opt.seed + round;
    Rng rng(seed ^ 0xACE1ACE1ACE1ACE1ull);

    for (const HandshakeTarget& target : handshake_targets(seed)) {
      // The canonical image itself must pass its fixpoint.
      ++inputs;
      try {
        target.decode_fixpoint(target.wire);
      } catch (const std::exception& e) {
        finding(target.tag, std::string("clean input rejected: ") + e.what());
      }

      // Mutation battery: generic bit flips/splices, hard truncation, and
      // adversarial varint overwrites. Only HandshakeError may escape.
      for (int i = 0; i < iters; ++i) {
        Bytes evil;
        switch (rng.below(4)) {
          case 0:
            evil = qa::mutate(target.wire, rng);
            break;
          case 1:
            evil = target.wire;
            if (!evil.empty()) evil.resize(rng.below(evil.size()));
            break;
          case 2:
            evil = qa::mutate_varint_at(
                target.wire, rng.below(target.wire.size() + 1), rng);
            break;
          default:
            evil = qa::mutate(qa::mutate(target.wire, rng), rng);
            break;
        }
        ++inputs;
        try {
          target.decode_fixpoint(evil);
        } catch (const std::exception& e) {
          // The one sanctioned outcome for garbage: a typed HandshakeError,
          // or a DecodeError from the JSON target.
          const bool sanctioned =
              target.json ? dynamic_cast<const DecodeError*>(&e) != nullptr
                          : dynamic_cast<const net::HandshakeError*>(&e) !=
                                nullptr;
          if (!sanctioned) {
            finding(target.tag, std::string("unsanctioned escape: ") +
                                    e.what());
          }
        }
      }
    }

    // negotiate() under random structurally-valid offer x policy pairs:
    // either a typed reject, or a result inside every negotiated bound.
    const std::vector<MethodId> pool = {
        MethodId::kNone,      MethodId::kHuffman,
        MethodId::kArithmetic, MethodId::kLempelZiv,
        MethodId::kBurrowsWheeler, MethodId::kLzw};
    for (int i = 0; i < iters; ++i) {
      net::CompressionOffer offer;
      offer.methods.clear();
      const std::size_t n = rng.below(pool.size() + 1);
      for (std::size_t k = 0; k < n; ++k) {
        offer.methods.push_back(pool[rng.below(pool.size())]);
      }
      offer.block_size = static_cast<std::uint32_t>(rng.below(1ull << 33));
      offer.expansion_slack =
          static_cast<std::uint32_t>(rng.below(1ull << 22));
      offer.context_takeover = rng.chance(0.5);
      offer.target_rate_Bps = rng.below(1ull << 50);
      // Known ids, unknown small ids, and full-garbage u64s in one storm.
      offer.policy_id = rng.chance(0.6) ? rng.below(8) : rng();

      net::ServerPolicy policy;
      policy.methods.clear();
      const std::size_t m = rng.below(pool.size() + 1);
      for (std::size_t k = 0; k < m; ++k) {
        policy.methods.push_back(pool[rng.below(pool.size())]);
      }
      policy.min_block_size =
          static_cast<std::uint32_t>(rng.below(1 << 20));
      policy.max_block_size =
          policy.min_block_size +
          static_cast<std::uint32_t>(rng.below(1 << 22));
      policy.max_expansion_slack =
          static_cast<std::uint32_t>(rng.below(1 << 16));
      policy.allow_context_takeover = rng.chance(0.5);
      policy.max_target_rate_Bps = rng.below(1ull << 50);
      if (rng.chance(0.3)) {
        // Server allows only a random subset of policies.
        policy.policies.clear();
        for (const adaptive::DecisionPolicy p : adaptive::all_policies()) {
          if (rng.chance(0.5)) policy.policies.push_back(p);
        }
      }

      ++inputs;
      try {
        const net::NegotiatedParams result = net::negotiate(offer, policy);
        if (result.methods.empty()) {
          finding("negotiate", "empty negotiated method list");
        }
        if (!adaptive::known_policy(offer.policy_id)) {
          finding("negotiate", "unknown policy id accepted");
        } else if (static_cast<std::uint64_t>(result.policy) !=
                   offer.policy_id) {
          finding("negotiate", "negotiated policy differs from the offer");
        }
        if (result.block_size < policy.min_block_size ||
            result.block_size > policy.max_block_size) {
          finding("negotiate", "block size escaped the policy window");
        }
        if (result.expansion_slack > policy.max_expansion_slack) {
          finding("negotiate", "slack above the policy cap");
        }
        if (result.context_takeover &&
            !(offer.context_takeover && policy.allow_context_takeover)) {
          finding("negotiate", "context takeover granted unilaterally");
        }
        for (const MethodId method : result.methods) {
          const bool offered =
              std::find(offer.methods.begin(), offer.methods.end(),
                        method) != offer.methods.end();
          if (method != MethodId::kNone && !offered) {
            finding("negotiate", "negotiated a method the client never "
                                 "offered");
          }
        }
      } catch (const net::HandshakeError&) {
        // Typed rejects are legal outcomes of adversarial pairs.
      } catch (const std::exception& e) {
        finding("negotiate", std::string("non-handshake escape: ") +
                                 e.what());
      }
    }
    std::fprintf(stderr,
                 "acexfuzz: handshake round %zu/%zu: %zu inputs so far\n",
                 round + 1, opt.seed_rounds, inputs);
  }

  std::printf(
      "handshake: %zu inputs, %zu findings, seed %llu, %d iters/target\n",
      inputs, findings, static_cast<unsigned long long>(opt.seed), iters);
  return findings == 0 ? 0 : 1;
}

// -------------------------------------------------- shm descriptor battery
/// Shared-memory hardening oracle (DESIGN.md §16): a slab descriptor is
/// the only thing that crosses the wire on the shm path, so a flipped bit
/// in one must never be dereferenced into the arena — and a segment whose
/// header lies about its geometry must be rejected before a slab is
/// touched. Three storms, one seed, zero tolerated escapes.
int run_shm(const Options& opt) {
  const int iters = opt.iters > 0 ? opt.iters : qa::fuzz_iterations(120);
  std::size_t inputs = 0;
  std::size_t findings = 0;
  const auto finding = [&](const char* tag, const std::string& detail) {
    ++findings;
    std::fprintf(stderr, "acexfuzz: FINDING [shm.%s] %s\n", tag,
                 detail.c_str());
  };

  for (std::size_t round = 0; round < opt.seed_rounds; ++round) {
    const std::uint64_t seed = opt.seed + round;
    Rng rng(seed ^ 0x51AB51AB51AB51ABull);

    // --- storm 1: descriptor wire mutation through a live endpoint ---
    shm::ShmBusConfig cfg;
    cfg.ring.slab_count = 8;
    cfg.ring.slab_size = 4096;
    cfg.ring.reclaim_wait = 0;
    cfg.queue_capacity = 64;
    shm::ShmBus bus(cfg);
    const auto ep = bus.endpoint();

    for (int i = 0; i < iters; ++i) {
      Bytes payload(1 + rng.below(512));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));

      // The clean path first: a staged payload's descriptor must decode
      // to a fixpoint and round-trip the payload byte-exact.
      const BufferView staged = bus.stage(payload);
      const auto desc = bus.ring().descriptor_of(staged);
      if (!desc) {
        finding("descriptor", "staged view has no descriptor");
        continue;
      }
      const Bytes wire = shm::encode_descriptor(*desc);
      ++inputs;
      try {
        const shm::SlabDescriptor back = shm::decode_descriptor(wire);
        if (back.offset != desc->offset || back.length != desc->length ||
            back.generation != desc->generation) {
          finding("fixpoint", "descriptor decode is not a fixpoint");
        }
      } catch (const std::exception& e) {
        finding("fixpoint", std::string("clean descriptor rejected: ") +
                                e.what());
      }

      // Mutation battery: bit flips, truncation, varint mangling. A raw
      // decode may fail ONLY with DecodeError; an injected wire may only
      // be counted and skipped by the endpoint, never thrown.
      Bytes evil;
      switch (rng.below(3)) {
        case 0:
          evil = qa::mutate(wire, rng);
          break;
        case 1:
          evil = wire;
          evil.resize(rng.below(evil.size() + 1));
          break;
        default:
          evil = qa::mutate_varint_at(wire, rng.below(wire.size() + 1), rng);
          break;
      }
      if (evil == wire) evil.push_back(0x00);  // force a real mutation
      ++inputs;
      try {
        (void)shm::decode_descriptor(evil);
      } catch (const DecodeError&) {
        // the one sanctioned outcome for garbage
      } catch (const std::exception& e) {
        finding("decode", std::string("non-typed escape: ") + e.what());
      }

      const shm::ShmEndpointStats before = ep->stats();
      ep->inject_raw(evil);
      try {
        while (ep->receive_buffer()) {
        }
      } catch (const std::exception& e) {
        finding("receive", std::string("receive threw on injected wire: ") +
                               e.what());
      }
      const shm::ShmEndpointStats after = ep->stats();
      if (after.corrupt_descriptors + after.stale_descriptors +
              after.received ==
          before.corrupt_descriptors + before.stale_descriptors +
              before.received) {
        finding("accounting", "injected wire vanished without being counted");
      }
    }

    // --- storm 2: forged SlabDescriptor structs against the ring ---
    for (int i = 0; i < iters; ++i) {
      shm::SlabDescriptor forged;
      forged.offset = rng.chance(0.5) ? rng.below(1ull << 40)
                                      : rng.below(16) * cfg.ring.slab_size;
      forged.length = static_cast<std::uint32_t>(rng.below(1ull << 20));
      forged.generation = static_cast<std::uint32_t>(rng.below(8));
      ++inputs;
      try {
        const BufferView view = bus.ring().resolve(forged);
        // A lucky forgery that resolves must still stay inside the arena.
        const auto* base = static_cast<const std::uint8_t*>(
            bus.segment().data());
        if (view.data() < base || view.data() + view.size() >
                                      base + bus.segment().size()) {
          finding("resolve", "resolved view escapes the segment");
        }
      } catch (const shm::ShmError&) {
        // typed rejection (including ShmStaleError) is the contract
      } catch (const std::exception& e) {
        finding("resolve", std::string("non-typed escape: ") + e.what());
      }
      (void)bus.ring().add_ref(forged);   // must never crash or throw
      bus.ring().drop_ref(forged);        // noexcept no-op on garbage
    }

    // --- storm 3: truncated / forged-header segment attach sweep ---
    for (int i = 0; i < iters; ++i) {
      ++inputs;
      try {
        switch (rng.below(3)) {
          case 0: {  // random garbage pretending to be a ring
            shm::ShmSegment junk =
                shm::ShmSegment::anonymous(1 + rng.below(8192));
            auto* bytes = static_cast<std::uint8_t*>(junk.data());
            for (std::size_t k = 0; k < junk.size(); ++k) {
              bytes[k] = static_cast<std::uint8_t>(rng.below(256));
            }
            shm::SlabRing attached(junk, cfg.ring, /*attach=*/true);
            finding("attach", "garbage segment attached as a ring");
            break;
          }
          case 1: {  // valid ring, then a header field forged
            shm::RingConfig small;
            small.slab_count = 2;
            small.slab_size = 256;
            shm::ShmSegment seg = shm::ShmSegment::anonymous(
                shm::SlabRing::segment_size(small));
            shm::SlabRing ring(seg, small);
            auto* header = static_cast<std::uint32_t*>(seg.data());
            // magic, version, slab_count, or slab_size — all must be
            // caught by validation, not by a wild slab dereference.
            header[rng.below(4)] ^= static_cast<std::uint32_t>(
                1u + rng.below(0xFFFFFFFFull));
            shm::SlabRing attached(seg, small, /*attach=*/true);
            // Survivable only if the forgery kept the geometry inside
            // the mapping (e.g. slab_count shrank): that is legal.
            if (shm::SlabRing::segment_size(
                    {attached.slab_count(), attached.slab_size()}) >
                seg.size()) {
              finding("attach", "forged header over-claims the mapping");
            }
            break;
          }
          default: {  // segment physically shorter than the ring header
            shm::ShmSegment stub =
                shm::ShmSegment::anonymous(1 + rng.below(63));
            shm::SlabRing attached(stub, cfg.ring, /*attach=*/true);
            finding("attach", "sub-header segment attached as a ring");
            break;
          }
        }
      } catch (const shm::ShmError&) {
        // typed rejection is the expected outcome for every branch
      } catch (const std::exception& e) {
        finding("attach", std::string("non-typed escape: ") + e.what());
      }
    }
  }

  std::printf("shm: %zu inputs, %zu findings (seeds %zu, %d iters)\n",
              inputs, findings, opt.seed_rounds, iters);
  return findings == 0 ? 0 : 1;
}

// ------------------------------------------- replay / emit / minimize / corpus
/// Deterministic single input for -s SEED: pick an artifact class and
/// apply one structure-aware mutation. Pure function of the seed.
Bytes emit_input(const Options& opt) {
  Rng rng(opt.seed);
  const auto payloads = qa::seed_payloads(opt.size, opt.seed);
  const auto& chosen = payloads[rng.below(payloads.size())];
  switch (rng.below(4)) {
    case 0: {  // mutated codec container
      const auto& methods = paper_methods();
      const CodecPtr codec = make_codec(methods[rng.below(methods.size())]);
      return qa::mutate_container(codec->compress(chosen.data), rng);
    }
    case 1: {  // mutated frame
      const auto& methods = paper_methods();
      const CodecPtr codec = make_codec(methods[rng.below(methods.size())]);
      return qa::mutate_frame(
          frame_compress_seq(*codec, chosen.data, rng.below(1 << 20)), rng);
    }
    case 2:  // mutated PBIO stream
      return qa::mutate_pbio(qa::seed_pbio_stream(opt.seed), rng);
    default:  // mutated event wire image
      return qa::mutate(qa::seed_event_wire(opt.seed), rng);
  }
}

int run_replay_one(const Bytes& input, const std::string& label) {
  int failures = 0;
  std::printf("replay %s: %zu bytes, crc32 %08x\n", label.c_str(),
              input.size(), crc32(input));
  for (const auto& [name, verdict] : battery(input)) {
    std::printf("  %-22s %s%s%s\n", name.c_str(),
                verdict.ok ? "ok" : "FINDING", verdict.ok ? "" : ": ",
                verdict.detail.c_str());
    if (!verdict.ok) ++failures;
  }
  return failures;
}

int run_replay(const Options& opt) {
  const Bytes input = qa::Corpus::load(opt.path);
  return run_replay_one(input, opt.path) == 0 ? 0 : 1;
}

int run_emit(const Options& opt) {
  const Bytes input = emit_input(opt);
  std::ofstream out(opt.path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot create " + opt.path);
  out.write(reinterpret_cast<const char*>(input.data()),
            static_cast<std::streamsize>(input.size()));
  if (!out) throw IoError("failed writing " + opt.path);
  std::printf("emit %s: %zu bytes, crc32 %08x, seed %llu\n", opt.path.c_str(),
              input.size(), crc32(input),
              static_cast<unsigned long long>(opt.seed));
  return 0;
}

int run_minimize(const Options& opt) {
  const Bytes input = qa::Corpus::load(opt.path);
  const auto fails_somewhere = [](const Bytes& candidate) {
    for (const auto& [name, verdict] : battery(candidate)) {
      if (!verdict.ok) return true;
    }
    return false;
  };
  if (!fails_somewhere(input)) {
    std::fprintf(stderr,
                 "acexfuzz: %s triggers no finding; nothing to minimize\n",
                 opt.path.c_str());
    return 1;
  }
  const Bytes minimal = qa::minimize(input, fails_somewhere);
  const std::string out_path = opt.path + ".min";
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot create " + out_path);
  out.write(reinterpret_cast<const char*>(minimal.data()),
            static_cast<std::streamsize>(minimal.size()));
  if (!out) throw IoError("failed writing " + out_path);
  std::printf("minimize: %zu -> %zu bytes, wrote %s\n", input.size(),
              minimal.size(), out_path.c_str());
  return 0;
}

int run_corpus(const Options& opt) {
  const qa::Corpus corpus(opt.path);
  const std::vector<std::string> entries = corpus.files();
  int failures = 0;
  for (const std::string& path : entries) {
    failures += run_replay_one(qa::Corpus::load(path), path);
  }
  std::printf("corpus: %zu entries, %d findings\n", entries.size(), failures);
  return failures == 0 ? 0 : 1;
}

int run(const Options& opt) {
  switch (opt.mode) {
    case Mode::kSmoke:    return run_smoke(opt);
    case Mode::kDiff:     return run_diff(opt);
    case Mode::kColpipe:  return run_colpipe(opt);
    case Mode::kSoak:     return run_soak_mode(opt);
    case Mode::kChaos:    return run_chaos_mode(opt);
    case Mode::kHandshake: return run_handshake(opt);
    case Mode::kShm:      return run_shm(opt);
    case Mode::kReplay:   return run_replay(opt);
    case Mode::kEmit:     return run_emit(opt);
    case Mode::kMinimize: return run_minimize(opt);
    case Mode::kCorpus:   return run_corpus(opt);
    case Mode::kNone:     break;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
        return argv[++i];
      };
      const auto set_mode = [&](Mode mode) {
        if (opt.mode != Mode::kNone) {
          throw ConfigError("exactly one mode flag is allowed");
        }
        opt.mode = mode;
      };
      if (arg == "--smoke") {
        set_mode(Mode::kSmoke);
      } else if (arg == "--diff") {
        set_mode(Mode::kDiff);
      } else if (arg == "--colpipe") {
        set_mode(Mode::kColpipe);
      } else if (arg == "--soak") {
        set_mode(Mode::kSoak);
        opt.soak_seconds = std::stod(next());
        if (opt.soak_seconds < 0) throw ConfigError("--soak must be >= 0");
      } else if (arg == "--chaos") {
        set_mode(Mode::kChaos);
        opt.chaos_seconds = std::stod(next());
        if (opt.chaos_seconds < 0) throw ConfigError("--chaos must be >= 0");
        opt.soak_rounds = 24;  // chaos default; --rounds overrides
      } else if (arg == "--handshake") {
        set_mode(Mode::kHandshake);
      } else if (arg == "--shm") {
        set_mode(Mode::kShm);
      } else if (arg == "--replay") {
        set_mode(Mode::kReplay);
        opt.path = next();
      } else if (arg == "--emit") {
        set_mode(Mode::kEmit);
        opt.path = next();
      } else if (arg == "--minimize") {
        set_mode(Mode::kMinimize);
        opt.path = next();
      } else if (arg == "--corpus") {
        set_mode(Mode::kCorpus);
        opt.path = next();
      } else if (arg == "-s") {
        opt.seed = std::stoull(next());
      } else if (arg == "--iters") {
        opt.iters = std::stoi(next());
        if (opt.iters <= 0) throw ConfigError("--iters must be > 0");
      } else if (arg == "--seeds") {
        opt.seed_rounds = std::stoul(next());
        if (opt.seed_rounds == 0) throw ConfigError("--seeds must be > 0");
      } else if (arg == "--size") {
        opt.size = std::stoul(next());
        if (opt.size == 0) throw ConfigError("--size must be > 0");
      } else if (arg == "-b") {
        opt.block_size = std::stoul(next());
        if (opt.block_size == 0) throw ConfigError("-b must be > 0");
      } else if (arg == "-n") {
        opt.diff_blocks = std::stoul(next());
        if (opt.diff_blocks == 0) throw ConfigError("-n must be > 0");
      } else if (arg == "-w") {
        opt.workers = std::stoul(next());
        if (opt.workers == 0) throw ConfigError("-w must be > 0");
      } else if (arg == "--rounds") {
        opt.soak_rounds = std::stoul(next());
      } else if (arg == "--broker") {
        opt.broker_subscribers = std::stoul(next());
        if (opt.broker_subscribers == 0) {
          throw ConfigError("--broker must be > 0");
        }
      } else if (arg == "--churn") {
        opt.broker_churn = std::stoul(next());
      } else if (arg == "--sessions") {
        opt.chaos_sessions = std::stoul(next());
        if (opt.chaos_sessions == 0) throw ConfigError("--sessions must be > 0");
      } else if (arg == "--out") {
        opt.out_dir = next();
      } else {
        return usage();
      }
    }
    if (opt.mode == Mode::kNone) return usage();
    return run(opt);
  } catch (const acex::Error& e) {
    std::fprintf(stderr, "acexfuzz: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acexfuzz: internal error: %s\n", e.what());
    return 2;
  }
}
