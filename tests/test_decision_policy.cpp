// The multi-objective decision scorer (DESIGN.md §15): golden regression
// pinning the kBandwidth default to the original engine's fig08/fig11
// selections, pure-function property tests over policy_utility /
// decide_policy, and path-identity checks across the serial, parallel, and
// broker (shared-sample) planning paths.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adaptive/experiment.hpp"
#include "adaptive/pipeline.hpp"
#include "fixtures.hpp"
#include "netsim/link.hpp"
#include "netsim/load_trace.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/molecular.hpp"
#include "workloads/tensor.hpp"
#include "workloads/transactions.hpp"

namespace acex::adaptive {
namespace {

// ----------------------------------------------------------------- golden

/// One character per block: the §2.5 rule's method choice.
char method_char(MethodId m) {
  switch (m) {
    case MethodId::kNone: return '0';
    case MethodId::kHuffman: return 'h';
    case MethodId::kLempelZiv: return 'l';
    case MethodId::kBurrowsWheeler: return 'b';
    default: return '?';
  }
}

/// Replay the fig08/fig11 decision trace analytically: per block, the link's
/// deterministic pre-jitter effective bandwidth at t = 3·index seconds
/// (paced to sweep the MBone trace's load swings), the paper's calibrated
/// Sun-Fire LZ reducing speed, and the real 4 KiB sampler ratio. Every term
/// is a pure function of (data, link params, trace), so the sequence is
/// machine-independent — pinnable as test data. Also asserts, block by
/// block, that decide_policy under the default policy is bit-identical to
/// decide().
std::string bandwidth_sequence(ByteView data, netsim::SimLink& link) {
  const DecisionParams params;  // paper defaults, policy = kBandwidth
  const Sampler sampler;
  std::string out;
  std::size_t index = 0;
  for (std::size_t off = 0; off < data.size();
       off += params.block_size, ++index) {
    const ByteView block = data.subspan(
        off, std::min(params.block_size, data.size() - off));
    SelectionInputs inputs;
    const double bw =
        link.effective_bandwidth(3.0 * static_cast<double>(index));
    inputs.send_seconds = static_cast<double>(block.size()) / bw;
    inputs.lz_reduce_seconds =
        static_cast<double>(block.size()) / kPaperLzReducingBps;
    inputs.sampled_ratio_percent = sampler.sample(block).ratio_percent;
    const MethodId rule = decide(inputs, params);
    EXPECT_EQ(decide_policy(inputs, params), rule)
        << "kBandwidth diverged from decide() at block " << index;
    out.push_back(method_char(rule));
  }
  return out;
}

netsim::SimLink fig_link(const netsim::LoadTrace& trace) {
  netsim::LinkParams link = netsim::fast_ethernet_link();
  link.jitter_frac = 0.02;
  link.share_per_connection = 0.014;
  netsim::SimLink sim(link, 1);
  sim.set_background(&trace);
  return sim;
}

TEST(DecisionGolden, Fig08CommercialSelectionsPinned) {
  workloads::TransactionGenerator gen(2004);
  const Bytes data = gen.text_block(48 * 128 * 1024);
  const netsim::LoadTrace trace = netsim::mbone_trace().scaled(4.0);
  netsim::SimLink link = fig_link(trace);
  const std::string sequence = bandwidth_sequence(data, link);
  // Pinned from the pre-refactor engine: the §2.5 rule on the commercial
  // stream over the MBone x4-loaded 100 Mb link. '0'=none 'h'=huffman
  // 'l'=LZ 'b'=BW. Any diff here means the DEFAULT policy changed.
  EXPECT_EQ(sequence, "0000000000000llllllllbblllbbbblbbblllll000000000");
}

TEST(DecisionGolden, Fig11MolecularSelectionsPinned) {
  workloads::MolecularConfig config;
  config.atom_count = 4096;
  config.seed = 2004;
  workloads::MolecularGenerator gen(config);
  const Bytes data = gen.stream(48);
  const netsim::LoadTrace trace = netsim::mbone_trace().scaled(4.0);
  netsim::SimLink link = fig_link(trace);
  const std::string sequence = bandwidth_sequence(data, link);
  // The MD stream lacks string repetitions (ratio above the cut), so when
  // the loaded link makes compression pay at all, Huffman is the §2.5
  // answer — never LZ/BW, unlike the commercial trace above.
  EXPECT_EQ(sequence, "0000000000000hhhhhhhhhhhhhhhhhhhhhhhhhh0000000000");
}

// ------------------------------------------------------- pure properties

SelectionInputs random_inputs(Rng& rng) {
  SelectionInputs inputs;
  inputs.block_bytes = 1u << (10 + rng.below(8));  // 1 KiB .. 128 KiB
  inputs.bandwidth_Bps = 1e4 + rng.uniform() * 1e8;
  inputs.send_seconds =
      static_cast<double>(inputs.block_bytes) / inputs.bandwidth_Bps;
  inputs.lz_reduce_seconds = rng.uniform() * 0.2;
  inputs.sampled_ratio_percent = rng.uniform() * 120.0;
  inputs.target_rate_Bps = rng.chance(0.5) ? rng.uniform() * 1e7 : 0.0;
  for (std::size_t rung = 0; rung < kDecisionLadder.size(); ++rung) {
    inputs.estimates[rung].ratio = rung == 0 ? 1.0 : rng.uniform() * 1.2;
    inputs.estimates[rung].encode_seconds =
        rung == 0 ? 0.0 : rng.uniform() * 0.5;
  }
  return inputs;
}

const std::vector<DecisionPolicy>& scored_policies() {
  static const std::vector<DecisionPolicy> kScored = {
      DecisionPolicy::kCpuEfficiency, DecisionPolicy::kEnergyProxy,
      DecisionPolicy::kTargetRate};
  return kScored;
}

TEST(DecisionPolicyProperties, UtilityNonIncreasingInRatio) {
  Rng rng(41);
  for (int iter = 0; iter < 500; ++iter) {
    SelectionInputs inputs = random_inputs(rng);
    const std::size_t rung = 1 + rng.below(kDecisionLadder.size() - 1);
    for (const DecisionPolicy policy : scored_policies()) {
      DecisionParams params;
      params.policy = policy;
      const double before = policy_utility(inputs, params, rung);
      SelectionInputs worse = inputs;
      worse.estimates[rung].ratio += 0.05 + rng.uniform() * 0.5;
      const double after = policy_utility(worse, params, rung);
      EXPECT_LE(after, before)
          << policy_name(policy) << " rewarded a worse ratio";
    }
  }
}

TEST(DecisionPolicyProperties, UtilityNonIncreasingInCpu) {
  Rng rng(43);
  for (int iter = 0; iter < 500; ++iter) {
    SelectionInputs inputs = random_inputs(rng);
    const std::size_t rung = 1 + rng.below(kDecisionLadder.size() - 1);
    for (const DecisionPolicy policy : scored_policies()) {
      DecisionParams params;
      params.policy = policy;
      const double before = policy_utility(inputs, params, rung);
      SelectionInputs worse = inputs;
      worse.estimates[rung].encode_seconds += 0.01 + rng.uniform();
      const double after = policy_utility(worse, params, rung);
      EXPECT_LE(after, before)
          << policy_name(policy) << " rewarded more CPU";
    }
  }
}

TEST(DecisionPolicyProperties, BetterRatioAtEqualCpuNeverLoses) {
  // The satellite wording verbatim: at equal CPU, improving a candidate's
  // ratio can only improve (or keep) its rank against a fixed rival.
  Rng rng(47);
  for (int iter = 0; iter < 500; ++iter) {
    SelectionInputs inputs = random_inputs(rng);
    const std::size_t rung = 1 + rng.below(kDecisionLadder.size() - 1);
    for (const DecisionPolicy policy : scored_policies()) {
      DecisionParams params;
      params.policy = policy;
      SelectionInputs better = inputs;
      better.estimates[rung].ratio =
          std::max(0.0, inputs.estimates[rung].ratio - 0.1);
      EXPECT_GE(policy_utility(better, params, rung),
                policy_utility(inputs, params, rung));
    }
  }
}

TEST(DecisionPolicyProperties, PureFunctionAndAlwaysOnLadder) {
  Rng rng(53);
  for (int iter = 0; iter < 1000; ++iter) {
    const SelectionInputs inputs = random_inputs(rng);
    for (const DecisionPolicy policy : all_policies()) {
      DecisionParams params;
      params.policy = policy;
      const MethodId first = decide_policy(inputs, params);
      EXPECT_EQ(decide_policy(inputs, params), first);
      EXPECT_LT(decision_ladder_rung(first), kDecisionLadder.size())
          << policy_name(policy) << " left the ladder";
    }
  }
}

TEST(DecisionPolicyProperties, BandwidthPolicyBitIdenticalToRule) {
  Rng rng(59);
  for (int iter = 0; iter < 2000; ++iter) {
    const SelectionInputs inputs = random_inputs(rng);
    const DecisionParams params;  // kBandwidth
    EXPECT_EQ(decide_policy(inputs, params), decide(inputs, params));
  }
}

TEST(DecisionPolicyProperties, BandwidthUtilityThrows) {
  const SelectionInputs inputs;
  const DecisionParams params;  // kBandwidth is rule-based, not scored
  EXPECT_THROW(policy_utility(inputs, params, 0), ConfigError);
  DecisionParams scored;
  scored.policy = DecisionPolicy::kEnergyProxy;
  EXPECT_THROW(policy_utility(inputs, scored, kDecisionLadder.size()),
               ConfigError);
}

TEST(DecisionPolicyProperties, NullCodecWinsOnIncompressibleData) {
  // Incompressible estimates: every method achieves ratio ~1 at real CPU
  // cost. No objective may pick anything but the null codec.
  SelectionInputs inputs;
  inputs.block_bytes = 128 * 1024;
  inputs.bandwidth_Bps = 1e6;
  inputs.send_seconds = 0.13;
  inputs.sampled_ratio_percent = 100.0;
  for (std::size_t rung = 0; rung < kDecisionLadder.size(); ++rung) {
    inputs.estimates[rung].ratio = 1.0;
    inputs.estimates[rung].encode_seconds = rung == 0 ? 0.0 : 0.05;
  }
  for (const DecisionPolicy policy : scored_policies()) {
    DecisionParams params;
    params.policy = policy;
    EXPECT_EQ(decide_policy(inputs, params), MethodId::kNone)
        << policy_name(policy);
  }
}

TEST(DecisionPolicyProperties, ValidateRejectsBadPolicyParams) {
  DecisionParams params;
  params.min_saving_per_cpu_us = -1.0;
  EXPECT_THROW(params.validate(), ConfigError);
  params = DecisionParams{};
  params.energy_wire_weight = -1e-9;
  EXPECT_THROW(params.validate(), ConfigError);
  params = DecisionParams{};
  params.policy = static_cast<DecisionPolicy>(200);
  EXPECT_THROW(params.validate(), ConfigError);
}

TEST(DecisionPolicyNames, RoundTripAndKnownness) {
  for (const DecisionPolicy policy : all_policies()) {
    EXPECT_TRUE(known_policy(static_cast<std::uint64_t>(policy)));
    EXPECT_NE(policy_name(policy), "?");
  }
  EXPECT_FALSE(known_policy(99));
  EXPECT_EQ(all_policies().size(), 4u);
}

// ----------------------------------------------- policy-specific behaviour

SelectionInputs slow_link_inputs() {
  // 128 KiB over a ~1 MB/s link; candidate estimates with the usual shape:
  // stronger method, better ratio, more CPU.
  SelectionInputs inputs;
  inputs.block_bytes = 128 * 1024;
  inputs.bandwidth_Bps = 1e6;
  inputs.send_seconds = 0.131;
  inputs.sampled_ratio_percent = 40.0;
  inputs.estimates[0] = {1.0, 0.0};
  inputs.estimates[1] = {0.65, 0.01};  // Huffman
  inputs.estimates[2] = {0.40, 0.04};  // LZ
  inputs.estimates[3] = {0.30, 0.20};  // BW
  return inputs;
}

TEST(DecisionTargetRate, NoFloorMeansMinimumCpu) {
  SelectionInputs inputs = slow_link_inputs();
  inputs.target_rate_Bps = 0;
  DecisionParams params;
  params.policy = DecisionPolicy::kTargetRate;
  // Every candidate qualifies vacuously; the null codec has the least CPU.
  EXPECT_EQ(decide_policy(inputs, params), MethodId::kNone);
}

TEST(DecisionTargetRate, PicksCheapestQualifier) {
  SelectionInputs inputs = slow_link_inputs();
  inputs.target_rate_Bps = 2.0e6;
  DecisionParams params;
  params.policy = DecisionPolicy::kTargetRate;
  // Effective rates: none 1.0 MB/s, Huffman 1.54, LZ 2.5, BW 0.64 (CPU
  // bound at 128KiB/0.2s). Only LZ clears 2 MB/s.
  EXPECT_EQ(decide_policy(inputs, params), MethodId::kLempelZiv);
}

TEST(DecisionTargetRate, BestEffortStrongestRateWhenNoneQualifies) {
  SelectionInputs inputs = slow_link_inputs();
  inputs.target_rate_Bps = 1e9;  // unreachable
  DecisionParams params;
  params.policy = DecisionPolicy::kTargetRate;
  // Best effective rate wins: LZ's 2.5 MB/s beats every alternative.
  EXPECT_EQ(decide_policy(inputs, params), MethodId::kLempelZiv);
}

TEST(DecisionCpuEfficiency, FloorKillsMarginalSavings) {
  SelectionInputs inputs = slow_link_inputs();
  // Make every compression marginal: tiny savings, heavy CPU.
  for (std::size_t rung = 1; rung < kDecisionLadder.size(); ++rung) {
    inputs.estimates[rung].ratio = 0.99;
    inputs.estimates[rung].encode_seconds = 0.5;
  }
  DecisionParams params;
  params.policy = DecisionPolicy::kCpuEfficiency;
  EXPECT_EQ(decide_policy(inputs, params), MethodId::kNone);
  // Drop the floor to zero and the (tiny) saving is pure profit again.
  params.min_saving_per_cpu_us = 0.0;
  EXPECT_NE(decide_policy(inputs, params), MethodId::kNone);
}

TEST(DecisionEnergyProxy, WeightsShiftTheChoice) {
  const SelectionInputs inputs = slow_link_inputs();
  DecisionParams params;
  params.policy = DecisionPolicy::kEnergyProxy;
  // Wire-dominated deployment (radio): strongest ratio wins.
  params.energy_cpu_weight = 1e-3;
  params.energy_wire_weight = 1e-3;
  EXPECT_EQ(decide_policy(inputs, params), MethodId::kBurrowsWheeler);
  // CPU-dominated deployment (datacenter LAN): the wire is nearly free.
  params.energy_cpu_weight = 10.0;
  params.energy_wire_weight = 1e-9;
  EXPECT_EQ(decide_policy(inputs, params), MethodId::kNone);
}

// ------------------------------------------------ cross-path determinism

AdaptiveConfig policy_config(DecisionPolicy policy, std::size_t workers) {
  AdaptiveConfig config;
  config.async_sampling = false;
  config.decision.block_size = 4096;
  config.decision.sample_size = 1024;
  config.decision.policy = policy;
  // Pin the scored policies into their ratio-dominated regime: ratio
  // estimates are pure functions of the bytes, so decisions stay identical
  // across serial/parallel/broker paths regardless of encode noise. The
  // CPU terms are covered by the pure-function tests above.
  config.decision.min_saving_per_cpu_us = 0.0;
  config.decision.energy_cpu_weight = 0.0;
  // Charge Fig. 4's model, not the wall clock: under a sanitizer or a
  // loaded ctest -j the measured speeds swing enough to flip the §2.5
  // first test, and the serial and pooled senders would disagree.
  config.cpu_meter = CpuMeter::paper_model();
  config.worker_threads = workers;
  return config;
}

std::vector<MethodId> methods_of(const StreamReport& stream) {
  std::vector<MethodId> out;
  for (const auto& b : stream.blocks) out.push_back(b.method);
  return out;
}

TEST(DecisionPolicyPaths, SerialAndParallelPickIdenticalMethods) {
  workloads::TransactionGenerator gen(11);
  const Bytes data = gen.text_block(32 * 4096);
  for (const DecisionPolicy policy : all_policies()) {
    SimWire serial_wire(1e6);
    AdaptiveSender serial(serial_wire.duplex.a(), policy_config(policy, 1));
    const auto serial_methods = methods_of(serial.send_all(data));

    SimWire parallel_wire(1e6);
    AdaptiveSender parallel(parallel_wire.duplex.a(), policy_config(policy, 4));
    const auto parallel_methods = methods_of(parallel.send_all(data));

    EXPECT_EQ(serial_methods, parallel_methods)
        << "policy " << policy_name(policy)
        << " diverged between serial and parallel paths";
    AdaptiveReceiver receiver(parallel_wire.duplex.b());
    EXPECT_EQ(receiver.receive_available(), data);
  }
}

TEST(DecisionPolicyPaths, SharedSamplePlansMatchInlinePlans) {
  // The broker path: one sample source shared across subscribers via
  // plan_block_sampled must produce the same decision the inline
  // plan_block path makes from its own identical sample, block by block —
  // what keeps a broker subscriber byte-identical to a private sender.
  // Both senders charge Fig. 4's model (policy_config), so neither folds
  // its own wall timing of its sample. On the fast link the kBandwidth
  // paths read no sample after the first block; the scored policies read
  // every one.
  workloads::TransactionGenerator gen(13);
  const Bytes data = gen.text_block(16 * 4096);
  const Sampler sampler(1024);
  for (const double link_Bps : {1e6, 1e9}) {
    for (const DecisionPolicy policy : all_policies()) {
      const AdaptiveConfig config = policy_config(policy, 1);
      SimWire wire_a(link_Bps), wire_b(link_Bps);
      AdaptiveSender inline_sender(wire_a.duplex.a(), config);
      AdaptiveSender shared_sender(wire_b.duplex.a(), config);
      for (std::size_t off = 0; off < data.size(); off += 4096) {
        const ByteView block = ByteView(data).subspan(off, 4096);
        const std::uint64_t samples_before = samples_taken();
        const BlockPlan inline_plan = inline_sender.plan_block(block);
        const bool inline_read = samples_taken() != samples_before;
        SampleSource shared(sampler, block);
        const BlockPlan shared_plan =
            shared_sender.plan_block_sampled(block, shared);
        const std::string where = "policy " +
                                  std::string(policy_name(policy)) +
                                  " link " + std::to_string(link_Bps) +
                                  " block " + std::to_string(off / 4096);
        EXPECT_EQ(inline_plan.method, shared_plan.method) << where;
        EXPECT_EQ(inline_plan.sampled_ratio_percent,
                  shared_plan.sampled_ratio_percent)
            << where;
        EXPECT_EQ(inline_read, shared.was_read()) << where;
        if (link_Bps > 1e6 && policy == DecisionPolicy::kBandwidth &&
            off > 0) {
          EXPECT_FALSE(shared.was_read()) << where;
          EXPECT_EQ(shared_plan.method, MethodId::kNone) << where;
        }
        // Keep both senders' estimator state in lockstep.
        inline_sender.finish_block(
            inline_plan, block.size(),
            encode_block(inline_sender.registry(), block, inline_plan.method,
                         inline_plan.sequence, 64, true));
        shared_sender.finish_block(
            shared_plan, block.size(),
            encode_block(shared_sender.registry(), block, shared_plan.method,
                         shared_plan.sequence, 64, true));
      }
    }
  }
}

TEST(DecisionPolicyPaths, SubscribersWithDistinctPoliciesDiverge) {
  // Two subscribers on the SAME blocks and the SAME shared sample but
  // different negotiated policies: the per-subscriber plans must be free
  // to disagree. e4m3 tensor data is the separating workload — no string
  // repetitions (the §2.5 rule refuses to compress on a fast link), but
  // low entropy (the CPU-efficiency scorer happily buys Huffman).
  workloads::TensorGenerator gen(17);
  const Bytes data = gen.e4m3_block(16 * 4096);
  const Sampler sampler(1024);

  SimWire wire_a(5e7), wire_b(5e7);
  AdaptiveConfig bandwidth_config =
      policy_config(DecisionPolicy::kBandwidth, 1);
  bandwidth_config.initial_bandwidth_Bps = 5e7;
  AdaptiveConfig efficiency_config =
      policy_config(DecisionPolicy::kCpuEfficiency, 1);
  efficiency_config.initial_bandwidth_Bps = 5e7;
  AdaptiveSender bandwidth_sub(wire_a.duplex.a(), bandwidth_config);
  AdaptiveSender efficiency_sub(wire_b.duplex.a(), efficiency_config);

  std::size_t divergent = 0;
  for (std::size_t off = 0; off < data.size(); off += 4096) {
    const ByteView block = ByteView(data).subspan(off, 4096);
    SampleSource sample(sampler.sample(block));
    const BlockPlan a = bandwidth_sub.plan_block_sampled(block, sample);
    const BlockPlan b = efficiency_sub.plan_block_sampled(block, sample);
    if (a.method != b.method) ++divergent;
    bandwidth_sub.finish_block(
        a, block.size(),
        encode_block(bandwidth_sub.registry(), block, a.method, a.sequence,
                     64, true));
    efficiency_sub.finish_block(
        b, block.size(),
        encode_block(efficiency_sub.registry(), block, b.method, b.sequence,
                     64, true));
  }
  EXPECT_GT(divergent, 0u)
      << "policies never disagreed — the objective is not actually plugged "
         "into per-subscriber planning";
}

}  // namespace
}  // namespace acex::adaptive
