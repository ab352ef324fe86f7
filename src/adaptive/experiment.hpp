#pragma once

#include <string>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "netsim/link.hpp"
#include "netsim/load_trace.hpp"

namespace acex::adaptive {

/// Scenario description for the §4.2 application experiments: stream a
/// dataset over an emulated, trace-loaded link and record what the
/// adaptive machinery does — the harness behind Figs. 8–12 and the
/// headline totals, shared by benches and tests.
struct ExperimentConfig {
  netsim::LinkParams link = netsim::fast_ethernet_link();
  /// Background load applied to the link (the paper's "MBone trace ...
  /// multiplied by a factor of 4"); empty = unloaded link.
  netsim::LoadTrace background;
  AdaptiveConfig adaptive;
  std::uint64_t seed = 1;

  /// Producer pacing: virtual seconds between successive block
  /// submissions. The paper's application experiments stream transactions
  /// at an application rate across the 160 s trace rather than saturating
  /// the link; 0 (default) submits blocks back-to-back.
  Seconds pace = 0;
  /// Emulated reverse path for acks/control (fast and symmetric is fine;
  /// the paper's links are full duplex).
  netsim::LinkParams reverse_link = netsim::fast_ethernet_link();

  /// When false, the sender's adaptation context (reducing-speed monitor,
  /// bandwidth estimate, sampler drift) is reset before every block and
  /// async sampling is pinned off — the per-block-reset streaming variant
  /// a context_takeover=false handshake implies. Decisions then run every
  /// block on first-block assumptions; the scenario matrix uses this to
  /// measure what the carried context is actually worth.
  bool context_takeover = true;
};

/// One policy's end-to-end outcome on a scenario.
struct ExperimentResult {
  std::string policy;  ///< "adaptive", "none", "lempel-ziv", ...
  StreamReport stream;
  bool verified = false;  ///< receiver reassembled exactly the input
};

/// Run the adaptive policy on `data` under `config`; the returned stream's
/// BlockReports carry (virtual) timestamps, chosen methods, compression
/// times, and wire sizes — i.e. the series plotted in Figs. 8, 9, 10.
ExperimentResult run_adaptive(ByteView data, const ExperimentConfig& config);

/// Run a fixed-method baseline on the same scenario.
ExperimentResult run_fixed(ByteView data, const ExperimentConfig& config,
                           MethodId method);

/// Adaptive plus the standard baselines (none / LZ / BW), in that order —
/// the comparison the paper's §5 headline numbers summarize.
std::vector<ExperimentResult> run_policy_comparison(
    ByteView data, const ExperimentConfig& config);

}  // namespace acex::adaptive
