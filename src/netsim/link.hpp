#pragma once

#include <optional>
#include <string>

#include "netsim/load_trace.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace acex::netsim {

/// Static description of an emulated network path. Bandwidth figures are
/// the *end-to-end application-visible* speeds (what Fig. 5 reports), not
/// nominal wire rates, because the paper's algorithm only ever observes
/// end-to-end block-accept times.
struct LinkParams {
  std::string name = "link";
  double bandwidth_Bps = 1e6;  ///< payload bytes per second, unloaded
  double latency_s = 0.0;      ///< one-way propagation + stack latency
  double jitter_frac = 0.0;    ///< relative std-dev of per-transfer speed
  double loss_rate = 0.0;      ///< probability a transfer must be resent

  /// Background utilization contributed by one traced connection, as a
  /// fraction of capacity (0.01 = each connection eats 1% of the link).
  double share_per_connection = 0.01;
};

/// Fig. 5 link presets with the paper's measured speeds and variability.
LinkParams gigabit_link();        ///< 26.32 MB/s, 0.78 % std-dev
LinkParams fast_ethernet_link();  ///< 7.52 MB/s, 8.95 % std-dev
LinkParams megabit_link();        ///< 0.147 MB/s, 1.17 % std-dev
LinkParams international_link();  ///< 0.109 MB/s, 46.02 % std-dev (GaTech <-> Bar-Ilan)

/// A jitter-free, zero-latency link: a transfer takes size / bandwidth.
LinkParams flat_link(double bandwidth_Bps);

/// All four presets in Fig. 5 order.
const std::vector<LinkParams>& figure5_links();

/// Outcome of one emulated transfer.
struct TransferResult {
  Seconds started = 0;    ///< when the link began serializing this payload
  Seconds delivered = 0;  ///< when the last byte reached the receiver
  double effective_Bps = 0;  ///< speed experienced by this transfer
  unsigned retransmissions = 0;

  Seconds duration(Seconds submitted) const noexcept {
    return delivered - submitted;
  }
};

/// netem-style single-queue link emulator, virtual-time based.
///
/// Transfers serialize FIFO: a payload submitted while the link is busy
/// waits for the queue to drain. The effective speed of each transfer is
/// the unloaded bandwidth reduced by trace-driven background load, with
/// multiplicative Gaussian jitter, so measured speeds reproduce both the
/// means and the standard deviations of Fig. 5. Deterministic given the
/// seed.
class SimLink {
 public:
  explicit SimLink(LinkParams params, std::uint64_t seed = 1);

  const LinkParams& params() const noexcept { return params_; }

  /// Attach a background-load trace (e.g. mbone_trace().scaled(4)). The
  /// trace's value at the *start* of each transfer discounts its bandwidth;
  /// load never pushes the effective speed below floor_frac * bandwidth.
  void set_background(const LoadTrace* trace, double floor_frac = 0.05);

  /// Emulate sending `bytes` at virtual time `now`. Never fails: losses
  /// surface as retransmission delay, matching the reliable transports the
  /// middleware runs over.
  TransferResult transmit(std::size_t bytes, Seconds now);

  /// Effective bandwidth (bytes/s) the link would offer a transfer starting
  /// at `now`, before jitter.
  double effective_bandwidth(Seconds now) const noexcept;

  /// Virtual time at which the link's queue drains.
  Seconds busy_until() const noexcept { return busy_until_; }

  void reset() noexcept;

 private:
  LinkParams params_;
  Rng rng_;
  const LoadTrace* background_ = nullptr;
  double floor_frac_ = 0.05;
  Seconds busy_until_ = 0;
};

}  // namespace acex::netsim
