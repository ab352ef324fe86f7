#include "netsim/link.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace acex::netsim {
namespace {

constexpr double kMB = 1e6;  // Fig. 5 reports decimal megabytes/second

struct LinkMetrics {
  obs::Counter& transfers;
  obs::Counter& bytes;
  obs::Counter& retransmissions;
  obs::Gauge& modeled_bandwidth_Bps;  ///< last sampled effective speed
  obs::Histogram& queue_wait_us;      ///< modeled wait behind earlier transfers
};

LinkMetrics& link_metrics() {
  auto& r = obs::MetricsRegistry::global();
  static LinkMetrics m{r.counter("acex.netsim.link.transfers"),
                       r.counter("acex.netsim.link.bytes"),
                       r.counter("acex.netsim.link.retransmissions"),
                       r.gauge("acex.netsim.link.modeled_bandwidth_Bps"),
                       r.histogram("acex.netsim.link.queue_wait_us")};
  return m;
}

}  // namespace

LinkParams gigabit_link() {
  LinkParams p;
  p.name = "1Gb";
  p.bandwidth_Bps = 26.32094622 * kMB;
  p.latency_s = 0.0002;
  p.jitter_frac = 0.0078;
  p.share_per_connection = 0.001;  // hard to load a 1 Gb intranet link
  return p;
}

LinkParams fast_ethernet_link() {
  LinkParams p;
  p.name = "100Mb";
  p.bandwidth_Bps = 7.520270348 * kMB;
  p.latency_s = 0.0005;
  p.jitter_frac = 0.0895;
  p.share_per_connection = 0.01;  // MBone x4 peak (~68 conns) -> ~68 % load
  return p;
}

LinkParams megabit_link() {
  LinkParams p;
  p.name = "1Mb";
  p.bandwidth_Bps = 0.146907607 * kMB;
  p.latency_s = 0.01;
  p.jitter_frac = 0.0117;
  p.share_per_connection = 0.02;
  return p;
}

LinkParams international_link() {
  LinkParams p;
  p.name = "international";
  p.bandwidth_Bps = 0.10891426 * kMB;
  p.latency_s = 0.09;  // GaTech <-> Bar-Ilan RTT/2 ballpark
  p.jitter_frac = 0.4602;
  p.loss_rate = 0.01;
  p.share_per_connection = 0.02;
  return p;
}

LinkParams flat_link(double bandwidth_Bps) {
  LinkParams p;
  p.bandwidth_Bps = bandwidth_Bps;
  p.latency_s = 0;
  p.jitter_frac = 0;
  return p;
}

const std::vector<LinkParams>& figure5_links() {
  static const std::vector<LinkParams> kLinks = {
      gigabit_link(), fast_ethernet_link(), megabit_link(),
      international_link()};
  return kLinks;
}

SimLink::SimLink(LinkParams params, std::uint64_t seed)
    : params_(std::move(params)), rng_(seed) {
  if (params_.bandwidth_Bps <= 0) {
    throw ConfigError("SimLink: bandwidth must be positive");
  }
  if (params_.latency_s < 0 || params_.jitter_frac < 0 ||
      params_.loss_rate < 0 || params_.loss_rate >= 1 ||
      params_.share_per_connection < 0) {
    throw ConfigError("SimLink: invalid parameter");
  }
}

void SimLink::set_background(const LoadTrace* trace, double floor_frac) {
  if (floor_frac <= 0 || floor_frac > 1) {
    throw ConfigError("SimLink: floor_frac must be in (0, 1]");
  }
  background_ = trace;
  floor_frac_ = floor_frac;
}

double SimLink::effective_bandwidth(Seconds now) const noexcept {
  double available = 1.0;
  if (background_ != nullptr) {
    const double used =
        background_->value_at(now) * params_.share_per_connection;
    available = std::max(floor_frac_, 1.0 - used);
  }
  return params_.bandwidth_Bps * available;
}

TransferResult SimLink::transmit(std::size_t bytes, Seconds now) {
  TransferResult result;
  result.started = std::max(now, busy_until_);

  // Sample this transfer's speed: trace-discounted bandwidth with
  // multiplicative Gaussian jitter (truncated so speed stays positive).
  const double base = effective_bandwidth(result.started);
  double factor = 1.0 + rng_.gaussian() * params_.jitter_frac;
  factor = std::clamp(factor, 0.05, 3.0);
  result.effective_Bps = base * factor;

  double serialize = static_cast<double>(bytes) / result.effective_Bps;
  while (rng_.chance(params_.loss_rate)) {
    ++result.retransmissions;
    serialize += static_cast<double>(bytes) / result.effective_Bps;
  }

  result.delivered = result.started + serialize + params_.latency_s;
  busy_until_ = result.started + serialize;  // latency overlaps pipelining

  LinkMetrics& metrics = link_metrics();
  metrics.transfers.add(1);
  metrics.bytes.add(bytes);
  metrics.retransmissions.add(
      static_cast<std::uint64_t>(result.retransmissions));
  metrics.modeled_bandwidth_Bps.set(
      static_cast<std::int64_t>(result.effective_Bps));
  metrics.queue_wait_us.record((result.started - now) * 1e6);
  return result;
}

void SimLink::reset() noexcept {
  busy_until_ = 0;
}

}  // namespace acex::netsim
