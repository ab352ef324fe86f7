#include "adaptive/sampler.hpp"

#include <algorithm>

#include "compress/lz77.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace acex::adaptive {
namespace {

/// Counts the LZ probes of every sampler in the process: `acexctl stat`
/// on a live acexd shows whether its loop still samples.
void count_sample(ByteView prefix) {
  static obs::Counter& samples =
      obs::MetricsRegistry::global().counter("acex.adaptive.samples");
  if (!prefix.empty()) samples.add(1);
}

SampleResult run_sample(ByteView prefix) {
  SampleResult result;
  result.sample_bytes = prefix.size();
  if (prefix.empty()) return result;

  // Sub-millisecond one-shot timings of a 4 KiB compression are dominated
  // by cache state and timer noise; take the fastest of three runs, the
  // standard microbenchmark estimator of attainable speed.
  LempelZivCodec lz;
  Bytes packed;
  Seconds best = 1e9;
  for (int run = 0; run < 3; ++run) {
    const CpuMeter::Timer timer;
    packed = lz.compress(prefix);
    best = std::min(best, timer.elapsed());
    if (best > 0.005) break;  // big samples: one timing is accurate enough
  }
  result.elapsed = std::max(best, 1e-9);  // avoid divide-by-zero
  result.packed_bytes = packed.size();
  result.ratio_percent = 100.0 * static_cast<double>(packed.size()) /
                         static_cast<double>(prefix.size());
  return result;
}

}  // namespace

Sampler::Sampler(std::size_t prefix_size) : prefix_size_(prefix_size) {
  if (prefix_size == 0) throw ConfigError("sampler: prefix_size must be > 0");
}

SampleResult Sampler::sample(ByteView block) const {
  const auto prefix = block.subspan(0, std::min(prefix_size_, block.size()));
  count_sample(prefix);
  return run_sample(prefix);
}

void Sampler::launch(ByteView block) {
  const auto prefix = block.subspan(0, std::min(prefix_size_, block.size()));
  count_sample(prefix);
  Bytes copy(prefix.begin(), prefix.end());
  future_ = std::async(std::launch::async, [copy = std::move(copy)] {
    return run_sample(copy);
  });
}

std::optional<SampleResult> Sampler::wait() {
  if (!future_.valid()) return std::nullopt;
  return future_.get();
}

const SampleResult& SampleSource::read() {
  if (!result_) result_ = sampler_->sample(block_);
  read_ = true;
  return *result_;
}

}  // namespace acex::adaptive
