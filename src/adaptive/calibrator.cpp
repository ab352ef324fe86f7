#include "adaptive/calibrator.hpp"

#include <algorithm>

#include "compress/metrics.hpp"
#include "compress/registry.hpp"
#include "util/error.hpp"

namespace acex::adaptive {

Calibrator::Calibrator(double overlap_credit)
    : overlap_credit_(overlap_credit) {
  if (!(overlap_credit > 0) || overlap_credit > 1) {
    throw ConfigError("calibrator: overlap_credit must be in (0, 1]");
  }
}

CalibrationReport Calibrator::calibrate(ByteView sample,
                                        const DecisionParams& base) const {
  if (sample.size() < 4 * 1024) {
    throw ConfigError("calibrator: sample must be at least 4 KiB");
  }
  base.validate();

  MonotonicClock clock;
  const auto measure = [&](MethodId id) {
    const CodecPtr codec = make_codec(id);
    return measure_codec(*codec, sample, clock, /*include_decompress=*/false);
  };
  const auto lz = measure(MethodId::kLempelZiv);
  const auto bw = measure(MethodId::kBurrowsWheeler);
  const auto hu = measure(MethodId::kHuffman);

  CalibrationReport report;
  report.lz_ratio_percent = lz.ratio_percent();
  report.bw_ratio_percent = bw.ratio_percent();
  report.huffman_ratio_percent = hu.ratio_percent();
  report.lz_reducing_speed = lz.reducing_speed();
  report.bw_reducing_speed = bw.reducing_speed();
  report.lz_throughput = lz.compress_throughput();
  report.bw_throughput = bw.compress_throughput();
  report.params = derive(report, base);
  report.params.validate();
  return report;
}

DecisionParams Calibrator::derive(const CalibrationReport& measured,
                                  const DecisionParams& base) const {
  DecisionParams params = base;
  params.alpha = overlap_credit_;  // ideal break-even alpha is 1.0

  // beta: the bandwidth below which Burrows-Wheeler's extra reduction pays
  // for its extra CPU, expressed as a multiple of the LZ reduce time.
  const double r_lz = measured.lz_ratio_percent / 100.0;
  const double r_bw = measured.bw_ratio_percent / 100.0;
  const double inv_thr_gap =
      1.0 / std::max(measured.bw_throughput, 1.0) -
      1.0 / std::max(measured.lz_throughput, 1.0);
  if (r_lz > r_bw && inv_thr_gap > 0 && measured.lz_reducing_speed > 0) {
    const double bw_cross = (r_lz - r_bw) / inv_thr_gap;
    const double beta = measured.lz_reducing_speed / bw_cross;
    // Clamp to a sane band around the paper's constant: degenerate samples
    // (uniformly incompressible or trivially compressible) produce wild
    // crossings that would effectively disable one method.
    params.beta = std::clamp(beta, params.alpha + 0.1, 50.0);
  }
  // else: BW compresses no harder (the ratio_cut will already route such
  // data to Huffman), or it is at least as fast as LZ and so would pay on
  // every link. Either way keep base.beta: it leaves LZ the band between
  // alpha and beta, and LZ blocks are what the sender measures the LZ
  // reduce time from, which its compress-or-not test reads.

  // ratio_cut: if LZ cannot beat Huffman's order-0 ratio, the data has no
  // string repetitions worth chasing.
  params.ratio_cut_percent =
      std::clamp(measured.huffman_ratio_percent, 30.0, 70.0);
  return params;
}

}  // namespace acex::adaptive
