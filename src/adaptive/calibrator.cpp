#include "adaptive/calibrator.hpp"

#include <algorithm>

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
                                        const DecisionParams& base,
                                        const CpuMeter& meter) const {
  if (sample.size() < 4 * 1024) {
    throw ConfigError("calibrator: sample must be at least 4 KiB");
  }
  base.validate();

  const auto measure = [&](MethodId id) {
    const CodecPtr codec = make_codec(id);
    const CpuMeter::Timer timer;
    const Bytes packed = codec->compress(sample);
    return CpuWork{id, sample.size(), packed.size(), timer.elapsed()};
  };
  const auto ratio_percent = [](const CpuWork& work) {
    return 100.0 * static_cast<double>(work.encoded_bytes) /
           static_cast<double>(work.original_bytes);
  };
  const CpuWork lz = measure(MethodId::kLempelZiv);
  const CpuWork bw = measure(MethodId::kBurrowsWheeler);
  const CpuWork hu = measure(MethodId::kHuffman);

  CalibrationReport report;
  report.lz_ratio_percent = ratio_percent(lz);
  report.bw_ratio_percent = ratio_percent(bw);
  report.huffman_ratio_percent = ratio_percent(hu);
  report.lz_reducing_speed = meter.reducing_speed(lz);
  report.bw_reducing_speed = meter.reducing_speed(bw);
  report.lz_throughput = meter.throughput(lz);
  report.bw_throughput = meter.throughput(bw);
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
