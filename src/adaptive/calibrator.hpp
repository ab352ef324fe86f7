#pragma once

#include "adaptive/cpu_meter.hpp"
#include "adaptive/decision.hpp"
#include "util/bytes.hpp"

namespace acex::adaptive {

/// Per-method measurements the calibration run produced (diagnostics).
struct CalibrationReport {
  DecisionParams params;          ///< the derived constants
  double lz_ratio_percent = 0;    ///< LZ ratio on the calibration sample
  double bw_ratio_percent = 0;    ///< Burrows-Wheeler ratio
  double huffman_ratio_percent = 0;
  double lz_reducing_speed = 0;   ///< bytes removed / s
  double bw_reducing_speed = 0;
  double lz_throughput = 0;       ///< input bytes / s
  double bw_throughput = 0;
};

/// Re-derives the §2.5 decision constants from a small data sample, as the
/// paper prescribes: "these numbers can be tuned easily by sampling even a
/// small piece of data extracted from the original file".
///
/// Derivations (B = block bytes, bw = link speed, r = ratio, thr =
/// compression throughput, S = reducing speed = thr * (1 - r)):
///
///  * alpha — compression pays when B/bw > B/thr + B*r/bw, i.e. when
///    bw < S. In send-time form: send > (B/S), so the ideal alpha is 1;
///    we keep a configurable overlap credit (default 0.83, the paper's)
///    because compression overlaps the previous block's send.
///
///  * beta — Burrows-Wheeler beats LZ when
///    1/thr_bw + r_bw/bw < 1/thr_lz + r_lz/bw
///    <=> bw < (r_lz - r_bw) / (1/thr_bw - 1/thr_lz) =: bw_cross.
///    Expressed against the LZ reduce time: beta = S_lz / bw_cross. When
///    Burrows-Wheeler is at least as fast as LZ there is no crossing, and
///    beta keeps its base value.
///
///  * ratio_cut — when LZ's sampled ratio is no better than what plain
///    Huffman achieves, the data lacks string repetitions and the cheap
///    method wins: cut at Huffman's measured ratio (clamped to a sane
///    band).
class Calibrator {
 public:
  /// `overlap_credit` multiplies the ideal alpha of 1.0.
  explicit Calibrator(double overlap_credit = 0.83);

  /// Measure the three relevant codecs on `sample`, charge each run on
  /// `meter`, and derive constants from the result with derive(). `base`
  /// supplies block/sample sizes and fallbacks. Throws ConfigError if the
  /// sample is too small to measure (< 4 KiB).
  CalibrationReport calibrate(ByteView sample,
                              const DecisionParams& base = {},
                              const CpuMeter& meter = {}) const;

  /// The constants implied by `measured`'s ratios, throughputs and
  /// reducing speeds (its `params` is ignored). Pure: no clock is read, so
  /// the paper's own measurements can be fed in as well as this host's.
  DecisionParams derive(const CalibrationReport& measured,
                        const DecisionParams& base = {}) const;

 private:
  double overlap_credit_;
};

}  // namespace acex::adaptive
