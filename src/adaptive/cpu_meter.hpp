#pragma once

#include <cstddef>

#include "compress/codec.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"

namespace acex::adaptive {

/// Fig. 4's Sun-Fire-280R Lempel-Ziv reducing speed (bytes removed per
/// second): the paper model's anchor and the usual calibration target.
inline constexpr double kPaperLzReducingBps = 3.5e6;

/// One measured piece of CPU work: `method` turned `original_bytes` into
/// `encoded_bytes` in `measured` wall-clock seconds.
struct CpuWork {
  MethodId method = MethodId::kNone;
  std::size_t original_bytes = 0;
  std::size_t encoded_bytes = 0;
  Seconds measured = 0;
};

/// The adaptive layer's one CPU meter. §2.5 picks each block's method from
/// reducing speeds "measured continually, as subsequent blocks are
/// compressed": every such measurement in src/adaptive times its work with
/// Timer, and whatever consumes the time asks charge() what it costs.
///
///  * wall (the default): measured time divided by a scale. Scale 1 is
///    production's meter, because wall time is how §2.5 sees CPU
///    contention; other scales emulate a slower or faster host.
///  * the Fig. 4 model: (original - encoded) / the method's Sun-Fire
///    reducing speed (LZ 3.5, Huffman 1.8, BW 0.7, arithmetic 0.35 MB/s),
///    whatever was measured. Deterministic, so tests and experiments
///    decide alike on any host at any load.
///
/// A plain value: cheap to copy, and charge() is safe from any thread.
class CpuMeter {
 public:
  /// Wall-clock stopwatch for CPU work, started on construction.
  class Timer {
   public:
    Timer() : start_(MonotonicClock().now()) {}
    Seconds elapsed() const { return MonotonicClock().now() - start_; }

   private:
    Seconds start_;
  };

  /// Wall time at scale 1.
  CpuMeter() = default;

  /// Wall time divided by `scale` (0.25 = a host 4x slower than this
  /// one). Throws ConfigError unless scale > 0.
  static CpuMeter wall(double scale);

  /// The wall meter whose scale makes this host's block-level Lempel-Ziv
  /// reducing speed on `sample` read `target_reducing_Bps`; scale 1 when
  /// nothing compresses.
  static CpuMeter wall_for_lz_speed(ByteView sample,
                                    double target_reducing_Bps);

  /// The Fig. 4 model. It charges nothing for kNone or for a pass that
  /// removed nothing (Fig. 4 prices only reducing work), and charges the
  /// methods Fig. 4 does not list (LZW, zlib, colpipe, application
  /// codecs) at Lempel-Ziv's speed, the figure's anchor.
  static CpuMeter paper_model() noexcept;

  /// Seconds to charge for `work`.
  Seconds charge(const CpuWork& work) const noexcept;

  /// Bytes removed per charged second; 0 when nothing was removed or
  /// nothing was charged.
  double reducing_speed(const CpuWork& work) const noexcept;

  /// Input bytes per charged second; 0 when nothing was charged.
  double throughput(const CpuWork& work) const noexcept;

  /// The wall meter's divisor (1 on the model, which ignores it).
  double scale() const noexcept { return scale_; }

 private:
  double scale_ = 1.0;
  bool model_ = false;
};

}  // namespace acex::adaptive
