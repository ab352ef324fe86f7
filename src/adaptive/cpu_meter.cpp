#include "adaptive/cpu_meter.hpp"

#include <algorithm>

#include "compress/lz77.hpp"
#include "util/error.hpp"

namespace acex::adaptive {
namespace {

// The rest of Fig. 4's Sun-Fire reducing speeds, bytes removed per second.
constexpr double kPaperHuffmanReducingBps = 1.8e6;
constexpr double kPaperBwReducingBps = 0.7e6;
constexpr double kPaperArithmeticReducingBps = 0.35e6;

}  // namespace

CpuMeter CpuMeter::wall(double scale) {
  if (!(scale > 0)) throw ConfigError("cpu meter: scale must be positive");
  CpuMeter meter;
  meter.scale_ = scale;
  return meter;
}

CpuMeter CpuMeter::wall_for_lz_speed(ByteView sample,
                                     double target_reducing_Bps) {
  // Measure at the granularity the sender charges: full 128 KiB block
  // compressions (4 KiB probes run severalfold faster per byte and would
  // skew the scale), fastest of three at up to four offsets. A shorter
  // sample is measured whole.
  if (sample.empty()) return CpuMeter();
  const std::size_t block = std::min<std::size_t>(128 * 1024, sample.size());
  LempelZivCodec lz;
  double speed_sum = 0;
  int speeds = 0;
  const std::size_t step = (sample.size() - block) / 3 + 1;
  for (std::size_t off = 0; off + block <= sample.size() && speeds < 4;
       off += step) {
    Seconds best = 1e9;
    std::size_t packed_size = block;
    for (int run = 0; run < 3; ++run) {
      const Timer timer;
      packed_size = lz.compress(sample.subspan(off, block)).size();
      best = std::min(best, timer.elapsed());
    }
    if (packed_size < block && best > 0) {
      speed_sum += static_cast<double>(block - packed_size) / best;
      ++speeds;
    }
  }
  if (speeds == 0) return CpuMeter();  // incompressible: scaling is moot
  return wall(target_reducing_Bps / (speed_sum / speeds));
}

CpuMeter CpuMeter::paper_model() noexcept {
  CpuMeter meter;
  meter.model_ = true;
  return meter;
}

Seconds CpuMeter::charge(const CpuWork& work) const noexcept {
  if (!model_) return work.measured / scale_;
  if (work.method == MethodId::kNone ||
      work.encoded_bytes >= work.original_bytes) {
    return 0.0;
  }
  double speed = kPaperLzReducingBps;  // LZ, and every method Fig. 4 omits
  switch (work.method) {
    case MethodId::kHuffman:
      speed = kPaperHuffmanReducingBps;
      break;
    case MethodId::kArithmetic:
      speed = kPaperArithmeticReducingBps;
      break;
    case MethodId::kBurrowsWheeler:
      speed = kPaperBwReducingBps;
      break;
    default:
      break;
  }
  return static_cast<double>(work.original_bytes - work.encoded_bytes) /
         speed;
}

double CpuMeter::reducing_speed(const CpuWork& work) const noexcept {
  const Seconds seconds = charge(work);
  if (seconds <= 0 || work.encoded_bytes >= work.original_bytes) return 0.0;
  return static_cast<double>(work.original_bytes - work.encoded_bytes) /
         seconds;
}

double CpuMeter::throughput(const CpuWork& work) const noexcept {
  const Seconds seconds = charge(work);
  return seconds > 0 ? static_cast<double>(work.original_bytes) / seconds
                     : 0.0;
}

}  // namespace acex::adaptive
