// Figure 3: compression and decompression wall times per method on the
// commercial data (paper: measured on a Sun-Fire-280R; Burrows-Wheeler
// compress is by far the slowest at ~8 s on their dataset, Huffman and
// Lempel-Ziv decompress fastest).
//
// We measure on the build host and additionally print the Sun-Fire-scaled
// projection (DESIGN.md §2: the figure's content is the relative ordering,
// which scaling preserves).

#include "bench_common.hpp"

int main() {
  using namespace acex;
  const Bytes data = bench::commercial_data();

  // Calibrate "this host -> Sun-Fire" from LZ's reducing speed (Fig. 4
  // measured ~3.5 MB/s there).
  const double scale = adaptive::CpuMeter::wall_for_lz_speed(
                            data, adaptive::kPaperLzReducingBps)
                            .scale();

  bench::header("Figure 3: compression / decompression times (commercial)");
  std::printf("dataset: %zu bytes; Sun-Fire projection = host time / %.3f\n\n",
              data.size(), scale);
  std::printf("%-16s  %12s  %12s  %14s  %14s\n", "method", "comp(host s)",
              "decomp(host)", "comp(SunFire)", "decomp(SunFire)");
  bench::rule();

  double bw_comp = 0, huff_comp = 0, arith_decomp = 0, huff_decomp = 0;
  for (const MethodId m : paper_methods()) {
    const auto r = bench::measure(m, data);
    std::printf("%-16s  %12.4f  %12.4f  %14.3f  %14.3f\n",
                std::string(method_name(m)).c_str(), r.compress_time,
                r.decompress_time, r.compress_time / scale,
                r.decompress_time / scale);
    if (m == MethodId::kBurrowsWheeler) bw_comp = r.compress_time;
    if (m == MethodId::kHuffman) {
      huff_comp = r.compress_time;
      huff_decomp = r.decompress_time;
    }
    if (m == MethodId::kArithmetic) arith_decomp = r.decompress_time;
  }

  std::printf(
      "\nShape check (paper): BW compress slowest by a wide margin (%s, "
      "%.1fx Huffman);\narithmetic decompress much slower than Huffman "
      "decompress (%s, %.1fx).\n",
      bw_comp > 3 * huff_comp ? "reproduced" : "DIFFERS",
      bw_comp / huff_comp,
      arith_decomp > 2 * huff_decomp ? "reproduced" : "DIFFERS",
      arith_decomp / huff_decomp);
  return 0;
}
