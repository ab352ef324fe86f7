// Ablation: why sample 4 KiB? The sampler's prefix must be big enough to
// predict the block's compressibility yet cheap enough to run per block.
// Reports (a) prediction error of the sampled LZ ratio vs the block's true
// LZ ratio, and (b) sampling cost, across prefix sizes.

#include <cmath>

#include "adaptive/sampler.hpp"
#include "bench_common.hpp"
#include "compress/lz77.hpp"

int main() {
  using namespace acex;
  const Bytes commercial = bench::commercial_data(8 * 1024 * 1024);
  const Bytes molecular = bench::molecular_data(16384, 16);

  constexpr std::size_t kBlock = 128 * 1024;

  bench::header("Ablation: sampler prefix size (4 KiB is the paper's)");
  std::printf("%10s  %22s  %22s  %14s\n", "sample", "commercial |err| pp",
              "molecular |err| pp", "cost us/block");
  bench::rule();

  for (const std::size_t bytes :
       {512u, 1024u, 2048u, 4096u, 8192u, 16384u, 65536u}) {
    adaptive::Sampler sampler(bytes);
    LempelZivCodec lz;
    MonotonicClock clock;

    double cost_us = 0;
    std::size_t cost_samples = 0;
    const auto mean_abs_err = [&](const Bytes& data) {
      double err_sum = 0;
      std::size_t blocks = 0;
      for (std::size_t off = 0; off + kBlock <= data.size();
           off += kBlock * 4) {
        const ByteView block = ByteView(data).subspan(off, kBlock);
        const Stopwatch sw(clock);
        const auto s = sampler.sample(block);
        cost_us += sw.elapsed() * 1e6;
        ++cost_samples;
        const double truth =
            100.0 * static_cast<double>(lz.compress(block).size()) /
            static_cast<double>(kBlock);
        err_sum += std::abs(s.ratio_percent - truth);
        ++blocks;
      }
      return err_sum / static_cast<double>(blocks);
    };

    const double commercial_err = mean_abs_err(commercial);
    const double molecular_err = mean_abs_err(molecular);
    std::printf("%9zu B %21.2f %22.2f  %14.1f\n", bytes, commercial_err,
                molecular_err, cost_us / static_cast<double>(cost_samples));
  }

  std::printf(
      "\nExpectation: error drops steeply up to a few KiB then flattens, "
      "while cost keeps\ngrowing — 4 KiB buys most of the accuracy at a "
      "small fraction of a block's work.\n");
  return 0;
}
