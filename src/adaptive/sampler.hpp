#pragma once

#include <future>
#include <optional>

#include "adaptive/cpu_meter.hpp"
#include "util/bytes.hpp"

namespace acex::adaptive {

/// What one sampling pass learned about the upcoming block. Its speed is
/// whatever a CpuMeter charges for work(): each sender asks its own.
struct SampleResult {
  double ratio_percent = 100.0;  ///< compressed/original of the sample
  Seconds elapsed = 0.0;         ///< wall time of the fastest LZ run
  std::size_t sample_bytes = 0;
  std::size_t packed_bytes = 0;  ///< LZ output size of the sample

  CpuWork work() const noexcept {
    return {MethodId::kLempelZiv, sample_bytes, packed_bytes, elapsed};
  }
};

/// §2.5's sampling step: "Fork a sampling process to compress the first 4KB
/// of the next block by Lempel-Ziv and use its output to determine the
/// reducing speed size and the compression ratio for the next 128KB block."
///
/// We substitute a std::async task (or an inline call) for the fork(2) of
/// the paper — identical estimate, same overlap with sending when async
/// (DESIGN.md §2). The runs are timed with CpuMeter::Timer, on the wall
/// clock even when the surrounding experiment runs on virtual time; the
/// reader's CpuMeter decides what that time is worth. Every sample of a
/// non-empty block, inline or launched, adds one to the obs counter
/// `acex.adaptive.samples`.
class Sampler {
 public:
  /// `prefix_size`: how much of the block to sample (the paper's 4 KiB).
  explicit Sampler(std::size_t prefix_size = 4 * 1024);

  /// Synchronous sampling of `block`'s prefix.
  SampleResult sample(ByteView block) const;

  /// Launch sampling concurrently ("fork"); retrieve with wait().
  /// The data is copied, so the caller may reuse the block immediately.
  /// Counted here, on the calling thread.
  void launch(ByteView block);

  /// Block until the launched sample completes ("Wait for child
  /// process."); std::nullopt if launch() was never called.
  std::optional<SampleResult> wait();

  bool pending() const noexcept { return future_.valid(); }

  std::size_t prefix_size() const noexcept { return prefix_size_; }

 private:
  std::size_t prefix_size_;
  std::future<SampleResult> future_;
};

/// One block's sample, taken at most once, on first read(). §2.5 reads the
/// sample only once its first test passes, so a plan that stops there
/// costs no LZ run. The fan-out broker hands one source to every
/// subscriber that plans a chunk: a chunk they all send raw is never
/// sampled, and one that any of them compresses is sampled once.
/// Not thread-safe; the sampler and the block must outlive the source.
class SampleSource {
 public:
  /// Samples `block` with `sampler` on first read.
  SampleSource(const Sampler& sampler, ByteView block) noexcept
      : sampler_(&sampler), block_(block) {}

  /// A sample already taken: a collected launch, or one a test supplies.
  explicit SampleSource(const SampleResult& taken) noexcept : result_(taken) {}

  /// The sample, taken now if nothing has taken it yet.
  const SampleResult& read();

  /// Whether anything read the sample.
  bool was_read() const noexcept { return read_; }

 private:
  const Sampler* sampler_ = nullptr;
  ByteView block_;
  std::optional<SampleResult> result_;
  bool read_ = false;
};

}  // namespace acex::adaptive
