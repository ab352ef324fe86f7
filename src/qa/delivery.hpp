#pragma once

// Delivery ground truth (DESIGN.md §10), shared by the soak, the chaos
// battery, the serial/parallel oracles and acexstat: whichever method a
// block went out with, each receiver gets the original bytes back at most
// once, and once NACK replay settles, every block published while it was
// joined is recovered, abandoned or still a visible gap.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "broker/broker.hpp"
#include "netsim/link.hpp"
#include "qa/oracles.hpp"
#include "transport/fault_transport.hpp"
#include "transport/sim_transport.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"

namespace acex::qa {

/// Where a harness reports an invariant violation.
using Violate = std::function<void(std::string)>;

/// A harness stops at this many violations.
constexpr std::size_t kMaxViolations = 64;
/// A Violate that appends to `out` until it holds kMaxViolations.
Violate collect_into(std::vector<std::string>& out);

/// The injector config of a run config's five fault probabilities.
template <class RunConfig>
transport::FaultConfig fault_mix(const RunConfig& run) {
  transport::FaultConfig f;
  f.drop_prob = run.drop_prob;
  f.reorder_prob = run.reorder_prob;
  f.duplicate_prob = run.duplicate_prob;
  f.bit_flip_prob = run.bit_flip_prob;
  f.truncate_prob = run.truncate_prob;
  return f;
}

/// The sender config the harnesses drive: `block_size` blocks, each
/// sampled in line on its first 1 KiB, encoded on `workers` threads.
adaptive::AdaptiveConfig engine_config(std::size_t workers,
                                       std::size_t block_size);

/// One emulated connection on the caller's clock: a() sends over a
/// `netsim::flat_link` seeded `link_seed`, b() answers over one seeded
/// `link_seed + 1`. With `faults`, sender() is a FaultInjectingTransport.
class FaultedWire {
 public:
  FaultedWire(VirtualClock& clock, double forward_Bps, double reverse_Bps,
              std::uint64_t link_seed,
              std::optional<transport::FaultConfig> faults = std::nullopt);
  FaultedWire(const FaultedWire&) = delete;
  FaultedWire& operator=(const FaultedWire&) = delete;

  transport::Transport& sender() noexcept;
  transport::SimHalf& receiver() noexcept { return duplex_.b(); }

  /// Deliver what the injector holds back for a reorder.
  void flush();
  /// Stop injecting faults; the counters are kept.
  void heal();
  /// The injector's counters, all zero without one.
  const transport::FaultCounters& counters() const noexcept;

 private:
  // Destroyed in reverse order: the injector and duplex refer to the links.
  netsim::SimLink forward_;
  netsim::SimLink reverse_;
  transport::SimDuplex duplex_;
  std::optional<transport::FaultInjectingTransport> lossy_;
};

/// The n-th endpoint of a harness that replaces endpoints as it runs (the
/// broker soak's subscribers, the chaos peers' incarnations): 20 MB/s out,
/// 200 MB/s back, `faults` reseeded from `run_seed` and `n`.
std::unique_ptr<FaultedWire> endpoint_wire(VirtualClock& clock,
                                           std::uint64_t run_seed,
                                           std::uint64_t n,
                                           transport::FaultConfig faults);

/// Each published block's CRC, checked against what every receiver gets.
class DeliveryLedger {
 public:
  /// One receiver: it joined after `joined_at` blocks were published and
  /// numbers the blocks from there on from 0.
  struct Receiver {
    std::string label;  ///< prefixes its violations
    std::uint64_t joined_at = 0;
    std::map<std::uint64_t, std::uint32_t> recovered;  ///< sequence -> CRC
  };

  explicit DeliveryLedger(Violate violate) : violate_(std::move(violate)) {}

  void publish(ByteView block);
  /// publish() each `block_size` slice of `data`, as send_all cuts it.
  void publish(ByteView data, std::size_t block_size);
  std::uint64_t published() const noexcept { return crcs_.size(); }

  /// A receiver whose sequence 0 is the next block published.
  Receiver join(std::string label) const;

  /// One receive pass: outcome counts sum to the frame count, the gaps
  /// pass check_gaps(), every intact frame has a sequence and passes
  /// deliver().
  void drain(Receiver& receiver, const adaptive::ReceiveReport& report);
  /// `sequence` maps inside the stream, arrives once and matches its CRC.
  void deliver(Receiver& receiver, std::uint64_t sequence, ByteView data);
  /// At most SequenceTracker::kWindow gaps, each a published block.
  void check_gaps(const Receiver& receiver,
                  const std::vector<std::uint64_t>& gaps);

  /// At NACK replay's fixed point: recovered + abandoned + gaps equals
  /// what was published while joined, and no gap survives.
  void settle(const Receiver& receiver, std::uint64_t abandoned,
              std::uint64_t gaps);
  /// settle() after one last drain() of `rx`.
  void settle(Receiver& receiver, adaptive::AdaptiveReceiver& rx);
  /// A receiver leaving mid-stream abandons what it has not recovered.
  void leave(const Receiver& receiver);

  /// Totals over every receiver settled or left so far.
  std::uint64_t recovered() const noexcept { return recovered_; }
  std::uint64_t abandoned() const noexcept { return abandoned_; }

 private:
  void fail(const Receiver& receiver, const std::string& why) const;

  Violate violate_;
  std::vector<std::uint32_t> crcs_;
  std::uint64_t recovered_ = 0;
  std::uint64_t abandoned_ = 0;
};

/// The NACK replay loop: up to `passes` rounds of `ask` (send this pass's
/// NACKs, returning how many) then `answer` (retransmit and drain). True
/// at a fixed point: an ask, within the passes or one after, for none.
bool replay_nacks(int passes, const std::function<std::size_t()>& ask,
                  const std::function<void()>& answer);
/// replay_nacks() on `rx`'s NACKs.
bool replay_nacks(
    adaptive::AdaptiveReceiver& rx, int passes,
    const std::function<void(const std::vector<std::uint64_t>&)>& answer);

/// Violated when a message is not counted once, as clean or one fault.
std::vector<std::string> fault_identity(const transport::FaultCounters& c);
/// The seven `acex.transport.fault.*` check_series rows for `c`.
std::vector<SeriesRow> fault_rows(const transport::FaultCounters& c);
/// The broker's shared-encode identities: `blocks == published`,
/// `encodes == cache_misses`, `hits + misses == frames_planned`.
std::vector<std::string> shared_encode_identity(const broker::BrokerStats& bs,
                                                std::uint64_t published,
                                                std::uint64_t frames_planned);

}  // namespace acex::qa
