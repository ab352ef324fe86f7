#include "qa/delivery.hpp"

#include <algorithm>

#include "transport/sequence_tracker.hpp"
#include "util/crc32.hpp"

namespace acex::qa {

Violate collect_into(std::vector<std::string>& out) {
  return [&out](std::string why) {
    if (out.size() < kMaxViolations) out.push_back(std::move(why));
  };
}

adaptive::AdaptiveConfig engine_config(std::size_t workers,
                                       std::size_t block_size) {
  adaptive::AdaptiveConfig config;
  config.async_sampling = false;
  config.decision.block_size = block_size;
  config.decision.sample_size = std::min<std::size_t>(1024, block_size);
  config.worker_threads = workers;
  return config;
}

FaultedWire::FaultedWire(VirtualClock& clock, double forward_Bps,
                         double reverse_Bps, std::uint64_t link_seed,
                         std::optional<transport::FaultConfig> faults)
    : forward_(netsim::flat_link(forward_Bps), link_seed),
      reverse_(netsim::flat_link(reverse_Bps), link_seed + 1),
      duplex_(forward_, reverse_, clock) {
  if (faults) lossy_.emplace(duplex_.a(), *faults);
}

transport::Transport& FaultedWire::sender() noexcept {
  if (lossy_) return *lossy_;
  return duplex_.a();
}

void FaultedWire::flush() {
  if (lossy_) lossy_->flush();
}

void FaultedWire::heal() {
  if (lossy_) lossy_->set_config(transport::FaultConfig{});
}

const transport::FaultCounters& FaultedWire::counters() const noexcept {
  static const transport::FaultCounters kNone;
  return lossy_ ? lossy_->counters() : kNone;
}

std::unique_ptr<FaultedWire> endpoint_wire(VirtualClock& clock,
                                           std::uint64_t run_seed,
                                           std::uint64_t n,
                                           transport::FaultConfig faults) {
  faults.seed =
      run_seed ^ (0x165667B19E3779F9ull + n * 0x27D4EB2F165667C5ull);
  return std::make_unique<FaultedWire>(clock, 2e7, 2e8, run_seed * 131 + n * 2,
                                       faults);
}

void DeliveryLedger::publish(ByteView block) {
  crcs_.push_back(crc32(block));
}

void DeliveryLedger::publish(ByteView data, std::size_t block_size) {
  for (std::size_t at = 0; at < data.size(); at += block_size) {
    publish(data.subspan(at, std::min(block_size, data.size() - at)));
  }
}

DeliveryLedger::Receiver DeliveryLedger::join(std::string label) const {
  return {std::move(label), published(), {}};
}

void DeliveryLedger::fail(const Receiver& receiver,
                          const std::string& why) const {
  violate_(receiver.label + ": " + why);
}

void DeliveryLedger::drain(Receiver& receiver,
                           const adaptive::ReceiveReport& report) {
  if (report.frames_ok + report.frames_corrupt + report.frames_duplicate !=
      report.frames.size()) {
    fail(receiver, "drain outcome counts do not sum to the frame count");
  }
  check_gaps(receiver, report.gaps);
  for (const adaptive::FrameOutcome& frame : report.frames) {
    if (frame.status != adaptive::FrameOutcome::Status::kOk) continue;
    if (!frame.has_sequence) {
      fail(receiver, "intact frame delivered without a sequence");
      continue;
    }
    deliver(receiver, frame.sequence, frame.data);
  }
}

void DeliveryLedger::deliver(Receiver& receiver, std::uint64_t sequence,
                             ByteView data) {
  const std::uint64_t block = receiver.joined_at + sequence;
  const auto fail_at = [&](const std::string& why) {
    fail(receiver, "sequence " + std::to_string(sequence) + why);
  };
  if (block >= published()) {
    fail_at(" maps past the published stream");
    return;
  }
  const std::uint32_t got = crc32(data);
  if (!receiver.recovered.emplace(sequence, got).second) {
    fail_at(" delivered twice");
  } else if (got != crcs_[static_cast<std::size_t>(block)]) {
    fail_at(" diverged from block " + std::to_string(block));
  }
}

void DeliveryLedger::check_gaps(const Receiver& receiver,
                                const std::vector<std::uint64_t>& gaps) {
  constexpr std::uint64_t kWindow = transport::SequenceTracker::kWindow;
  if (gaps.size() > kWindow) {
    fail(receiver, std::to_string(gaps.size()) +
                       " gaps exceed the gap window of " +
                       std::to_string(kWindow));
    return;
  }
  for (const std::uint64_t sequence : gaps) {
    if (receiver.joined_at + sequence >= published()) {
      fail(receiver, "missing sequence " + std::to_string(sequence) +
                         " was never published");
      return;
    }
  }
}

void DeliveryLedger::settle(const Receiver& receiver, std::uint64_t abandoned,
                            std::uint64_t gaps) {
  const std::uint64_t joined_for = published() - receiver.joined_at;
  const std::uint64_t recovered = receiver.recovered.size();
  if (recovered + abandoned + gaps != joined_for) {
    fail(receiver, "accounting leak: " + std::to_string(recovered) +
                       " recovered + " + std::to_string(abandoned) +
                       " abandoned + " + std::to_string(gaps) + " gaps != " +
                       std::to_string(joined_for) + " published while joined");
  }
  if (gaps != 0) {
    fail(receiver, std::to_string(gaps) + " gaps survive convergence");
  }
  recovered_ += recovered;
  abandoned_ += abandoned + gaps;
}

void DeliveryLedger::settle(Receiver& receiver,
                            adaptive::AdaptiveReceiver& rx) {
  const adaptive::ReceiveReport last = rx.receive_report();
  drain(receiver, last);
  settle(receiver, rx.nacks_abandoned(), last.gaps.size());
}

void DeliveryLedger::leave(const Receiver& receiver) {
  // drain() admits only sequences inside the stream, so this cannot wrap.
  const std::uint64_t joined_for = published() - receiver.joined_at;
  recovered_ += receiver.recovered.size();
  abandoned_ += joined_for - receiver.recovered.size();
}

bool replay_nacks(int passes, const std::function<std::size_t()>& ask,
                  const std::function<void()>& answer) {
  for (int pass = 0; pass < passes; ++pass) {
    if (ask() == 0) return true;
    answer();
  }
  return ask() == 0;
}

bool replay_nacks(
    adaptive::AdaptiveReceiver& rx, int passes,
    const std::function<void(const std::vector<std::uint64_t>&)>& answer) {
  std::vector<std::uint64_t> nacks;
  return replay_nacks(
      passes,
      [&] {
        nacks = rx.take_nacks();
        return nacks.size();
      },
      [&] { answer(nacks); });
}

std::vector<std::string> fault_identity(const transport::FaultCounters& c) {
  if (c.messages == c.drops + c.reorders + c.duplicates + c.bit_flips +
                        c.truncations + c.clean) {
    return {};
  }
  return {"fault counter identity broken"};
}

std::vector<SeriesRow> fault_rows(const transport::FaultCounters& c) {
  return {{"acex.transport.fault.messages", c.messages},
          {"acex.transport.fault.drops", c.drops},
          {"acex.transport.fault.reorders", c.reorders},
          {"acex.transport.fault.duplicates", c.duplicates},
          {"acex.transport.fault.bit_flips", c.bit_flips},
          {"acex.transport.fault.truncations", c.truncations},
          {"acex.transport.fault.clean", c.clean}};
}

std::vector<std::string> shared_encode_identity(const broker::BrokerStats& bs,
                                                std::uint64_t published,
                                                std::uint64_t frames_planned) {
  std::vector<std::string> violations;
  const auto expect = [&](const char* what, std::uint64_t got,
                          std::uint64_t want) {
    if (got != want) {
      violations.push_back(std::string(what) + ": " + std::to_string(got) +
                           " != " + std::to_string(want));
    }
  };
  expect("broker blocks vs published", bs.blocks, published);
  expect("broker encodes vs cache misses", bs.encodes, bs.cache_misses);
  expect("broker cache hits + misses vs frames planned",
         bs.cache_hits + bs.cache_misses, frames_planned);
  return violations;
}

}  // namespace acex::qa
