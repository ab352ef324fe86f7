// wan-commercial and wan-molecular: the paper's setting (§2.5). One
// AdaptiveSender streams 128 KiB blocks over a loopback TcpTransport behind
// a 2 MiB/s paced link; a receiver thread decodes one frame per drain and
// checks every byte. Closed loop: the next block is submitted when the
// previous send returns. The two inputs use the same layers differently:
// transaction text makes Burrows-Wheeler pay (encode dominates each block),
// MD snapshots make Huffman the choice and the link the bottleneck.

#include <algorithm>
#include <cstring>
#include <exception>
#include <map>
#include <thread>

#include "adaptive/pipeline.hpp"
#include "harness.hpp"
#include "transport/tcp_transport.hpp"
#include "workloads/molecular.hpp"
#include "workloads/transactions.hpp"

namespace acexbench {
namespace {

using namespace acex;

constexpr double kLinkBytesPerSecond = 2.0 * 1024 * 1024;
constexpr std::size_t kBlockSize = 128 * 1024;
constexpr std::size_t kWarmupBlocks = 8;
/// Input sizes; a run that outlasts its input cycles through it again.
constexpr std::size_t kCommercialBytes = std::size_t{80} << 20;
constexpr std::size_t kMolecularBytes = std::size_t{40} << 20;

/// A fixed-rate link in front of a socket. Each send first waits out its
/// own serialisation time, then writes, so the send that carries a message
/// is charged for it and the sender's bandwidth estimator sees the link
/// rate. (transport::RateLimitedTransport charges a send's deficit to the
/// NEXT send, which makes the estimator read the socket instead.)
class PacedLink final : public transport::Transport {
 public:
  PacedLink(transport::Transport& socket, Lane* lane)
      : socket_(&socket), lane_(lane) {}

  void send(ByteView message) override {
    const double start = now();
    {
      // The message occupying the link: transfer time, not idle waiting,
      // so the span name has no "_wait" suffix (see trace.cpp).
      const SpanScope link(lane_, "transport.link");
      sleep_until(start + static_cast<double>(message.size()) /
                              kLinkBytesPerSecond);
    }
    const SpanScope write(lane_, "transport.send");
    socket_->send(message);
  }
  std::optional<Bytes> receive() override { return socket_->receive(); }
  const Clock& clock() const override { return socket_->clock(); }

 private:
  transport::Transport* socket_;
  Lane* lane_;
};

/// Hands the receiver one frame per drain. receive_report() drains until
/// receive() reports nothing pending, which a blocking socket never does
/// while the peer is alive; this yields the socket's next message once per
/// arm() and "drained" after it.
class OneFramePerDrain final : public transport::Transport {
 public:
  OneFramePerDrain(transport::Transport& socket, Lane* lane)
      : socket_(&socket), lane_(lane) {}

  void arm() { armed_ = true; }

  void send(ByteView message) override { socket_->send(message); }
  std::optional<Bytes> receive() override {
    if (!armed_) return std::nullopt;
    armed_ = false;
    const SpanScope wait(lane_, "transport.recv_wait");
    return socket_->receive();
  }
  const Clock& clock() const override { return socket_->clock(); }

 private:
  transport::Transport* socket_;
  Lane* lane_;
  bool armed_ = false;
};

adaptive::AdaptiveConfig sender_config() {
  adaptive::AdaptiveConfig config;
  config.decision.block_size = kBlockSize;
  config.initial_bandwidth_Bps = kLinkBytesPerSecond;
  return config;
}

/// Everything set-up builds: the connection, the link and both ends.
struct WanSystem {
  WanSystem(Lane* sender_lane, Lane* receiver_lane)
      : rx_socket(transport::tcp_connect(listener.port())),
        tx_socket(listener.accept()),
        link(tx_socket, sender_lane),
        rx_drain(rx_socket, receiver_lane),
        sender(link, sender_config()),
        receiver(rx_drain) {}

  transport::TcpListener listener{0};
  transport::TcpTransport rx_socket;
  transport::TcpTransport tx_socket;
  PacedLink link;
  OneFramePerDrain rx_drain;
  adaptive::AdaptiveSender sender;
  adaptive::AdaptiveReceiver receiver;
};

Bytes make_input(bool molecular, std::uint64_t seed) {
  if (!molecular) {
    workloads::TransactionGenerator gen(seed);
    return gen.text_block(kCommercialBytes);
  }
  workloads::MolecularConfig config;
  config.atom_count = 16384;
  config.seed = seed;
  workloads::MolecularGenerator gen(config);
  Bytes data;
  while (data.size() < kMolecularBytes) {
    const Bytes snapshot = gen.pbio_snapshot();
    data.insert(data.end(), snapshot.begin(), snapshot.end());
    gen.step();
  }
  return data;
}

struct Arrival {
  std::uint64_t sequence;
  double at;
};

}  // namespace

Result run_wan(const Options& options, bool molecular) {
  Result result;
  const Bytes data = make_input(molecular, options.seed);
  const std::size_t block_count = data.size() / kBlockSize;
  const auto block = [&](std::size_t i) {
    return ByteView(data.data() + (i % block_count) * kBlockSize, kBlockSize);
  };
  result.set("input", molecular ? "md-snapshots" : "ois-transactions");
  result.set("input_bytes", std::to_string(block_count * kBlockSize));
  result.set("block_bytes", std::to_string(kBlockSize));
  result.set("link_Bps", std::to_string(kLinkBytesPerSecond));
  result.set("warmup_blocks", std::to_string(kWarmupBlocks));
  result.set("loop", "closed");

  Tracer tracer;
  Lane* tx_lane = options.traced() ? tracer.lane("sender") : nullptr;
  Lane* rx_lane = options.traced() ? tracer.lane("receiver") : nullptr;

  EndToEnd e2e;
  e2e.rss_base = rss_bytes();
  reset_peak_rss();
  const auto make = [&] {
    return std::make_unique<WanSystem>(tx_lane, rx_lane);
  };
  auto system = build_system<WanSystem>(kSetupRuns, e2e.setup_s, make);

  // Receiver thread: one frame per drain, every byte checked against the
  // block its sequence names. Results stay thread-local until join().
  std::vector<Arrival> arrivals;
  std::size_t mismatches = 0;
  std::thread receiver_thread([&] {
    try {
      for (;;) {
        system->rx_drain.arm();
        SpanScope receive(rx_lane, "adaptive.receive");
        const adaptive::ReceiveReport report =
            system->receiver.receive_report();
        if (report.frames.empty()) {  // sender closed the connection
          receive.cancel();
          return;
        }
        for (const adaptive::FrameOutcome& frame : report.frames) {
          if (frame.status != adaptive::FrameOutcome::Status::kOk) {
            ++mismatches;
            continue;
          }
          receive.set_id(static_cast<std::int64_t>(frame.sequence), 0);
          const SpanScope verify(rx_lane, "bench.verify");
          const ByteView expect = block(frame.sequence);
          if (frame.data.size() == expect.size() &&
              std::memcmp(frame.data.data(), expect.data(), expect.size()) ==
                  0) {
            arrivals.push_back({frame.sequence, now()});
          } else {
            ++mismatches;
          }
        }
      }
    } catch (const std::exception&) {
      ++mismatches;
    }
  });

  // Sender: the calling thread. send_block() untraced; the traced run
  // drives plan_block -> encode_block -> finish_block, which is exactly
  // what send_block does, so each step gets its own span.
  adaptive::AdaptiveSender& sender = system->sender;
  std::vector<double> submitted;
  std::vector<adaptive::BlockReport> reports;
  const int epochs = epoch_count(options.seconds);
  const double epoch_seconds = options.seconds / epochs;
  obs::MetricsSnapshot obs_before;
  std::exception_ptr error;
  try {
    for (std::size_t i = 0;; ++i) {
      if (i == kWarmupBlocks) {
        obs_before = obs::MetricsRegistry::global().snapshot();
        e2e.marks.push_back(mark());
      } else if (i > kWarmupBlocks &&
                 now() >= e2e.marks.front().at +
                              epoch_seconds * static_cast<double>(e2e.marks.size())) {
        e2e.marks.push_back(mark());
        if (e2e.marks.size() > static_cast<std::size_t>(epochs)) break;
      }
      const ByteView current = block(i);
      const ByteView next = block(i + 1);
      const auto id = static_cast<std::int64_t>(i);
      submitted.push_back(now());
      if (!options.traced()) {
        reports.push_back(sender.send_block(current, next));
        continue;
      }
      adaptive::BlockPlan plan;
      {
        const SpanScope span(tx_lane, "adaptive.plan", id, 0);
        plan = sender.plan_block(current, next);
      }
      adaptive::EncodeResult encoded;
      {
        const SpanScope span(tx_lane, "compress.encode", id, 0);
        encoded = adaptive::encode_block(
            sender.registry(), current, plan.method, plan.sequence,
            sender.config().expansion_slack_bytes, plan.allow_degrade);
      }
      const SpanScope span(tx_lane, "adaptive.finish", id, 0);
      reports.push_back(
          sender.finish_block(plan, current.size(), std::move(encoded)));
    }
  } catch (...) {
    error = std::current_exception();
  }
  system->tx_socket.shutdown_send();
  receiver_thread.join();
  if (error) std::rethrow_exception(error);
  const obs::MetricsSnapshot obs_after = obs::MetricsRegistry::global().snapshot();
  e2e.rss_peak = peak_rss_bytes();
  system.reset();
  build_system<WanSystem>(kSetupRuns, e2e.setup_s, make);

  std::vector<double> arrived(reports.size(), kMissing);
  for (const Arrival& a : arrivals) {
    if (a.sequence < arrived.size()) arrived[a.sequence] = a.at;
  }
  std::map<std::string, double> methods;
  std::vector<double> bandwidth;
  for (std::size_t seq = kWarmupBlocks; seq < reports.size(); ++seq) {
    const auto bytes = static_cast<double>(reports[seq].original_size);
    e2e.deliveries.push_back({static_cast<std::int64_t>(seq), 0,
                              submitted[seq], arrived[seq], bytes});
    if (arrived[seq] == kMissing) continue;
    e2e.payload_bytes += bytes;
    e2e.wire_bytes += static_cast<double>(reports[seq].wire_size);
    methods[std::string(method_name(reports[seq].method))] += 1;
    bandwidth.push_back(reports[seq].bandwidth_estimate_Bps);
  }
  add_end_to_end(result, e2e);
  result.verified = mismatches == 0;

  if (!options.traced()) return result;

  // ---- per-layer metrics (traced run) ----
  const double window_start = e2e.marks.front().at;
  const double window = e2e.window_end() - window_start;
  const Layers layers = analyse_trace(options, tracer, e2e.deliveries,
                                      window_start, e2e.window_end(), result);
  constexpr double kMiB = 1024.0 * 1024.0;
  const double measured = static_cast<double>(e2e.deliveries.size());
  result.metric("adaptive.plan_us", layer(layers, "adaptive.plan").mean_us(),
                "us");
  for (const char* m : {"none", "huffman", "lempel-ziv", "burrows-wheeler"}) {
    result.metric(std::string("adaptive.method_share.") + m,
                  measured > 0 ? methods[m] / measured : 0, "fraction");
  }
  result.metric("adaptive.bw_estimate_MiBps", quantile(bandwidth, 0.5) / kMiB,
                "MiB/s");
  const LayerStats encode = layer(layers, "compress.encode");
  result.metric("compress.encode_us", encode.mean_us(), "us");
  result.metric("compress.encode_MBps",
                encode.total_s > 0 ? e2e.payload_bytes / encode.total_s / 1e6 : 0,
                "MB/s");
  const SeriesTotal decode =
      series_delta(obs_before, obs_after, "acex.adaptive.rx.decode_us");
  result.metric("compress.decode_us",
                decode.count > 0 ? decode.sum / decode.count : 0, "us");
  result.metric("adaptive.receive_us",
                layer(layers, "adaptive.receive").mean_self_us(), "us");
  result.metric("transport.link_wait_us",
                layer(layers, "transport.link").mean_us(), "us");
  result.metric("transport.send_us", layer(layers, "transport.send").mean_us(),
                "us");
  result.metric("transport.recv_wait_us",
                layer(layers, "transport.recv_wait").mean_us(), "us");
  result.metric("transport.link_busy_frac",
                e2e.wire_bytes / kLinkBytesPerSecond / window,
                "fraction");
  return result;
}

}  // namespace acexbench
