// Tests for the rate-limited transport decorator and the two-worker
// (compress-ahead) sender mode: over real sockets, and a deterministic
// check that block i+1 compresses while block i is on the wire.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "adaptive/pipeline.hpp"
#include "compress/frame.hpp"
#include "fixtures.hpp"
#include "transport/rate_limit.hpp"
#include "transport/tcp_transport.hpp"
#include "util/error.hpp"
#include "workloads/transactions.hpp"

namespace acex {
namespace {

// ------------------------------------------------------------ rate limit

TEST(RateLimit, EnforcesAverageRate) {
  auto [a, b] = transport::socket_pair();
  transport::RateLimitedTransport limited(a, /*bytes_per_second=*/2e6,
                                          /*burst_bytes=*/16 * 1024);

  std::thread drain([&b] {
    while (b.receive().has_value()) {
    }
  });

  MonotonicClock clock;
  const Stopwatch sw(clock);
  const Bytes chunk(16 * 1024, 0x5A);
  constexpr int kChunks = 50;  // 800 KB at 2 MB/s: ~0.4 s
  for (int i = 0; i < kChunks; ++i) limited.send(chunk);
  const Seconds elapsed = sw.elapsed();
  a.shutdown_send();
  drain.join();

  const double rate =
      static_cast<double>(chunk.size()) * kChunks / elapsed;
  EXPECT_LT(rate, 3.5e6);  // at most modestly above the configured rate
  EXPECT_GT(rate, 0.8e6);  // but the limiter must not stall either
}

TEST(RateLimit, BurstPassesImmediately) {
  auto [a, b] = transport::socket_pair();
  transport::RateLimitedTransport limited(a, 1000.0, 64 * 1024);
  MonotonicClock clock;
  const Stopwatch sw(clock);
  limited.send(Bytes(32 * 1024, 1));  // within the initial burst
  EXPECT_LT(sw.elapsed(), 0.1);
  EXPECT_TRUE(b.receive().has_value());
}

TEST(RateLimit, OversizedMessageStillProgresses) {
  auto [a, b] = transport::socket_pair();
  transport::RateLimitedTransport limited(a, 1e7, 1024);
  std::thread drain([&b] { (void)b.receive(); });
  limited.send(Bytes(8 * 1024, 2));  // 8x the burst
  drain.join();
}

TEST(RateLimit, ReceivePassesThrough) {
  auto [a, b] = transport::socket_pair();
  transport::RateLimitedTransport limited(a, 1e6);
  b.send(to_bytes("hello"));
  const auto got = limited.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(*got), "hello");
}

TEST(RateLimit, RejectsBadParameters) {
  auto [a, b] = transport::socket_pair();
  EXPECT_THROW(transport::RateLimitedTransport(a, 0.0), ConfigError);
  EXPECT_THROW(transport::RateLimitedTransport(a, -5.0), ConfigError);
  EXPECT_THROW(transport::RateLimitedTransport(a, 1e6, 0), ConfigError);
}

// ------------------------------------------------------- pipelined sender

TEST(PipelinedSender, RoundTripsOverSockets) {
  auto [client, server] = transport::socket_pair();
  workloads::TransactionGenerator gen(1);
  const Bytes data = gen.text_block(2 * 1024 * 1024 + 12345);  // odd tail

  std::thread sender_thread([&client, &data] {
    adaptive::AdaptiveConfig config;
    config.initial_bandwidth_Bps = 1e6;  // pessimistic: will compress
    config.worker_threads = 2;
    adaptive::AdaptiveSender sender(client, config);
    const auto report = sender.send_all(data);
    EXPECT_EQ(report.original_bytes, data.size());
    EXPECT_EQ(report.blocks.size(), 17u);
    // Indices must be sequential despite the overlap.
    for (std::size_t i = 0; i < report.blocks.size(); ++i) {
      EXPECT_EQ(report.blocks[i].index, i);
    }
    client.shutdown_send();
  });

  adaptive::AdaptiveReceiver receiver(server);
  const Bytes restored = receiver.receive_available();
  sender_thread.join();
  EXPECT_EQ(restored, data);
}

TEST(PipelinedSender, EmptyInputYieldsEmptyReport) {
  auto [client, server] = transport::socket_pair();
  adaptive::AdaptiveConfig config;
  config.worker_threads = 2;
  adaptive::AdaptiveSender sender(client, config);
  const auto report = sender.send_all(Bytes{});
  EXPECT_TRUE(report.blocks.empty());
  EXPECT_EQ(report.total_seconds, 0.0);
}

/// Rendezvous between the codec (worker side) and the transport (driver
/// side). Waits give up after 10 s and record it, so a sender that fails
/// to overlap fails the test instead of hanging it.
struct OverlapLatch {
  std::mutex mutex;
  std::condition_variable cv;
  bool block1_encoding = false;
  bool block0_sending = false;
  bool timed_out = false;

  void set(bool& flag) {
    std::lock_guard<std::mutex> lock(mutex);
    flag = true;
    cv.notify_all();
  }
  void wait(const bool& flag) {
    std::unique_lock<std::mutex> lock(mutex);
    timed_out |=
        !cv.wait_for(lock, std::chrono::seconds(10), [&] { return flag; });
  }
};

/// Null-output codec that tells blocks apart by their fill byte (block i
/// is all i). Block 0's encode holds until block 1's has started, so the
/// driver cannot ship block 0 before block 1 is in flight; block 1's
/// encode holds until block 0's send has begun.
class LatchCodec final : public Codec {
 public:
  explicit LatchCodec(OverlapLatch& latch) : latch_(&latch) {}
  MethodId id() const noexcept override { return MethodId::kNone; }
  Bytes compress(ByteView data) override {
    if (data[0] == 0) latch_->wait(latch_->block1_encoding);
    if (data[0] == 1) {
      latch_->set(latch_->block1_encoding);
      latch_->wait(latch_->block0_sending);
    }
    return Bytes(data.begin(), data.end());
  }
  Bytes decompress(ByteView data) override {
    return Bytes(data.begin(), data.end());
  }

 private:
  OverlapLatch* latch_;
};

/// Its first send() (block 0's frame) waits for block 1's encode to start.
class GatedTransport final : public CaptureTransport {
 public:
  explicit GatedTransport(OverlapLatch& latch) : latch_(&latch) {}
  void send(ByteView message) override {
    if (frames.empty()) {
      latch_->wait(latch_->block1_encoding);
      latch_->set(latch_->block0_sending);
    }
    CaptureTransport::send(message);
  }

 private:
  OverlapLatch* latch_;
};

TEST(PipelinedSender, EncodeOfNextBlockOverlapsSend) {
  // The overlap the paper's alpha < 1 credit presumes, with no wall-clock
  // threshold: block 0's send must find block 1's encode already running.
  OverlapLatch latch;
  GatedTransport wire(latch);
  adaptive::AdaptiveConfig config;
  config.decision.block_size = 4096;
  config.worker_threads = 2;
  adaptive::AdaptiveSender sender(wire, config);
  sender.registry().register_factory(
      MethodId::kNone,
      [&latch] { return std::make_unique<LatchCodec>(latch); });

  Bytes data;
  for (std::uint8_t block = 0; block < 4; ++block) {
    data.insert(data.end(), 4096, block);
  }
  const auto report = sender.send_all_fixed(data, MethodId::kNone);

  EXPECT_FALSE(latch.timed_out)
      << "block 1 did not encode during block 0's send";
  EXPECT_EQ(report.blocks.size(), 4u);
  ASSERT_EQ(wire.frames.size(), 4u);
  for (std::size_t i = 0; i < wire.frames.size(); ++i) {
    EXPECT_EQ(frame_parse(wire.frames[i]).sequence, i);
  }
}

}  // namespace
}  // namespace acex
