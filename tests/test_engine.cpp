// Parallel compression engine (DESIGN.md §8): ThreadPool bounded-queue
// semantics, ReorderWindow ordered delivery + backpressure,
// ParallelBlockPipeline resequencing under adversarial completion order,
// and AdaptiveSender's multi-worker stream loop — serial-equivalent
// output, strictly ordered frames on the wire, registry freezing, and the
// 8-worker × 500-block mixed-workload stress run over a faulty transport.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "compress/frame.hpp"
#include "engine/block_pipeline.hpp"
#include "fixtures.hpp"
#include "engine/reorder_window.hpp"
#include "engine/thread_pool.hpp"
#include "netsim/link.hpp"
#include "obs/metrics.hpp"
#include "transport/fault_transport.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"
#include "workloads/molecular.hpp"
#include "workloads/transactions.hpp"

namespace acex {
namespace {

using engine::ParallelBlockPipeline;
using engine::ReorderWindow;
using engine::ThreadPool;

// ------------------------------------------------------------ ThreadPool

TEST(EngineThreadPool, RunsEveryTaskBeforeJoin) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4, 8);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains
  EXPECT_EQ(ran.load(), 100);
}

TEST(EngineThreadPool, ZeroThreadsResolvesToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.queue_capacity(), 2 * pool.size());
}

TEST(EngineThreadPool, TrySubmitRefusesWhenQueueFull) {
  ThreadPool pool(1, 1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> started;
  // Occupy the single worker until the gate opens...
  pool.submit([opened, &started] {
    started.set_value();
    opened.wait();
  });
  started.get_future().wait();
  // ...fill the single queue slot...
  ASSERT_TRUE(pool.try_submit([] {}));
  // ...and the queue must now refuse further work.
  EXPECT_FALSE(pool.try_submit([] {}));
  gate.set_value();
}

TEST(EngineThreadPool, BlockingSubmitWaitsForASlot) {
  ThreadPool pool(1, 1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> started;
  pool.submit([opened, &started] {
    started.set_value();
    opened.wait();
  });
  started.get_future().wait();
  pool.submit([] {});  // fills the queue slot
  std::atomic<bool> accepted{false};
  std::thread producer([&] {
    pool.submit([] {});  // must block until the worker frees a slot
    accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(accepted.load());
  gate.set_value();
  producer.join();
  EXPECT_TRUE(accepted.load());
}

// -------------------------------------------------------- ReorderWindow

TEST(EngineReorderWindow, DeliversInSequenceOrder) {
  ReorderWindow<int> window(8);
  window.push(2, 20);
  window.push(0, 0);
  window.push(1, 10);
  EXPECT_EQ(window.pop(), 0);
  EXPECT_EQ(window.pop(), 10);
  EXPECT_EQ(window.pop(), 20);
  EXPECT_EQ(window.next_sequence(), 3u);
}

TEST(EngineReorderWindow, TryPopOnlyWhenHeadReady) {
  ReorderWindow<int> window(8);
  int out = -1;
  EXPECT_FALSE(window.try_pop(out));
  window.push(1, 10);
  EXPECT_FALSE(window.try_pop(out));  // head (0) still missing
  window.push(0, 0);
  EXPECT_TRUE(window.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(window.try_pop(out));
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(window.try_pop(out));
}

TEST(EngineReorderWindow, PushFarAheadBlocksUntilConsumerCatchesUp) {
  ReorderWindow<int> window(2);
  window.push(0, 0);
  window.push(1, 10);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    window.push(2, 20);  // sequence 2 is outside [0, 2): must block
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load());  // backpressure held it
  EXPECT_EQ(window.pop(), 0);  // base advances, slot frees
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(window.pop(), 10);
  EXPECT_EQ(window.pop(), 20);
}

TEST(EngineReorderWindow, DuplicateSequenceThrows) {
  ReorderWindow<int> window(4);
  window.push(0, 0);
  EXPECT_THROW(window.push(0, 1), ConfigError);
  EXPECT_EQ(window.pop(), 0);
  EXPECT_THROW(window.push(0, 2), ConfigError);  // already delivered
}

TEST(EngineReorderWindow, CloseReleasesBlockedProducers) {
  ReorderWindow<int> window(1);
  window.push(0, 0);
  std::thread producer([&] { window.push(1, 10); });  // blocks
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  window.close();
  producer.join();  // released, value discarded
  SUCCEED();
}

TEST(EngineReorderWindow, ExactCapacityOccupancyAndBoundary) {
  // The window's memory bound, pinned at the exact edge: sequence
  // capacity-1 is the last admissible push while base == 0, capacity
  // itself must block, and each pop frees exactly one slot. The global
  // occupancy gauge is checked as a delta (other windows may coexist).
  constexpr std::size_t kCap = 4;
  obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("acex.engine.reorder_occupancy");
  const std::int64_t before = gauge.value();
  {
    ReorderWindow<int> window(kCap);
    EXPECT_EQ(window.capacity(), kCap);
    for (std::size_t s = kCap; s-- > 0;) {  // fill out of order, no block
      window.push(s, static_cast<int>(s * 10));
    }
    EXPECT_EQ(window.buffered(), kCap);
    EXPECT_EQ(gauge.value() - before, static_cast<std::int64_t>(kCap));

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
      window.push(kCap, static_cast<int>(kCap * 10));  // one past: blocks
      pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(window.pop(), 0);  // frees exactly one slot
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(window.buffered(), kCap);  // back at the exact bound

    for (std::size_t s = 1; s <= kCap; ++s) {
      EXPECT_EQ(window.pop(), static_cast<int>(s * 10));
    }
    EXPECT_EQ(window.buffered(), 0u);
    EXPECT_EQ(window.next_sequence(), kCap + 1);
    EXPECT_EQ(gauge.value(), before);
  }
  EXPECT_EQ(gauge.value(), before);  // empty-window destruction: no drift
}

// -------------------------------------------------- ParallelBlockPipeline

TEST(EnginePipeline, ResequencesOutOfOrderCompletions) {
  ThreadPool pool(4, 16);
  ParallelBlockPipeline<std::uint64_t> pipeline(pool, 16);
  constexpr std::uint64_t kJobs = 64;
  // Earlier jobs sleep longer, so completion order inverts submission
  // order as hard as the pool allows.  The driver drains the window
  // whenever it fills, as ParallelBlockPipeline's contract requires.
  std::vector<std::uint64_t> collected;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    while (pipeline.in_flight() >= pipeline.window_capacity()) {
      collected.push_back(pipeline.collect());
    }
    pipeline.submit([i] {
      std::this_thread::sleep_for(
          std::chrono::microseconds((kJobs - i) * 20));
      return i;
    });
  }
  while (collected.size() < kJobs) {
    collected.push_back(pipeline.collect());
  }
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(collected[i], i);
  }
  EXPECT_EQ(pipeline.in_flight(), 0u);
}

TEST(EnginePipeline, DestructorDrainsInFlightJobs) {
  std::atomic<int> ran{0};
  ThreadPool pool(2, 8);
  {
    ParallelBlockPipeline<int> pipeline(pool, 8);
    for (int i = 0; i < 8; ++i) {
      pipeline.submit([&ran, i] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ran.fetch_add(1);
        return i;
      });
    }
    // Collect nothing: the dtor must wait for all 8 and discard them.
  }
  EXPECT_EQ(ran.load(), 8);
}

// ------------------------------------------------------- CodecRegistry

TEST(EngineRegistry, FreezeRejectsLateRegistration) {
  CodecRegistry registry = CodecRegistry::with_builtins();
  EXPECT_FALSE(registry.frozen());
  registry.register_factory(static_cast<MethodId>(200),
                            [] { return make_codec(MethodId::kNone); });
  registry.freeze();
  EXPECT_TRUE(registry.frozen());
  EXPECT_THROW(registry.register_factory(
                   static_cast<MethodId>(201),
                   [] { return make_codec(MethodId::kNone); }),
               ConfigError);
  // Reads keep working.
  EXPECT_TRUE(registry.contains(static_cast<MethodId>(200)));
  EXPECT_NE(registry.create(MethodId::kHuffman), nullptr);
}

TEST(EngineRegistry, ConcurrentCreateOnFrozenRegistryIsSafe) {
  CodecRegistry registry = CodecRegistry::with_builtins();
  registry.freeze();
  std::vector<std::thread> readers;
  std::atomic<int> created{0};
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&registry, &created] {
      for (int i = 0; i < 50; ++i) {
        const CodecPtr codec = registry.create(MethodId::kLempelZiv);
        if (codec) created.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(created.load(), 8 * 50);
}

// ------------------------------------------- multi-worker AdaptiveSender

adaptive::AdaptiveConfig engine_config(std::size_t workers) {
  adaptive::AdaptiveConfig config;
  config.async_sampling = false;  // deterministic
  config.decision.block_size = 4096;
  config.decision.sample_size = 1024;
  config.worker_threads = workers;
  return config;
}

/// Mixed molecular + transactional bytes: compressible and incompressible
/// regions interleaved, so the selector exercises several methods.
Bytes mixed_workload(std::size_t blocks, std::size_t block_size) {
  workloads::MolecularConfig mc;
  mc.atom_count = 512;
  workloads::MolecularGenerator molecular(mc);
  workloads::TransactionGenerator transactions(7);
  Bytes data;
  data.reserve(blocks * block_size);
  while (data.size() < blocks * block_size) {
    const Bytes snapshot = molecular.pbio_snapshot();
    data.insert(data.end(), snapshot.begin(), snapshot.end());
    molecular.step();
    const Bytes text = transactions.text_block(block_size);
    data.insert(data.end(), text.begin(), text.end());
  }
  data.resize(blocks * block_size);
  return data;
}

/// What the 1-worker sender delivers for `data` over a clean link.
Bytes serial_payload(const Bytes& data) {
  SimWire wire(1e8);
  adaptive::AdaptiveSender serial(wire.duplex.a(), engine_config(1));
  serial.send_all(data);
  return adaptive::AdaptiveReceiver(wire.duplex.b()).receive_available();
}

using ParallelSenderTest = SimWireTest;

TEST_F(ParallelSenderTest, SingleWorkerDelegatesToSerialPath) {
  wire(1e8);
  adaptive::AdaptiveSender sender(duplex_->a(), engine_config(1));
  const Bytes data = mixed_workload(8, 4096);
  const auto stream = sender.send_all(data);
  EXPECT_EQ(stream.blocks.size(), 8u);
  // The serial path builds no pool, so it never freezes the registry.
  EXPECT_FALSE(sender.registry().frozen());
  adaptive::AdaptiveReceiver receiver(duplex_->b());
  EXPECT_EQ(receiver.receive_available(), data);
}

TEST_F(ParallelSenderTest, ParallelPayloadMatchesSerialByteForByte) {
  const Bytes data = mixed_workload(32, 4096);
  const Bytes serial = serial_payload(data);
  ASSERT_EQ(serial, data);

  // Parallel run, 4 workers.
  wire(1e8);
  adaptive::AdaptiveSender parallel(duplex_->a(), engine_config(4));
  const auto stream = parallel.send_all(data);
  EXPECT_EQ(stream.blocks.size(), 32u);
  EXPECT_TRUE(parallel.registry().frozen());
  adaptive::AdaptiveReceiver receiver(duplex_->b());
  EXPECT_EQ(receiver.receive_available(), serial);
}

TEST_F(ParallelSenderTest, FramesLeaveInStrictlyIncreasingSequenceOrder) {
  wire(1e8);
  adaptive::AdaptiveSender sender(duplex_->a(), engine_config(4));
  const Bytes data = mixed_workload(40, 4096);
  sender.send_all(data);

  std::uint64_t expected = 0;
  while (auto message = duplex_->b().receive()) {
    const Frame frame = frame_parse(*message);
    EXPECT_EQ(frame.sequence, expected) << "frame out of order on the wire";
    ++expected;
  }
  EXPECT_EQ(expected, 40u);
}

TEST_F(ParallelSenderTest, ReportsMatchBlockOrderAndSizes) {
  wire(1e8);
  adaptive::AdaptiveSender sender(duplex_->a(), engine_config(4));
  const Bytes data = mixed_workload(16, 4096);
  const auto stream = sender.send_all(data);
  ASSERT_EQ(stream.blocks.size(), 16u);
  for (std::size_t i = 0; i < stream.blocks.size(); ++i) {
    EXPECT_EQ(stream.blocks[i].index, i);
    EXPECT_EQ(stream.blocks[i].original_size, 4096u);
    EXPECT_GT(stream.blocks[i].wire_size, 0u);
  }
  EXPECT_EQ(stream.original_bytes, data.size());
}

TEST_F(ParallelSenderTest, FixedMethodRoundTripsAndStaysFixed) {
  wire(1e8);
  adaptive::AdaptiveSender sender(duplex_->a(), engine_config(4));
  const Bytes data = mixed_workload(12, 4096);
  const auto stream =
      sender.send_all_fixed(data, MethodId::kBurrowsWheeler);
  ASSERT_EQ(stream.blocks.size(), 12u);
  for (const auto& block : stream.blocks) {
    EXPECT_EQ(block.method, MethodId::kBurrowsWheeler);
    EXPECT_FALSE(block.fallback);
  }
  adaptive::AdaptiveReceiver receiver(duplex_->b());
  EXPECT_EQ(receiver.receive_available(), data);
}

// Worker-side failures on the no-degradation baseline path must surface
// on the driver thread.
TEST_F(ParallelSenderTest, FixedSendPropagatesWorkerCodecFailure) {
  wire(1e8);
  auto config = engine_config(4);
  adaptive::AdaptiveSender sender(duplex_->a(), config);
  sender.registry().register_factory(
      MethodId::kBurrowsWheeler, [] { return std::make_unique<ThrowingCodec>(); });
  const Bytes data = mixed_workload(8, 4096);
  EXPECT_THROW(sender.send_all_fixed(data, MethodId::kBurrowsWheeler),
               DecodeError);
}

TEST_F(ParallelSenderTest, AdaptiveSendDegradesInsteadOfThrowing) {
  wire(1e8);
  adaptive::AdaptiveSender sender(duplex_->a(), engine_config(4));
  sender.registry().register_factory(
      MethodId::kBurrowsWheeler, [] { return std::make_unique<ThrowingCodec>(); });
  sender.registry().register_factory(
      MethodId::kLempelZiv, [] { return std::make_unique<ThrowingCodec>(); });
  sender.registry().register_factory(
      MethodId::kHuffman, [] { return std::make_unique<ThrowingCodec>(); });
  const Bytes data = mixed_workload(10, 4096);
  const auto stream = sender.send_all(data);  // must not throw
  EXPECT_EQ(stream.blocks.size(), 10u);
  adaptive::AdaptiveReceiver receiver(duplex_->b());
  EXPECT_EQ(receiver.receive_available(), data);
}

TEST_F(ParallelSenderTest, EmptyStreamIsANoOp) {
  wire(1e8);
  adaptive::AdaptiveSender sender(duplex_->a(), engine_config(4));
  const auto stream = sender.send_all(Bytes{});
  EXPECT_TRUE(stream.blocks.empty());
  EXPECT_FALSE(duplex_->b().receive().has_value());
}

// --------------------------------------------------- concurrency stress

// Satellite acceptance: 8 workers × 500 blocks of mixed molecular +
// transactional data through an 8-worker AdaptiveSender over a
// FaultInjectingTransport (reorders + duplicates — nothing destroyed),
// asserting byte-identical reassembly versus the serial path and zero
// sequence gaps.
TEST_F(ParallelSenderTest, StressEightWorkers500BlocksOverFaultyTransport) {
  constexpr std::size_t kBlocks = 500;
  constexpr std::size_t kBlockSize = 4096;
  const Bytes data = mixed_workload(kBlocks, kBlockSize);

  const Bytes serial = serial_payload(data);  // over a clean link
  ASSERT_EQ(serial, data);

  // Parallel run over a reordering, duplicating link.
  wire(1e8);
  transport::FaultConfig faults;
  faults.reorder_prob = 0.10;
  faults.duplicate_prob = 0.05;
  faults.seed = 11;
  transport::FaultInjectingTransport lossy(duplex_->a(), faults);
  adaptive::AdaptiveSender sender(lossy, engine_config(8));
  const auto stream = sender.send_all(data);
  EXPECT_EQ(stream.blocks.size(), kBlocks);
  lossy.flush();

  adaptive::ReceiverConfig rx_config;
  rx_config.policy = adaptive::RecoveryPolicy::kSkip;
  adaptive::AdaptiveReceiver receiver(duplex_->b(), rx_config);
  const auto report = receiver.receive_report();

  EXPECT_EQ(report.gaps.size(), 0u) << "sequence gaps after reassembly";
  EXPECT_EQ(report.frames_corrupt, 0u);
  EXPECT_EQ(report.frames_ok, kBlocks);
  EXPECT_EQ(report.data, serial) << "reassembly diverged from serial";
  EXPECT_EQ(report.data, data);
}

}  // namespace
}  // namespace acex
