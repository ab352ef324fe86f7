// Parallel compression engine (DESIGN.md §8): ThreadPool bounded-queue
// semantics and futures, run_in_order's in-order consumption under
// adversarial completion order and its unwind on a throw, and
// AdaptiveSender's multi-worker stream loop — serial-equivalent output,
// strictly ordered frames on the wire, registry freezing, and the
// 8-worker × 500-block mixed-workload stress run over a faulty transport.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "compress/frame.hpp"
#include "fixtures.hpp"
#include "engine/thread_pool.hpp"
#include "netsim/link.hpp"
#include "transport/fault_transport.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"
#include "workloads/molecular.hpp"
#include "workloads/transactions.hpp"

namespace acex {
namespace {

using engine::ThreadPool;

// ------------------------------------------------------------ ThreadPool

TEST(EngineThreadPool, RunsEveryTaskBeforeJoin) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
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
}

TEST(EngineThreadPool, BlockingSubmitWaitsForASlot) {
  ThreadPool pool(1);  // queue holds 2 × 1 tasks
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> started;
  pool.submit([opened, &started] {
    started.set_value();
    opened.wait();
  });
  started.get_future().wait();
  pool.submit([] {});  // fills the two queue slots
  pool.submit([] {});
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

// --------------------------------------------------------- run_in_order

TEST(EnginePipeline, ResequencesOutOfOrderCompletions) {
  ThreadPool pool(4);
  constexpr std::uint64_t kJobs = 64;
  // Earlier jobs sleep longer, so completion order inverts submission
  // order as hard as the window allows.
  std::vector<std::uint64_t> consumed;
  engine::run_in_order(
      &pool, kJobs,
      [&](std::size_t i) {
        // Jobs made but not yet consumed never exceed the window.
        EXPECT_LE(i - consumed.size(), 2 * pool.size());
        return [i] {
          std::this_thread::sleep_for(
              std::chrono::microseconds((kJobs - i) * 20));
          return std::uint64_t{i};
        };
      },
      [&](std::uint64_t value) { consumed.push_back(value); });
  ASSERT_EQ(consumed.size(), kJobs);
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(consumed[i], i);
  }
}

TEST(EnginePipeline, ThrowReturnsOnlyAfterSubmittedJobsFinish) {
  // Job 0 throws only after the window has filled behind it, so later jobs
  // are queued or running when the throw reaches the caller: run_in_order
  // must not return before every one of them has finished.
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  int at_return = 0;
  {
    ThreadPool pool(2);
    EXPECT_THROW(
        engine::run_in_order(
            &pool, 16,
            [&](std::size_t i) {
              return [&started, &finished, i] {
                started.fetch_add(1);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(i == 0 ? 20 : 30));
                finished.fetch_add(1);
                if (i == 0) throw DecodeError("boom");
                return static_cast<int>(i);
              };
            },
            [](int) {}),
        DecodeError);
    at_return = finished.load();
    EXPECT_EQ(started.load(), at_return);
  }  // the pool joins here: a job still queued would run now
  EXPECT_GT(at_return, 1);
  EXPECT_EQ(started.load(), at_return);
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
