#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "broker/broker.hpp"
#include "broker/egress_queue.hpp"
#include "compress/frame.hpp"
#include "fixtures.hpp"
#include "obs/metrics.hpp"
#include "shm/bus.hpp"
#include "shm/ring.hpp"
#include "shm/segment.hpp"
#include "testdata.hpp"
#include "util/buffer_view.hpp"
#include "util/crc32.hpp"

namespace acex {
namespace {

Bytes pattern(std::size_t size, std::uint8_t seed = 7) {
  Bytes out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return out;
}

bool within(const void* p, const void* base, std::size_t size) {
  const auto* b = static_cast<const std::uint8_t*>(base);
  const auto* q = static_cast<const std::uint8_t*>(p);
  return q >= b && q < b + size;
}

// ---------------------------------------------------------- BufferView

TEST(BufferView, OwnCopyBorrowSemantics) {
  Bytes data = pattern(64);
  const std::uint8_t* raw = data.data();

  BufferView owned = BufferView::own(std::move(data));
  EXPECT_EQ(owned.data(), raw);  // own() adopts, never copies
  EXPECT_TRUE(owned.has_owner());
  EXPECT_NE(owned.owner_key(), nullptr);

  BufferView copied = BufferView::copy(owned);
  EXPECT_NE(copied.data(), owned.data());
  EXPECT_TRUE(copied == owned);

  Bytes backing = pattern(32, 3);
  BufferView borrowed = BufferView::borrow(backing);
  EXPECT_EQ(borrowed.data(), backing.data());
  EXPECT_FALSE(borrowed.has_owner());
  EXPECT_EQ(borrowed.owner_key(), nullptr);
}

TEST(BufferView, SubviewSharesOwnerAndAliases) {
  BufferView whole = BufferView::own(pattern(100));
  BufferView part = whole.subview(10, 20);
  EXPECT_EQ(part.data(), whole.data() + 10);
  EXPECT_EQ(part.size(), 20u);
  // Shared owner: the sliced view keeps the whole buffer alive, and
  // share-aware accounting sees them as one allocation.
  EXPECT_EQ(part.owner_key(), whole.owner_key());
}

TEST(BufferView, ViewKeepsBackingAliveAfterSourceDies) {
  BufferView survivor;
  {
    BufferView original = BufferView::own(pattern(256, 11));
    survivor = original.subview(8, 64);
  }
  const Bytes expect = pattern(256, 11);
  EXPECT_TRUE(survivor == ByteView(expect.data() + 8, 64));
}

// -------------------------------------------------- frame_parse aliasing

TEST(FrameZeroCopy, BufferViewParseAliasesWireBytes) {
  const Bytes payload = pattern(300);
  BufferView wire = BufferView::own(
      frame_build_seq(MethodId::kNone, payload, crc32(payload), 42));

  const Frame frame = frame_parse(wire);
  // Zero-copy contract: the payload points INTO the wire buffer and
  // shares its owner, so it stays valid for the Frame's whole life.
  EXPECT_TRUE(within(frame.payload.data(), wire.data(), wire.size()));
  EXPECT_EQ(frame.payload.owner_key(), wire.owner_key());
  EXPECT_TRUE(frame.payload == ByteView(payload));
  EXPECT_EQ(frame.sequence, 42u);
}

TEST(FrameZeroCopy, ByteViewParseStillCopies) {
  const Bytes payload = pattern(128);
  const Bytes wire =
      frame_build_seq(MethodId::kNone, payload, crc32(payload), 1);
  const Frame frame = frame_parse(ByteView(wire));
  // Historical contract: a Frame parsed from a plain span outlives it.
  EXPECT_FALSE(within(frame.payload.data(), wire.data(), wire.size()));
  EXPECT_TRUE(frame.payload == ByteView(payload));
}

TEST(FrameZeroCopy, BuildIntoIsByteIdentical) {
  const Bytes payload = pattern(1000, 5);
  const std::uint32_t crc = crc32(payload);
  const std::vector<std::uint64_t> sequences = {0, 1, 127, 128, 1 << 20};
  for (const std::uint64_t seq : sequences) {
    const Bytes reference =
        frame_build_seq(MethodId::kHuffman, payload, crc, seq);
    Bytes staged(reference.size() + 8, 0xEE);
    const std::size_t written = frame_build_seq_into(
        staged.data(), MethodId::kHuffman, payload, crc, seq);
    ASSERT_EQ(written, reference.size());
    EXPECT_EQ(0, std::memcmp(staged.data(), reference.data(), written));
  }
}

// ------------------------------------------------------------- segment

TEST(ShmSegment, CreateAttachShareBytesAndUnlink) {
  const std::string name = "/acex-test-seg-" + std::to_string(::getpid());
  shm::ShmSegment created = shm::ShmSegment::create(name, 4096);
  std::memcpy(created.data(), "hello", 5);

  shm::ShmSegment attached = shm::ShmSegment::attach(name);
  ASSERT_EQ(attached.size(), 4096u);
  EXPECT_EQ(0, std::memcmp(attached.data(), "hello", 5));
  // Writes travel the other way too: it is one memory, two mappings.
  std::memcpy(attached.data(), "world", 5);
  EXPECT_EQ(0, std::memcmp(created.data(), "world", 5));

  created.unlink();
  created.unlink();  // idempotent
  EXPECT_THROW(shm::ShmSegment::attach(name), shm::ShmError);
  // Existing mappings survive the unlink (POSIX lifecycle).
  EXPECT_EQ(0, std::memcmp(attached.data(), "world", 5));
}

TEST(ShmSegment, CreateReplacesStaleSegment) {
  const std::string name = "/acex-test-stale-" + std::to_string(::getpid());
  shm::ShmSegment first = shm::ShmSegment::create(name, 1024);
  first.release_name();  // simulate a crash: name left behind
  shm::ShmSegment second = shm::ShmSegment::create(name, 2048);
  EXPECT_EQ(second.size(), 2048u);
  second.unlink();
}

TEST(ShmSegment, TruncatedSegmentAttachRejected) {
  const std::string name = "/acex-test-trunc-" + std::to_string(::getpid());
  shm::RingConfig cfg;
  cfg.slab_count = 8;
  cfg.slab_size = 4096;
  // A segment far smaller than the ring it would need to hold.
  shm::ShmSegment lying = shm::ShmSegment::create(name, 512);
  EXPECT_THROW(shm::SlabRing(lying, cfg), shm::ShmError);

  // Attach side: a header claiming more slabs than the mapping covers
  // must be rejected before any slab is touched.
  shm::RingConfig small;
  small.slab_count = 1;
  small.slab_size = 64;
  shm::ShmSegment seg =
      shm::ShmSegment::anonymous(shm::SlabRing::segment_size(small));
  shm::SlabRing ring(seg, small);
  auto* header = static_cast<std::uint32_t*>(seg.data());
  header[2] = 1000;  // slab_count field: claim 1000 slabs
  EXPECT_THROW(shm::SlabRing(seg, small, /*attach=*/true), shm::ShmError);
  lying.unlink();
}

// ------------------------------------------------------------ slab ring

shm::RingConfig tiny_ring(std::size_t slabs, std::size_t slab_size) {
  shm::RingConfig cfg;
  cfg.slab_count = slabs;
  cfg.slab_size = slab_size;
  cfg.reclaim_wait = 0;  // force-reclaim immediately when full
  return cfg;
}

TEST(SlabRing, PublishResolveRoundTripInPlace) {
  const auto cfg = tiny_ring(4, 512);
  shm::ShmSegment seg =
      shm::ShmSegment::anonymous(shm::SlabRing::segment_size(cfg));
  shm::SlabRing ring(seg, cfg);

  const Bytes data = pattern(200);
  auto slab = ring.acquire(data.size());
  std::memcpy(slab.data, data.data(), data.size());
  BufferView view = ring.publish(slab, data.size());
  EXPECT_TRUE(view == ByteView(data));
  EXPECT_TRUE(within(view.data(), seg.data(), seg.size()));

  const auto desc = ring.descriptor_of(view);
  ASSERT_TRUE(desc.has_value());
  ASSERT_TRUE(ring.add_ref(*desc));
  BufferView reader = ring.resolve(*desc);
  // Same bytes, same memory: the consumer mapped the payload in place.
  EXPECT_EQ(reader.data(), view.data());
  EXPECT_EQ(ring.stats().slabs_in_use, 1u);
}

TEST(SlabRing, PinsBlockReuseUntilReleased) {
  const auto cfg = tiny_ring(2, 256);
  shm::ShmSegment seg =
      shm::ShmSegment::anonymous(shm::SlabRing::segment_size(cfg));
  shm::SlabRing ring(seg, cfg);

  std::vector<BufferView> views;
  for (int i = 0; i < 2; ++i) {
    auto slab = ring.acquire(16);
    views.push_back(ring.publish(slab, 16));
  }
  EXPECT_EQ(ring.stats().slabs_in_use, 2u);
  views.clear();  // releases both pins
  EXPECT_EQ(ring.stats().slabs_in_use, 0u);
  // And both slabs are claimable again without any reclaim force.
  auto a = ring.acquire(16);
  auto b = ring.acquire(16);
  (void)a;
  (void)b;
  EXPECT_EQ(ring.stats().force_reclaims, 0u);
}

TEST(SlabRing, ViewOutlivingItsSlabIsRejectedTyped) {
  const auto cfg = tiny_ring(2, 256);
  shm::ShmSegment seg =
      shm::ShmSegment::anonymous(shm::SlabRing::segment_size(cfg));
  shm::SlabRing ring(seg, cfg);

  auto s1 = ring.acquire(8);
  BufferView oldest = ring.publish(s1, 8);
  const auto stale_desc = ring.descriptor_of(oldest);
  ASSERT_TRUE(stale_desc.has_value());
  auto s2 = ring.acquire(8);
  BufferView second = ring.publish(s2, 8);

  // Ring full, both pinned: the next acquire must NOT stall — it force-
  // reclaims the oldest published slab after the (zero) bounded wait.
  auto s3 = ring.acquire(8);
  BufferView third = ring.publish(s3, 8);
  EXPECT_EQ(ring.stats().force_reclaims, 1u);

  // The reclaimed slab's descriptor is now a different generation:
  // resolving it fails TYPED instead of yielding the new tenant's bytes.
  EXPECT_THROW(ring.resolve(*stale_desc), shm::ShmStaleError);
  // A transfer-pin attempt fails the same way (sender falls back to copy).
  EXPECT_FALSE(ring.add_ref(*stale_desc));

  // The outlived view's eventual release is a no-op on the slab's new
  // life: counted as stale, refcount untouched.
  const auto before = ring.stats();
  oldest = BufferView();
  const auto after = ring.stats();
  EXPECT_EQ(after.stale_releases, before.stale_releases + 1);
  EXPECT_EQ(after.slabs_in_use, before.slabs_in_use);
}

TEST(SlabRing, ForceReclaimNeverVictimizesInFlightWrite) {
  const auto cfg = tiny_ring(2, 256);
  shm::ShmSegment seg =
      shm::ShmSegment::anonymous(shm::SlabRing::segment_size(cfg));
  shm::SlabRing ring(seg, cfg);

  // One writer claims a slab and is still filling it (not yet published) —
  // the broker-pump-vs-frame-builder concurrency shape. Its slab carries
  // no publish stamp, which used to make it the preferred reclaim victim.
  auto writing = ring.acquire(64);
  // A second writer publishes the other slab; its view pins it.
  const Bytes payload = pattern(64, 5);
  auto other = ring.acquire(64);
  std::memcpy(other.data, payload.data(), payload.size());
  BufferView published = ring.publish(other, payload.size());

  // Ring full, bounded wait zero: the force-reclaim victim must be the
  // PUBLISHED slab, never the write in flight.
  auto third = ring.acquire(64);
  EXPECT_EQ(ring.stats().force_reclaims, 1u);
  EXPECT_EQ(third.index, other.index);
  EXPECT_NE(third.index, writing.index);

  // The in-flight write completes untouched and round-trips.
  std::memcpy(writing.data, payload.data(), payload.size());
  BufferView done = ring.publish(writing, payload.size());
  EXPECT_TRUE(done == ByteView(payload));
  const auto desc = ring.descriptor_of(done);
  ASSERT_TRUE(desc.has_value());
  EXPECT_TRUE(ring.add_ref(*desc));
  ring.drop_ref(*desc);
  ring.abandon(third);
}

// ----------------------------------------------------- descriptor codec

TEST(ShmDescriptor, WireRoundTripAndCorruptionRejected) {
  shm::SlabDescriptor desc;
  desc.offset = 5 * 4096;
  desc.generation = 99;
  desc.length = 1234;
  const Bytes wire = shm::encode_descriptor(desc);
  const shm::SlabDescriptor back = shm::decode_descriptor(wire);
  EXPECT_EQ(back.offset, desc.offset);
  EXPECT_EQ(back.generation, desc.generation);
  EXPECT_EQ(back.length, desc.length);

  // Every single-byte corruption must be caught by magic, structure, or
  // descriptor CRC — never resolved into an arena dereference.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes bad = wire;
    bad[i] ^= 0x40;
    EXPECT_THROW(shm::decode_descriptor(bad), DecodeError) << "byte " << i;
  }
  EXPECT_THROW(shm::decode_descriptor(ByteView(wire.data(), 3)), DecodeError);
}

// -------------------------------------------------------- shm transport

TEST(ShmEndpoint, SendReceiveArbitraryBytesViaStaging) {
  shm::ShmBusConfig cfg;
  cfg.ring = tiny_ring(8, 1024);
  shm::ShmBus bus(cfg);
  auto ep = bus.endpoint();

  const Bytes a = pattern(100, 1);
  const Bytes b = pattern(900, 2);
  ep->send(a);
  ep->send(b);
  EXPECT_EQ(ep->depth(), 2u);
  EXPECT_EQ(*ep->receive(), a);
  EXPECT_EQ(*ep->receive(), b);
  EXPECT_FALSE(ep->receive().has_value());
  // Plain send() is the copy path by definition.
  EXPECT_EQ(bus.stats().copy_fallbacks, 2u);
  EXPECT_EQ(ep->stats().zero_copy_sends, 0u);
}

TEST(ShmEndpoint, SlabBackedViewsShipDescriptorOnly) {
  shm::ShmBusConfig cfg;
  cfg.ring = tiny_ring(8, 4096);
  shm::ShmBus bus(cfg);
  auto ep = bus.endpoint();

  const Bytes payload = pattern(700, 9);
  BufferView frame = bus.frame_builder()(MethodId::kNone, payload,
                                         crc32(payload), 3);
  ep->send_buffer(frame);
  EXPECT_EQ(ep->stats().zero_copy_sends, 1u);
  EXPECT_EQ(bus.stats().copy_fallbacks, 0u);

  std::optional<BufferView> wire = ep->receive_buffer();
  ASSERT_TRUE(wire.has_value());
  // The received view IS the staged slab — the same mapped bytes the
  // producer framed into, not a copy.
  EXPECT_EQ(wire->data(), frame.data());
  const Frame parsed = frame_parse(*wire);
  EXPECT_TRUE(within(parsed.payload.data(), bus.segment().data(),
                     bus.segment().size()));
  const CodecRegistry registry = CodecRegistry::with_builtins();
  EXPECT_EQ(frame_decode(parsed, registry), payload);
  EXPECT_EQ(parsed.sequence, 3u);
}

TEST(ShmEndpoint, StaleDescriptorsAreCountedAndSkipped) {
  shm::ShmBusConfig cfg;
  cfg.ring = tiny_ring(2, 512);
  shm::ShmBus bus(cfg);
  auto ep = bus.endpoint();

  // Three sends through a two-slab ring: staging the third forcibly
  // reclaims the oldest queued payload, whose descriptor goes stale.
  ep->send(pattern(64, 1));
  ep->send(pattern(64, 2));
  ep->send(pattern(64, 3));
  EXPECT_EQ(bus.ring().stats().force_reclaims, 1u);

  std::vector<Bytes> got;
  while (auto m = ep->receive()) got.push_back(std::move(*m));
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], pattern(64, 2));
  EXPECT_EQ(got[1], pattern(64, 3));
  EXPECT_EQ(ep->stats().stale_descriptors, 1u);
}

TEST(ShmEndpoint, InjectedGarbageOnlySkipsAndCounts) {
  shm::ShmBusConfig cfg;
  cfg.ring = tiny_ring(4, 512);
  shm::ShmBus bus(cfg);
  auto ep = bus.endpoint();

  ep->inject_raw(Bytes{});                     // empty
  ep->inject_raw(Bytes{1, 2, 3});              // short garbage
  ep->inject_raw(pattern(40, 17));             // long garbage
  // A well-formed descriptor whose geometry lies beyond the arena.
  shm::SlabDescriptor forged;
  forged.offset = 512u * 1000;
  forged.generation = 1;
  forged.length = 10;
  ep->inject_raw(shm::encode_descriptor(forged));
  ep->send(pattern(16, 4));  // one real message behind the garbage

  EXPECT_EQ(*ep->receive(), pattern(16, 4));
  EXPECT_FALSE(ep->receive().has_value());
  EXPECT_EQ(ep->stats().corrupt_descriptors, 4u);
}

TEST(ShmEndpoint, OverflowDropsOldestAndReturnsReferences) {
  shm::ShmBusConfig cfg;
  cfg.ring = tiny_ring(8, 512);
  cfg.queue_capacity = 2;
  shm::ShmBus bus(cfg);
  auto ep = bus.endpoint();

  for (int i = 0; i < 5; ++i) ep->send(pattern(32, static_cast<std::uint8_t>(i)));
  EXPECT_EQ(ep->depth(), 2u);
  EXPECT_EQ(ep->stats().queue_drops, 3u);
  // Dropped descriptors gave their slab references back immediately:
  // only the two still-queued payloads pin slabs.
  EXPECT_EQ(bus.ring().stats().slabs_in_use, 2u);
  EXPECT_EQ(*ep->receive(), pattern(32, 3));
  EXPECT_EQ(*ep->receive(), pattern(32, 4));
}

TEST(ShmEndpoint, OversizedSendDeliversOutOfBand) {
  shm::ShmBusConfig cfg;
  cfg.ring = tiny_ring(4, 256);
  shm::ShmBus bus(cfg);
  auto ep = bus.endpoint();

  // Larger than any slab: must still arrive (as a counted copy), never
  // throw out of the transport contract.
  const Bytes big = pattern(1000, 7);
  ep->send(big);
  EXPECT_EQ(ep->depth(), 1u);
  EXPECT_EQ(*ep->receive(), big);
  EXPECT_EQ(ep->stats().oob_sends, 1u);
  EXPECT_EQ(bus.stats().copy_fallbacks, 1u);
  // The ring was never touched — nothing staged, nothing pinned.
  EXPECT_EQ(bus.ring().stats().acquires, 0u);
  EXPECT_EQ(bus.ring().stats().slabs_in_use, 0u);
}

TEST(ShmEndpoint, OversizedFrameBuilderViewShipsSharedHeapBuffer) {
  shm::ShmBusConfig cfg;
  cfg.ring = tiny_ring(4, 256);
  shm::ShmBus bus(cfg);
  auto ep = bus.endpoint();

  // The frame builder's heap fallback for a frame no slab can hold.
  const Bytes payload = pattern(900, 9);
  BufferView frame = bus.frame_builder()(MethodId::kNone, payload,
                                         crc32(payload), 7);
  EXPECT_EQ(bus.stats().copy_fallbacks, 1u);

  // send_buffer delivers the SAME heap buffer out of band: shared
  // ownership, zero additional copies, no exception into the pump.
  ep->send_buffer(frame);
  EXPECT_EQ(ep->stats().oob_sends, 1u);
  EXPECT_EQ(ep->stats().zero_copy_sends, 0u);

  std::optional<BufferView> wire = ep->receive_buffer();
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->data(), frame.data());
  const Frame parsed = frame_parse(*wire);
  const CodecRegistry registry = CodecRegistry::with_builtins();
  EXPECT_EQ(frame_decode(parsed, registry), payload);
  EXPECT_EQ(parsed.sequence, 7u);
}

// --------------------------------------- shared-frame broker integration

std::vector<Bytes> blocks_for_test(int n) {
  std::vector<Bytes> blocks;
  for (int i = 0; i < n; ++i) {
    blocks.push_back(testdata::low_entropy(8 * 1024, 100 + i));
  }
  return blocks;
}

/// Run N subscribers through a broker with `workers` encode threads and
/// the given frame builder; publish all blocks, then pump and collect the
/// frames each subscriber's transport saw.
std::vector<std::vector<Bytes>> run_broker(
    const std::vector<Bytes>& blocks, int subs, std::size_t workers,
    broker::BrokerConfig base, shm::ShmBus* bus) {
  base.worker_threads = workers;
  broker::FanoutBroker fan(base);
  // Pinned method: the selector reads wall-clock encode times, so a free
  // choice could shift with CPU load and break identity for no real fault.
  broker::SubscriberConfig sub;
  sub.adaptive.method_governor = [](MethodId) { return MethodId::kLempelZiv; };
  std::vector<std::unique_ptr<shm::ShmEndpoint>> shm_eps;
  std::vector<std::unique_ptr<CaptureTransport>> captures;
  std::vector<broker::SubscriberId> ids;
  for (int i = 0; i < subs; ++i) {
    if (bus != nullptr) {
      shm_eps.push_back(bus->endpoint());
      ids.push_back(fan.subscribe(*shm_eps.back(), sub));
    } else {
      captures.push_back(std::make_unique<CaptureTransport>());
      ids.push_back(fan.subscribe(*captures.back(), sub));
    }
  }
  for (const Bytes& block : blocks) fan.publish(block);
  fan.pump_all();

  std::vector<std::vector<Bytes>> out(subs);
  for (int i = 0; i < subs; ++i) {
    if (bus != nullptr) {
      while (auto frame = shm_eps[i]->receive()) out[i].push_back(*frame);
    } else {
      out[i] = captures[i]->frames;
    }
  }
  return out;
}

TEST(ShmBroker, SerialParallelAndShmPathsAreByteIdentical) {
  const auto blocks = blocks_for_test(5);
  constexpr int kSubs = 4;

  // Reference: heap frames, serial encodes — the TCP-path bytes.
  const auto reference =
      run_broker(blocks, kSubs, 1, broker::BrokerConfig{}, nullptr);
  // Parallel encodes must not change a single byte.
  const auto parallel =
      run_broker(blocks, kSubs, 4, broker::BrokerConfig{}, nullptr);

  // Shm path: frames staged into slabs, shipped as descriptors, read back
  // out of the mapped segment.
  shm::ShmBusConfig bus_cfg;
  bus_cfg.ring.slab_count = 64;
  bus_cfg.ring.slab_size = 16 * 1024;
  shm::ShmBus bus(bus_cfg);
  broker::BrokerConfig shm_broker_cfg;
  shm_broker_cfg.frame_builder = bus.frame_builder();
  const auto via_shm = run_broker(blocks, kSubs, 1, shm_broker_cfg, &bus);

  ASSERT_EQ(reference.size(), via_shm.size());
  for (int s = 0; s < kSubs; ++s) {
    ASSERT_EQ(reference[s].size(), blocks.size()) << "subscriber " << s;
    EXPECT_EQ(reference[s], parallel[s]) << "subscriber " << s;
    EXPECT_EQ(reference[s], via_shm[s]) << "subscriber " << s;
  }
  // Every frame decodes back to its block (end-to-end, through the slab).
  const CodecRegistry registry = CodecRegistry::with_builtins();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(frame_decompress(via_shm[0][b], registry), blocks[b]);
  }
  // Steady state never copied a payload: all zero-copy descriptor sends.
  EXPECT_EQ(bus.stats().copy_fallbacks, 0u);
}

TEST(ShmBroker, OversizedFramesDeliverInsteadOfKillingThePump) {
  // Incompressible blocks against deliberately tiny slabs: every frame
  // takes the frame builder's heap fallback, and the broker pump hands
  // those heap views to ShmEndpoint::send_buffer. This used to throw
  // ShmError out of the pump loop; it must now deliver out of band,
  // byte-identical to the heap-broker reference.
  std::vector<Bytes> blocks;
  for (int i = 0; i < 3; ++i) {
    blocks.push_back(testdata::random_bytes(4 * 1024, 50 + i));
  }
  const auto reference =
      run_broker(blocks, 2, 1, broker::BrokerConfig{}, nullptr);

  shm::ShmBusConfig bus_cfg;
  bus_cfg.ring = tiny_ring(8, 64);
  shm::ShmBus bus(bus_cfg);
  broker::BrokerConfig cfg;
  cfg.frame_builder = bus.frame_builder();
  const auto via_shm = run_broker(blocks, 2, 1, cfg, &bus);

  EXPECT_EQ(reference, via_shm);
  EXPECT_GT(bus.stats().copy_fallbacks, 0u);
}

TEST(ShmBroker, SharedFrameCountsOnceInUniqueMemoryAccounting) {
  constexpr int kSubs = 6;
  broker::FanoutBroker fan;
  std::vector<std::unique_ptr<CaptureTransport>> sinks;
  std::vector<broker::SubscriberId> ids;
  for (int i = 0; i < kSubs; ++i) {
    sinks.push_back(std::make_unique<CaptureTransport>());
    ids.push_back(fan.subscribe(*sinks.back()));
  }
  fan.publish(testdata::low_entropy(8 * 1024, 77));
  // No pump: every subscriber's egress still queues its frame, and every
  // retransmit ring holds it too — 12 references, ONE buffer. The
  // share-aware total must see exactly one frame's worth.
  const std::uint64_t frame_bytes = fan.subscriber_stats(ids.front()).bytes;
  ASSERT_GT(frame_bytes, 0u);
  EXPECT_EQ(fan.memory_usage_unique(), frame_bytes);
}

TEST(ShmBroker, EgressQueuesShareOneBufferAcrossSubscribers) {
  MonotonicClock clock;
  broker::EgressQueue q1(8, broker::SlowConsumerPolicy::kBlock, clock);
  broker::EgressQueue q2(8, broker::SlowConsumerPolicy::kBlock, clock);
  BufferView shared = BufferView::own(pattern(500));
  q1.send_buffer(shared);
  q2.send_buffer(shared);
  q1.send_buffer(BufferView::own(pattern(300)));

  std::set<const void*> seen;
  const std::size_t unique = q1.bytes_unique(seen) + q2.bytes_unique(seen);
  EXPECT_EQ(unique, 500u + 300u);
  EXPECT_EQ(q1.bytes() + q2.bytes(), 2 * 500u + 300u);
}

// --------------------------------------------------------- obs mirrors

TEST(ShmObs, GaugesTrackGroundTruth) {
  auto& reg = obs::MetricsRegistry::global();
  shm::ShmBusConfig cfg;
  cfg.ring = tiny_ring(4, 512);
  shm::ShmBus bus(cfg);

  auto slab = bus.ring().acquire(64);
  BufferView view = bus.ring().publish(slab, 64);
  EXPECT_EQ(reg.gauge("acex.shm.slabs_in_use").value(),
            static_cast<std::int64_t>(bus.ring().stats().slabs_in_use));
  EXPECT_EQ(reg.gauge("acex.shm.ring.occupancy_pct").value(), 25);
  view = BufferView();
  EXPECT_EQ(reg.gauge("acex.shm.slabs_in_use").value(), 0);
  EXPECT_EQ(reg.gauge("acex.shm.ring.occupancy_pct").value(), 0);
}

}  // namespace
}  // namespace acex
