#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "broker/egress_queue.hpp"
#include "echo/channel.hpp"
#include "engine/thread_pool.hpp"
#include "transport/transport.hpp"

namespace acex::broker {

/// Identifies a subscriber within one FanoutBroker.
using SubscriberId = std::uint64_t;

/// Per-subscriber knobs: the adaptive stream configuration for THIS link
/// plus the egress-queue contract. `adaptive.external_bandwidth_feedback`
/// and `adaptive.async_sampling` are overridden by the broker (the broker
/// owns both the bandwidth measurement point and the shared sampler).
struct SubscriberConfig {
  /// Obs label; defaults to "sub-<id>" when empty. Must be unique if you
  /// want per-subscriber metrics to stay distinguishable.
  std::string name;
  adaptive::AdaptiveConfig adaptive;
  std::size_t egress_capacity = 64;
  SlowConsumerPolicy policy = SlowConsumerPolicy::kBlock;
};

/// Ground-truth per-subscriber accounting, maintained by the broker and
/// cross-checked against the obs mirror by tools/acexstat --broker.
struct SubscriberStats {
  std::uint64_t frames = 0;       ///< frames framed + handed to the egress
  std::uint64_t bytes = 0;        ///< framed bytes across those frames
  std::uint64_t delivered = 0;    ///< frames pumped onto the real transport
  std::uint64_t fallbacks = 0;    ///< blocks degraded to the null codec
  std::uint64_t drops = 0;        ///< egress evictions (kDropOldest)
  std::uint64_t retransmits = 0;  ///< frames replayed on NACK
  bool disconnected = false;
};

/// Outcome of resume(): `ok` means the gap `[resume_from, head)` was fully
/// replayed from the retransmit ring and the subscriber is live again on
/// its new transport. !ok means the ring has evicted part of the gap —
/// resume is impossible and the caller downgrades to a fresh subscribe.
struct BrokerResume {
  bool ok = false;
  std::size_t replayed = 0;  ///< frames re-sent into the egress
};

/// Broker-wide accounting. The shared-encode invariant the tests assert:
/// encodes == cache_misses, and per block the number of codec runs equals
/// the number of distinct chosen methods — NOT the subscriber count.
struct BrokerStats {
  std::uint64_t blocks = 0;        ///< publish() calls
  std::uint64_t encodes = 0;       ///< actual codec runs (== cache_misses)
  std::uint64_t cache_hits = 0;    ///< subscriber frames served from cache
  std::uint64_t cache_misses = 0;  ///< one per (block, method) group
  std::uint64_t last_groups = 0;   ///< distinct methods in the last block
  double encode_seconds = 0;       ///< summed raw encode CPU time
};

struct BrokerConfig {
  /// Encode workers for concurrent per-group encodes: 1 runs encodes
  /// inline on the publishing thread (deterministic, the test default),
  /// 0 asks for one worker per hardware thread, anything else is literal.
  std::size_t worker_threads = 1;
  /// Frame staging hook. When set, the broker builds each shared frame by
  /// calling this instead of frame_build_seq + heap copy — the shm
  /// transport installs shm::slab_frame_builder here so frames materialize
  /// directly inside refcounted shared-memory slabs and every subscriber's
  /// egress retains the SAME slab-backed view (descriptor fan-out). The
  /// returned view must be byte-identical to
  /// frame_build_seq(method, payload, crc, sequence). Keeps the broker
  /// shm-agnostic: it never links against acex_shm.
  std::function<BufferView(MethodId method, ByteView payload,
                           std::uint32_t original_crc,
                           std::uint64_t sequence)>
      frame_builder;
};

/// Multi-subscriber event distribution with per-subscriber adaptive codecs
/// and shared-encode caching (DESIGN.md §11).
///
/// One FanoutBroker stands between a published block stream (publish(), or
/// an attached echo::EventChannel) and N subscribers, each with its own
/// transport, link profile, and adaptive decision state. Per block, every
/// subscriber plans independently — one sample shared per sample size, own
/// bandwidth estimator, own circuit breaker — and the broker then encodes
/// once per DISTINCT chosen method, framing the cached payload per
/// subscriber with its own sequence number (frame_build_seq). K
/// subscribers that agree on a method cost one codec run, not K.
///
/// Thread safety: publish() is serialized internally (per-subscriber
/// sequence order must match finish order). subscribe()/unsubscribe()/
/// pump()/retransmit()/stats() may run concurrently with publish() and
/// each other. unsubscribe() during an in-flight publish is safe: the
/// publish finishes against a kept-alive handle whose egress is closed,
/// and the IoError is absorbed as a disconnect of that subscriber only.
class FanoutBroker {
 public:
  explicit FanoutBroker(BrokerConfig config = {});
  ~FanoutBroker();

  FanoutBroker(const FanoutBroker&) = delete;
  FanoutBroker& operator=(const FanoutBroker&) = delete;

  /// Register a subscriber over `transport` (which must outlive it).
  /// Sequences start at 0 at subscribe time — a late joiner's receiver
  /// sees a fresh stream, not a gap from sequence 0 to "now".
  SubscriberId subscribe(transport::Transport& transport,
                         SubscriberConfig config = {});

  /// Remove a subscriber; closes its egress queue (waking any blocked
  /// publish). Unknown ids return false. Queued frames are dropped.
  bool unsubscribe(SubscriberId id);

  /// Distribute one block to every live subscriber: shared sample, per-
  /// subscriber plan, one encode per distinct method, per-subscriber
  /// framing + finish. A block larger than a subscriber's configured
  /// block_size is re-chunked for that subscriber (the same split a
  /// private AdaptiveSender::send_all would make), so heterogeneous
  /// negotiated block sizes coexist on one stream; each chunk is sampled
  /// at each subscriber's decision.sample_size. A subscriber whose egress
  /// is closed by unsubscribe is marked disconnected; healthy subscribers
  /// are unaffected. A codec throw that is not an acex::Error reaches the
  /// caller, after every encode of the chunk has finished.
  void publish(ByteView block);

  /// Drain up to `max_frames` from `id`'s egress onto its real transport,
  /// timing each transfer on the transport's clock and feeding the
  /// measurement into the subscriber's bandwidth estimator. Returns frames
  /// delivered. IoError from the transport disconnects the subscriber.
  std::size_t pump(SubscriberId id,
                   std::size_t max_frames =
                       std::numeric_limits<std::size_t>::max());

  /// pump() every subscriber until its egress is empty; returns the total.
  std::size_t pump_all();

  /// Replay `sequences` from `id`'s retransmit ring into its egress (the
  /// sender half of the per-subscriber NACK protocol). Returns frames
  /// actually re-sent. Retransmission is per-subscriber state: one lossy
  /// link replays without touching any other subscriber's stream.
  std::size_t retransmit(SubscriberId id,
                         const std::vector<std::uint64_t>& sequences);

  // --- session support (park / resume / shed) --------------------------
  // The session layer parks a subscriber whose peer went quiet instead of
  // unsubscribing it: every piece of adaptive state — sequence cursor,
  // bandwidth estimator, circuit breaker, retransmit ring — stays warm, so
  // a resume within the ring's window is byte-identical to a stream that
  // never dropped. While parked, publishes keep planning and framing for
  // the subscriber (the cursor must advance with the stream); its egress
  // runs in shed mode so nothing can wedge on a queue nobody pumps.

  /// Park `id`: stop pumping it and put its egress in shed mode (a kBlock
  /// publisher blocked on it is woken to drop-and-proceed). Idempotent.
  /// Returns false for unknown ids.
  bool park(SubscriberId id);

  /// Re-attach a parked subscriber on a (possibly new) transport and
  /// replay the gap `[resume_from, head)` from its retransmit ring. On
  /// success the subscriber is unparked and pumping resumes; on failure
  /// (ring evicted part of the gap) it STAYS parked and untouched — the
  /// caller decides between retry and restart. Replayed frames that
  /// overflow the egress are dropped oldest-first and remain recoverable
  /// through the NACK path while the ring holds them.
  BrokerResume resume(SubscriberId id, transport::Transport& transport,
                      std::uint64_t resume_from);

  /// Whether `id` is currently parked. Unknown ids return false.
  bool parked(SubscriberId id) const;

  /// Force or clear shed mode on a LIVE subscriber's egress — the overload
  /// ladder's drop-oldest stage. Parked subscribers are always shed.
  void set_shed(SubscriberId id, bool on);

  /// Egress + retransmit-ring bytes over every subscriber, counting frames
  /// that alias one backing buffer (the shared-encode fan-out case — N
  /// egress queues + N rings holding one slab) ONCE. The session layer's
  /// MemoryBudget and overload ladder read it, so 64 subscribers sharing a
  /// slab do not look like 64 copies (DESIGN.md §16).
  std::size_t memory_usage_unique() const;

  /// Attach this broker to a channel: every event submitted to the channel
  /// is published as one block. Returns the channel subscription id for
  /// detach(). The channel's dispatch thread becomes the publish thread.
  echo::SubscriberId attach(echo::EventChannel& channel);
  void detach(echo::EventChannel& channel, echo::SubscriberId id) noexcept;

  SubscriberStats subscriber_stats(SubscriberId id) const;
  adaptive::DegradationStats degradation(SubscriberId id) const;
  BrokerStats stats() const;
  std::size_t subscriber_count() const;
  std::size_t egress_depth(SubscriberId id) const;
  bool disconnected(SubscriberId id) const;

  /// The broker's codec registry (shared by the encode cache and every
  /// subscriber plan). Application codecs — the colpipe columnar codec,
  /// FloatQuantCodec — must be registered here before the first publish;
  /// the registry freezes when concurrent encodes begin.
  CodecRegistry& registry() noexcept { return registry_; }

 private:
  struct Subscriber;
  using SubscriberPtr = std::shared_ptr<Subscriber>;

  SubscriberPtr find(SubscriberId id) const;
  /// Copy of the current subscriber set, taken under `mutex_`; callers
  /// work on it lock-free (a concurrent unsubscribe cannot pull a
  /// subscriber out from under them).
  std::vector<SubscriberPtr> snapshot() const;
  std::size_t pump_locked_free(const SubscriberPtr& sub,
                               std::size_t max_frames);
  /// One publish pass over `subs` with a chunk every member's block_size
  /// can carry and one sample size they all ask for: shared sample source
  /// (taken at most once), per-subscriber plan, grouped encode, frame +
  /// finish. The body of publish(), minus the re-chunking.
  void publish_chunk(ByteView block, std::size_t sample_size,
                     const std::vector<SubscriberPtr>& subs);

  BrokerConfig config_;
  CodecRegistry registry_ = CodecRegistry::with_builtins();
  std::unique_ptr<engine::ThreadPool> pool_;  ///< null = inline encodes

  mutable std::mutex mutex_;        ///< guards subscribers_ + next_id_
  std::map<SubscriberId, SubscriberPtr> subscribers_;
  SubscriberId next_id_ = 1;

  std::mutex publish_mutex_;        ///< serializes publish()

  mutable std::mutex stats_mutex_;  ///< guards stats_
  BrokerStats stats_;
};

}  // namespace acex::broker
