#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/cpu_meter.hpp"
#include "adaptive/decision.hpp"
#include "adaptive/monitor.hpp"
#include "adaptive/sampler.hpp"
#include "compress/frame.hpp"
#include "compress/registry.hpp"
#include "engine/thread_pool.hpp"
#include "netsim/bandwidth.hpp"
#include "transport/retransmit.hpp"
#include "transport/sequence_tracker.hpp"
#include "transport/transport.hpp"

namespace acex::adaptive {

/// Configuration of one adaptive stream.
struct AdaptiveConfig {
  DecisionParams decision;

  /// Sample concurrently with sending (the paper forks a child process);
  /// false runs the sampler inline — deterministic, used by tests.
  bool async_sampling = true;

  /// Before any end-to-end measurement exists, assume this accept rate
  /// (bytes/s). A pessimistic default biases the first block toward
  /// compression, like the paper's "reducing speed of first block is
  /// infinity" assumption.
  double initial_bandwidth_Bps = 1e6;

  /// What the selector and the timeline are charged for CPU work: wall
  /// time as measured (the default), CpuMeter::wall(scale) to emulate a
  /// slower or faster host, or CpuMeter::paper_model() for Fig. 4's
  /// deterministic Sun-Fire speeds.
  CpuMeter cpu_meter;

  /// The end user's "target rate of data transmission" (paper §1 — the one
  /// thing users are expected to express), in ORIGINAL payload bytes per
  /// second; 0 disables. When the estimated effective payload rate of the
  /// break-even method choice (link rate / compression ratio) falls short
  /// of this, the selector escalates to stronger methods until the target
  /// is met — or to the strongest available, best effort.
  double target_rate_Bps = 0;

  /// Invoked with each block's charged compression time. Virtual-time
  /// experiments pass a lambda advancing the VirtualClock so CPU work and
  /// wire time share one timeline; wall-clock runs leave it empty.
  std::function<void(Seconds)> on_cpu_time;

  /// A block counts as "expanded" (degrading it to the null codec) only
  /// when the framed output exceeds the framed-null size by more than this
  /// many bytes. The slack keeps stored-mode codec output on incompressible
  /// data — a handful of bytes of per-chunk overhead — from masquerading as
  /// a failure; it matches the <= 64-byte tolerance the target-rate
  /// experiments assume.
  std::size_t expansion_slack_bytes = 64;

  /// Circuit breaker: after this many consecutive failures (codec throw or
  /// expanded output) of one method on the adaptive path, the method is
  /// quarantined.
  int breaker_failure_threshold = 3;

  /// How many subsequent blocks a quarantined method sits out before it may
  /// be tried again.
  std::size_t breaker_cooldown_blocks = 16;

  /// How many recent frames the sender keeps for NACK retransmission, and
  /// how often each may be replayed. `retransmit_max_bytes` additionally
  /// bounds the ring by wire bytes (0 = frame count only) — large blocks
  /// at a fixed frame cap would otherwise dodge any memory envelope.
  std::size_t retransmit_capacity = 64;
  int retransmit_max_retries = 3;
  std::size_t retransmit_max_bytes = 0;

  /// Encode workers of send_all()/send_all_fixed(): 1 encodes inline on
  /// the calling thread and builds no thread pool; 0 asks for one worker
  /// per hardware thread; anything else is taken literally. Above 1, block
  /// encodes run on an engine::ThreadPool while selection and transmission
  /// stay serial (DESIGN.md §8), so 2 overlaps the encode of block i+1
  /// with the send of block i — the overlap the paper's alpha < 1
  /// presumes. Per-block calls (send_block, the engine hooks) always run
  /// inline.
  std::size_t worker_threads = 1;

  /// Broker mode: the transport this sender writes to is an internal
  /// egress queue whose accept time says nothing about the subscriber's
  /// actual link, so finish_block() must NOT feed its measured send time
  /// into the bandwidth estimator. The owner measures real link transfers
  /// on the delivery path and reports them via record_bandwidth() instead.
  bool external_bandwidth_feedback = false;

  /// Overload hook: after the selector (and circuit breaker) have chosen a
  /// method, the governor may substitute a cheaper one — the session
  /// layer's degradation ladder plugs in here to trade ratio for CPU under
  /// memory pressure. The returned method passes through the circuit
  /// breaker again (the breaker only ever demotes, so breaker-open cannot
  /// fight a governor downgrade). Never consulted on the fixed baselines.
  /// Must be callable from whichever thread plans blocks for this sender.
  std::function<MethodId(MethodId)> method_governor;
};

/// One block's serial selector outcome: everything the (possibly
/// concurrent) encode step needs, frozen before the next block is planned.
/// Produced by AdaptiveSender::plan_block(), consumed by encode_block()
/// on any thread and finish_block() back on the driver thread.
struct BlockPlan {
  std::uint64_t sequence = 0;        ///< frame sequence (assigned serially)
  MethodId method = MethodId::kNone; ///< selector's choice for this block
  /// The sampler's ratio for this block; 100 when the plan read no sample
  /// (the §2.5 rule stopped at its first test).
  double sampled_ratio_percent = 100.0;
  double bandwidth_estimate_Bps = 0;
  /// False on the fixed-method baselines: no null-codec fallback, no
  /// breaker bookkeeping — "always-BW" must stay BW.
  bool allow_degrade = true;
};

/// What one encode_block() call produced. `framed` is ready for the wire;
/// degradation to the null codec is recorded, never thrown.
struct EncodeResult {
  /// Ready-for-the-wire frame bytes as a span-with-owner. On the broker's
  /// shared-encode path every subscriber whose frame is byte-identical
  /// receives the SAME backing buffer (possibly a shared-memory slab), so
  /// the egress queues and retransmit rings downstream share it instead of
  /// copying it per subscriber.
  BufferView framed;
  MethodId method = MethodId::kNone;  ///< method actually framed
  bool fallback = false;              ///< degraded to the null codec
  bool threw = false;                 ///< fallback cause: throw vs expansion
  /// Measured wall time of codec, CRC and framing; finish_block() asks the
  /// sender's CpuMeter what to charge for it.
  Seconds encode_seconds = 0;
};

/// One sequence-free encode of a block: the codec output plus the
/// degradation verdict, WITHOUT the frame envelope. The fan-out broker runs
/// this once per distinct method and then frames the payload once per
/// subscriber with frame_build_seq() — byte-identical payloads across every
/// subscriber that chose the method.
struct PayloadEncode {
  /// Codec output. Owned for real codec output; on the null/fallback path
  /// it BORROWS the input block (zero-copy), so a PayloadEncode must not
  /// outlive the block it was encoded from.
  BufferView payload;
  MethodId method = MethodId::kNone;  ///< method actually encoded
  bool fallback = false;              ///< degraded to the null codec
  bool threw = false;                 ///< fallback cause: throw vs expansion
  Seconds encode_seconds = 0;         ///< measured wall time, codec + CRC
  std::uint32_t crc = 0;              ///< CRC-32 of the block (frame trailer)
};

/// The send side's one encoder: compress `block` with `method` and CRC it,
/// under the codec, degrade, timing and metrics rules every path shares;
/// `encode_seconds` covers both passes.
///
/// Thread safety: touches no shared mutable state. It reads `registry`
/// (safe concurrently once frozen — see CodecRegistry), creates a fresh
/// codec per call (codec instances are not shareable), and writes only
/// its result. Concurrent calls on different blocks are race-free.
///
/// With `allow_degrade`, a codec's acex::Error or an expanded output falls
/// back to the null codec and is reported via `fallback`/`threw`. Expanded
/// means the FRAMED output would exceed the framed null output by more than
/// `expansion_slack_bytes`: payload + varint(payload) > block +
/// varint(block) + slack (the sequence varint is common to both frames and
/// cancels), so a private sender and the broker reach the same verdict.
/// Without `allow_degrade`, the acex::Error is rethrown. Any other
/// exception always propagates; on a pool worker it reaches the calling
/// thread through the job's future.
/// `trace_block` keys the encode span (the frame sequence when known).
PayloadEncode encode_payload(const CodecRegistry& registry, ByteView block,
                             MethodId method,
                             std::size_t expansion_slack_bytes,
                             bool allow_degrade = true,
                             std::uint64_t trace_block = 0);

/// encode_payload() wrapped in a frame carrying `sequence`: the
/// per-block encode step of AdaptiveSender, run inline or on a pool
/// worker. Same thread-safety and degradation contract as
/// encode_payload().
EncodeResult encode_block(const CodecRegistry& registry, ByteView block,
                          MethodId method, std::uint64_t sequence,
                          std::size_t expansion_slack_bytes,
                          bool allow_degrade = true);

/// Sender-side degradation counters (circuit breaker + NACK service),
/// surfaced per block through adaptive/telemetry as well.
struct DegradationStats {
  std::uint64_t codec_failures = 0;  ///< codec threw on the adaptive path
  std::uint64_t expansions = 0;      ///< output larger than the framed null
  std::uint64_t fallbacks = 0;       ///< blocks degraded to the null codec
  std::uint64_t quarantines = 0;     ///< circuit-breaker trips
  std::uint64_t retransmits = 0;     ///< frames replayed on NACK
};

/// Everything recorded about one transmitted block — the raw material of
/// Figs. 8–10 (method, compression time, compressed size over time).
struct BlockReport {
  std::size_t index = 0;
  Seconds submitted = 0;       ///< transport-clock time the block entered
  Seconds delivered = 0;       ///< transport-clock time the receiver accepted
  MethodId method = MethodId::kNone;  ///< method actually on the wire
  MethodId requested_method = MethodId::kNone;  ///< selector's choice
  bool fallback = false;       ///< degraded to the null codec mid-block
  std::size_t original_size = 0;
  std::size_t wire_size = 0;       ///< framed bytes actually sent
  Seconds compress_seconds = 0;    ///< CPU time charged by the cpu_meter
  Seconds send_seconds = 0;        ///< end-to-end accept time of the frame
  /// The sampler's view of this block; 100 when its plan read no sample.
  double sampled_ratio_percent = 100.0;
  double bandwidth_estimate_Bps = 0;     ///< estimate used for the decision
};

/// Aggregate outcome of a whole stream.
struct StreamReport {
  std::vector<BlockReport> blocks;
  std::size_t original_bytes = 0;
  std::size_t wire_bytes = 0;
  Seconds total_seconds = 0;        ///< first submit -> last delivery
  Seconds compress_seconds = 0;     ///< sum of charged compression time

  /// Append one finished block and fold it into the totals. Blocks must
  /// arrive in stream order: the span runs from the first block's submit
  /// (less its compression, which precedes it) to the last delivery.
  void add(BlockReport block) {
    original_bytes += block.original_size;
    wire_bytes += block.wire_size;
    compress_seconds += block.compress_seconds;
    blocks.push_back(std::move(block));
    total_seconds = blocks.back().delivered - blocks.front().submitted +
                    blocks.front().compress_seconds;
  }

  double compression_share() const noexcept {
    return total_seconds > 0 ? compress_seconds / total_seconds : 0.0;
  }
  double wire_ratio_percent() const noexcept {
    return original_bytes == 0 ? 100.0
                               : 100.0 * static_cast<double>(wire_bytes) /
                                     static_cast<double>(original_bytes);
  }
};

/// The sending half of configurable compression (§2.5's while-loop): takes
/// application data, splits it into blocks, chooses a method per block from
/// live measurements, compresses, frames, ships, and keeps its estimators
/// current. Stateful across calls — bandwidth and reducing-speed knowledge
/// carries over, as in a long-lived middleware stream.
class AdaptiveSender {
 public:
  explicit AdaptiveSender(transport::Transport& transport,
                          AdaptiveConfig config = {});

  /// Stream `data` as blocks; returns per-block reports. With
  /// AdaptiveConfig::worker_threads > 1 the encodes run on a thread pool
  /// and up to 2 x workers blocks are in flight, so the selector
  /// sees feedback up to that many blocks stale; frames still leave in
  /// strictly increasing sequence order and the delivered payload is
  /// byte-identical to the 1-worker run. The codec registry is frozen on
  /// the first such send (workers read it concurrently).
  StreamReport send_all(ByteView data);

  /// Send exactly one block (at most block_size bytes). When `next_block`
  /// is non-empty, async sampling is on and this block's plan read a
  /// sample, the next block's 4 KiB prefix is sampled concurrently with
  /// this block's send — the paper's fork/send/wait ordering — and offered
  /// to the next call's decision.
  BlockReport send_block(ByteView block, ByteView next_block = {});

  /// Send one block through a fixed method, bypassing the selector (the
  /// non-adaptive baselines, and the building block for paced scenarios).
  BlockReport send_block_fixed(ByteView block, MethodId method);

  /// Force every block through one method — the paper's non-adaptive
  /// baselines ("rather than in the 29.1388 seconds it took without
  /// compression"). Same loop and worker_threads as send_all(); the wire
  /// stream is byte-identical at every worker count. A codec failure
  /// surfaces on the calling thread in block order (no degradation on
  /// baselines); blocks already in flight behind it are discarded.
  StreamReport send_all_fixed(ByteView data, MethodId method);

  /// Replay previously sent frames by sequence number from the bounded
  /// retransmit ring (the sender half of the NACK protocol). Returns how
  /// many were actually re-sent; sequences already evicted or out of retry
  /// budget are skipped.
  std::size_t retransmit(const std::vector<std::uint64_t>& sequences);

  /// The sequence number the NEXT planned block will carry — the stream
  /// head a resuming session must catch up to.
  std::uint64_t next_sequence() const noexcept { return blocks_sent_; }

  /// Session resume: re-send every frame in `[from, to)` from the ring,
  /// verbatim and in order, without touching the per-sequence retry
  /// budgets (a resume is not a NACK). All-or-nothing: if ANY sequence in
  /// the range has been evicted, nothing is sent and nullopt is returned —
  /// "resume impossible", and the caller downgrades to a fresh restart.
  /// Returns the number of frames re-sent (0 for an empty range).
  std::optional<std::size_t> replay_range(std::uint64_t from,
                                          std::uint64_t to);

  // --- engine hooks ----------------------------------------------------
  // A block send is three steps, so the encode can run off-thread while
  // selection and transmission stay serial:
  //   1. plan_block()   — decide (sampling if the rule reads it), assign
  //                       the sequence (driver thread only; mutates
  //                       estimator state);
  //   2. encode_block() — free function, any thread, no shared state;
  //   3. finish_block() — bookkeeping + wire transmission (driver thread
  //                       only, called in strictly increasing sequence
  //                       order so frames leave in order).
  // send_block() is exactly plan → encode → finish inline; send_all()
  // runs the encode step on its pool when it has one; the broker plans
  // with plan_block_sampled() and encodes once per method group.

  /// Serial selector step: choose the method (§2.5 decision + target rate
  /// + circuit breaker) and claim the next sequence number. The block is
  /// sampled only if the choice reads the sample (see plan_from_sample),
  /// inline on first read; a pending async sample is collected either way
  /// and dropped when unread. Sampling of `next_block` is launched only
  /// when this plan read a sample.
  BlockPlan plan_block(ByteView block, ByteView next_block = {});

  /// Like plan_block() for a fixed-method baseline send: no sampling, no
  /// selector, degradation disabled.
  BlockPlan plan_block_fixed(ByteView block, MethodId method);

  /// plan_block() with an externally supplied sample. The fan-out broker
  /// hands every subscriber of a chunk ONE source, which samples at most
  /// once, on the first plan that reads it — the sampled ratio is a
  /// property of the data, not of any one link, so per-subscriber sampling
  /// would only burn CPU. Reads and folds exactly as plan_block() does;
  /// never launches the async sampler.
  BlockPlan plan_block_sampled(ByteView block, SampleSource& sample);

  /// Broker mode (AdaptiveConfig::external_bandwidth_feedback): report one
  /// measured link transfer of `bytes` over `elapsed` seconds into the
  /// bandwidth estimator. Call from the thread that owns this sender's
  /// state (the broker serializes on a per-subscriber lock).
  void record_bandwidth(std::size_t bytes, Seconds elapsed) noexcept {
    bandwidth_.record(bytes, elapsed);
  }

  /// Complete one encoded block: degradation/breaker bookkeeping, monitor
  /// and bandwidth updates, transmission on the transport, retransmit-ring
  /// storage. Must be called from one thread in sequence order.
  BlockReport finish_block(const BlockPlan& plan, std::size_t original_size,
                           EncodeResult encoded);

  /// Forget every adaptation measurement — reducing-speed monitor,
  /// bandwidth estimate, sampler-drift EWMAs — while keeping sequence
  /// numbering, the retransmit ring, and breaker state intact. This is the
  /// per-block-reset ("no context takeover") streaming mode: each block is
  /// planned as if it were the first, the way a peer that negotiated
  /// context_takeover=false must be treated.
  void reset_adaptation() noexcept;

  const ReducingSpeedMonitor& monitor() const noexcept { return monitor_; }
  const netsim::BandwidthEstimator& bandwidth() const noexcept {
    return bandwidth_;
  }
  const AdaptiveConfig& config() const noexcept { return config_; }
  const DegradationStats& degradation() const noexcept { return degradation_; }
  const transport::RetransmitRing& retransmit_ring() const noexcept {
    return ring_;
  }

  /// The sender's codec registry. Mutable so applications (and the fault
  /// tests) can swap in custom codecs — the degradation path guarantees a
  /// misbehaving one cannot take the stream down.
  CodecRegistry& registry() noexcept { return registry_; }

 private:
  /// plan → encode → finish on the calling thread.
  BlockReport transmit_planned(const BlockPlan& plan, ByteView block);

  /// The one stream loop behind send_all() (`fixed` empty) and
  /// send_all_fixed(): engine::run_in_order plans serially, encodes inline
  /// (1 worker) or on the pool, and finishes in sequence order.
  StreamReport send_stream(ByteView data, std::optional<MethodId> fixed);

  /// Shared tail of plan_block()/plan_block_sampled(): run the selector
  /// and claim the sequence. It reads `sample` (and folds its speed into
  /// the drift EWMA) only when the plan will use it: the §2.5 first test
  /// passes on the estimators as they stand (as it does while there is no
  /// LZ speed yet), the policy is a scored one, or a target rate is set.
  /// Otherwise it plans kNone without sampling.
  BlockPlan plan_from_sample(ByteView block, SampleSource& sample);

  /// Demote a quarantined method down the ladder (circuit breaker open).
  MethodId apply_circuit_breaker(MethodId method) const noexcept;

  void note_codec_failure(MethodId method);
  void note_codec_success(MethodId method) noexcept;

  /// Escalate `base` until the user's target payload rate is met (§1).
  /// Only composed with the kBandwidth policy — the other policies consume
  /// the target through SelectionInputs instead.
  MethodId apply_target_rate(MethodId base, double bandwidth_Bps,
                             double sampled_ratio_percent) const noexcept;

  /// Expected compressed/original ratio of one ladder method: monitored
  /// achievement when available, the sampler's LZ view (scaled for BW's
  /// Fig. 2 edge) and conservative constants otherwise. Shared by the
  /// target-rate escalator and the multi-objective estimate builder.
  double expected_ratio(MethodId method, double lz_ratio) const noexcept;

  /// Per-ladder-rung (ratio, CPU) expectations for a block of `block_size`
  /// bytes — what the scored policies consume. CPU expectations come from
  /// the monitor's measured throughputs, falling back to the LZ reducing-
  /// speed estimate scaled by Fig. 1's static relative time ratings;
  /// unknown stays 0 (optimistic, the first-block-infinity rule).
  std::array<MethodEstimate, kDecisionLadder.size()> estimate_ladder(
      std::size_t block_size, double sampled_ratio_percent) const noexcept;

  /// Current LZ reducing-speed estimate, as the CpuMeter charges it.
  ///
  /// Block-granularity measurements (from real block compressions) are the
  /// ground truth; 4 KiB sampler timings run severalfold faster than block
  /// compressions (cache effects), so they are never mixed into the same
  /// average — instead the RATIO of the current sample speed to the sample
  /// speed observed at the last LZ block corrects for CPU-load drift. Only
  /// plans that read a sample fold it, so while every plan stops at the
  /// §2.5 first test the factor keeps its last value: a stream that sends
  /// raw notices a faster CPU only once its link slows enough to reach
  /// the test.
  double lz_reducing_speed_estimate(std::size_t block_size) const noexcept;

  transport::Transport* transport_;
  AdaptiveConfig config_;
  CodecRegistry registry_ = CodecRegistry::with_builtins();
  ReducingSpeedMonitor monitor_;
  netsim::BandwidthEstimator bandwidth_;
  Sampler sampler_;
  Ewma sample_speed_{0.4};     // sampler reducing speeds, as charged
  double sample_speed_ref_ = 0;  // sample speed when last LZ block ran
  std::size_t blocks_sent_ = 0;

  struct MethodHealth {
    int consecutive_failures = 0;
    std::size_t quarantined_until = 0;  // block index the cooldown ends at
    // Half-open: the first post-cooldown block is a probe. One probe
    // failure re-trips the breaker immediately; one success closes it.
    bool probation = false;
  };
  std::map<MethodId, MethodHealth> health_;
  DegradationStats degradation_;
  transport::RetransmitRing ring_{64, 3};

  /// Encode workers; built by the first send_stream() with more than one
  /// worker, never at 1.
  std::unique_ptr<engine::ThreadPool> pool_;
};

/// What the receiver does when a frame off the wire is damaged.
enum class RecoveryPolicy {
  /// Throw DecodeError on the first corrupt frame, discarding everything
  /// queued behind it — the seed behaviour, and the default.
  kThrow,
  /// Quarantine the bad frame, keep draining, and report per-frame
  /// outcomes: the stream survives with a gap.
  kSkip,
  /// Like kSkip, and additionally track missing/corrupt sequence numbers
  /// for upstream NACK signalling (take_nacks() + AdaptiveSender::
  /// retransmit()).
  kNack,
};

/// AdaptiveReceiver's settings. The sequence window and the rule for
/// giving up a gap are transport::SequenceTracker's, the same under every
/// policy.
struct ReceiverConfig {
  RecoveryPolicy policy = RecoveryPolicy::kThrow;
  /// kNack: how many times one missing sequence may be requested before
  /// the receiver gives it up as lost and settles it.
  int nack_retry_cap = 3;
};

/// One received frame's fate, as judged by the recovery machinery.
struct FrameOutcome {
  enum class Status {
    kOk,         ///< parsed, decoded, CRC verified — payload recovered
    kCorrupt,    ///< failed somewhere between parse and CRC; quarantined
    kDuplicate,  ///< sequence number already delivered; dropped
  };
  Status status = Status::kOk;
  MethodId method = MethodId::kNone;
  std::uint64_t sequence = 0;
  /// The header parsed and its sequence was plausible, so `sequence` is
  /// meaningful. Always true for kOk and kDuplicate; true for kCorrupt only
  /// when the damage lay behind the header.
  bool has_sequence = false;
  std::size_t wire_size = 0;   ///< bytes as received off the transport
  Bytes data;                  ///< decoded payload (kOk only)
  std::string error;           ///< decode failure message (kCorrupt only)
};

/// Everything one receive_report() drain learned, for callers that need
/// more than the happy-path byte stream.
struct ReceiveReport {
  /// Intact payloads of this drain, reassembled in sequence order. The
  /// ordering holds WITHIN one drain only: under kNack, retransmitted blocks surface in
  /// later drains, so concatenating `data` across drains interleaves
  /// out-of-order bytes — cross-drain reassembly must key blocks by
  /// FrameOutcome::sequence instead.
  Bytes data;
  std::vector<FrameOutcome> frames;
  /// Sequence numbers believed missing after this drain: dropped upstream,
  /// corrupted beyond use, or still in flight.
  std::vector<std::uint64_t> gaps;
  std::size_t frames_ok = 0;
  std::size_t frames_corrupt = 0;
  std::size_t frames_duplicate = 0;
  std::size_t bytes_recovered = 0;  ///< sum of intact payload bytes
};

/// The receiving half: drains frames from a transport, decodes each with
/// whatever method its header names (no coordination needed — frames are
/// self-describing), verifies CRCs, and reassembles the stream. The
/// recovery policy decides what a damaged frame costs: the whole drain
/// (kThrow), one block (kSkip), or nothing once the NACK round-trip has
/// replayed it (kNack).
class AdaptiveReceiver {
 public:
  explicit AdaptiveReceiver(transport::Transport& transport,
                            ReceiverConfig config = {});

  /// Receive until the transport reports no more messages; returns the
  /// reassembled original data. Under kThrow this throws DecodeError on a
  /// corrupt frame; under kSkip/kNack it returns whatever was intact.
  Bytes receive_available();

  /// Like receive_available(), with per-frame outcomes, the current gap
  /// list, and recovery counters.
  ReceiveReport receive_report();

  /// kNack: sequences to request from the sender, respecting the retry
  /// cap; each call counts one attempt against every sequence returned,
  /// and settles the gaps whose last attempt went unanswered. Empty when
  /// nothing is missing or everything missing is past the cap.
  std::vector<std::uint64_t> take_nacks();

  /// Missing sequences given up on and settled — lost for good (see
  /// transport::SequenceTracker for the rule, the same under every policy).
  std::size_t nacks_abandoned() const noexcept {
    return static_cast<std::size_t>(tracker_.abandoned());
  }

  /// The lowest sequence neither delivered nor settled — what a session
  /// resume asks the sender to replay from (`resume_from`).
  std::uint64_t next_expected() const noexcept {
    return tracker_.next_expected();
  }

  /// Point this receiver at a new transport, keeping every piece of
  /// sequence/gap/NACK state. A reconnecting session client rebinds its
  /// receiver to the fresh link so the resumed stream continues exactly
  /// where the dropped one stopped. `transport` must outlive the receiver.
  void rebind(transport::Transport& transport) noexcept {
    transport_ = &transport;
  }

  std::size_t frames_received() const noexcept { return frames_; }
  std::size_t frames_corrupt() const noexcept { return frames_corrupt_; }
  std::size_t frames_duplicate() const noexcept { return frames_duplicate_; }
  std::uint64_t bytes_recovered() const noexcept { return bytes_recovered_; }
  const ReceiverConfig& config() const noexcept { return config_; }

  /// The receiver's codec registry. Mutable for the same reason as the
  /// sender's: application codecs (FloatQuantCodec, the colpipe columnar
  /// codec) are opt-in on BOTH ends, so receivers must be able to register
  /// the ids their peer negotiated.
  CodecRegistry& registry() noexcept { return registry_; }

 private:
  transport::Transport* transport_;
  ReceiverConfig config_;
  CodecRegistry registry_ = CodecRegistry::with_builtins();
  std::size_t frames_ = 0;
  std::size_t frames_corrupt_ = 0;
  std::size_t frames_duplicate_ = 0;
  std::uint64_t bytes_recovered_ = 0;
  transport::SequenceTracker tracker_;  ///< frame sequences
};

}  // namespace acex::adaptive
