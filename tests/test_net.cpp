#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "broker/broker.hpp"
#include "fixtures.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "net/demo_stream.hpp"
#include "net/event_loop.hpp"
#include "net/handshake.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "qa/mutate.hpp"
#include "qa/oracles.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace acex::net {
namespace {

void msleep(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// --- NetSocket: shared helper layer -----------------------------------

TEST(NetSocket, LengthPrefixRoundTrip) {
  std::uint8_t buf[kLengthPrefixBytes];
  for (const std::uint32_t v : {0u, 1u, 255u, 65536u, 0xFFFFFFFFu}) {
    put_length_prefix(buf, v);
    EXPECT_EQ(get_length_prefix(buf), v);
  }
}

TEST(NetSocket, MessageRoundTripOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd a(fds[0]), b(fds[1]);
  const Bytes msg = to_bytes("negotiate me");
  send_message(a.get(), msg);
  const auto got = recv_message(b.get());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, msg);

  a.reset();  // close -> clean EOF at a message boundary
  EXPECT_FALSE(recv_message(b.get()).has_value());
}

TEST(NetSocket, OversizedLengthPrefixIsIoErrorNotAllocation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd a(fds[0]), b(fds[1]);
  std::uint8_t prefix[kLengthPrefixBytes];
  put_length_prefix(prefix, 0xFFFFFFFFu);  // claims a ~4 GiB body
  send_all(a.get(), prefix, sizeof prefix);
  EXPECT_THROW(recv_message(b.get()), IoError);
}

TEST(NetSocket, NonBlockingReadReportsWouldBlockAndEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd a(fds[0]), b(fds[1]);
  set_nonblocking(b.get());
  std::uint8_t buf[16];
  EXPECT_EQ(read_some(b.get(), buf, sizeof buf), -1);  // nothing yet
  send_all(a.get(), buf, 4);
  EXPECT_EQ(read_some(b.get(), buf, sizeof buf), 4);
  a.reset();
  EXPECT_EQ(read_some(b.get(), buf, sizeof buf), 0);  // EOF
}

TEST(NetSocket, ListenConnectAcceptLoopback) {
  std::uint16_t port = 0;
  ScopedFd listener(listen_loopback(0, 8, &port));
  ASSERT_GT(port, 0);
  EXPECT_EQ(accept_client(listener.get()), -1);  // nothing pending yet
  ScopedFd client(connect_loopback(port));
  ASSERT_TRUE(wait_readable(listener.get(), 1000));
  ScopedFd server(accept_client(listener.get()));
  ASSERT_TRUE(server.valid());
  send_message(client.get(), to_bytes("hi"));
  const auto got = recv_message(server.get());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(*got), "hi");
}

// --- NetLoop: both readiness backends ---------------------------------

class NetLoop : public ::testing::TestWithParam<LoopBackend> {};

TEST_P(NetLoop, DispatchesReadableAndHonorsRemove) {
  EventLoop loop({GetParam()});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd a(fds[0]), b(fds[1]);
  set_nonblocking(b.get());

  int fired = 0;
  loop.add(b.get(), true, false, [&](int fd, Ready ready) {
    EXPECT_EQ(fd, b.get());
    EXPECT_TRUE(ready.readable);
    ++fired;
    std::uint8_t buf[64];
    while (read_some(fd, buf, sizeof buf) > 0) {
    }
  });
  EXPECT_EQ(loop.size(), 1u);

  EXPECT_EQ(loop.poll_once(0), 0u);  // idle
  send_all(a.get(), reinterpret_cast<const std::uint8_t*>("x"), 1);
  EXPECT_EQ(loop.poll_once(1000), 1u);
  EXPECT_EQ(fired, 1);

  loop.remove(b.get());
  send_all(a.get(), reinterpret_cast<const std::uint8_t*>("y"), 1);
  EXPECT_EQ(loop.poll_once(0), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_GE(loop.wakeups(), 3u);
}

TEST_P(NetLoop, WriteInterestFollowsModify) {
  EventLoop loop({GetParam()});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScopedFd a(fds[0]), b(fds[1]);
  set_nonblocking(a.get());

  int writable = 0;
  loop.add(a.get(), false, false, [&](int, Ready ready) {
    if (ready.writable) ++writable;
  });
  EXPECT_EQ(loop.poll_once(0), 0u);  // no interest, no dispatch
  loop.modify(a.get(), false, true);
  EXPECT_EQ(loop.poll_once(1000), 1u);  // empty socket buffer: writable
  EXPECT_EQ(writable, 1);
  loop.modify(a.get(), false, false);
  EXPECT_EQ(loop.poll_once(0), 0u);
}

TEST_P(NetLoop, CallbackMayRemovePeerFdMidBatch) {
  EventLoop loop({GetParam()});
  int p1[2], p2[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, p1), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, p2), 0);
  ScopedFd a1(p1[0]), b1(p1[1]), a2(p2[0]), b2(p2[1]);
  set_nonblocking(b1.get());
  set_nonblocking(b2.get());

  // Whichever fires first removes BOTH registrations; the second ready fd
  // must be skipped, not dispatched against a dangling entry.
  int fired = 0;
  const auto cb = [&](int, Ready) {
    ++fired;
    loop.remove(b1.get());
    loop.remove(b2.get());
  };
  loop.add(b1.get(), true, false, cb);
  loop.add(b2.get(), true, false, cb);
  send_all(a1.get(), reinterpret_cast<const std::uint8_t*>("x"), 1);
  send_all(a2.get(), reinterpret_cast<const std::uint8_t*>("x"), 1);
  loop.poll_once(1000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, NetLoop,
                         ::testing::Values(LoopBackend::kAuto,
                                           LoopBackend::kPoll),
                         [](const auto& info) {
                           return info.param == LoopBackend::kPoll ? "poll"
                                                                   : "auto";
                         });

// --- NetHandshake: negotiation + codec --------------------------------

TEST(NetHandshake, OfferRoundTrip) {
  CompressionOffer offer;
  offer.methods = {MethodId::kLzw, MethodId::kHuffman};
  offer.block_size = 32 * 1024;
  offer.expansion_slack = 128;
  offer.context_takeover = false;
  offer.target_rate_Bps = 123456789;
  offer.name = "edge-client";
  EXPECT_EQ(offer_decode(offer_encode(offer)), offer);

  offer.resume_session = 7;
  offer.resume_token = 0xDEADBEEF;
  offer.resume_from = 42;
  EXPECT_EQ(offer_decode(offer_encode(offer)), offer);
}

TEST(NetHandshake, ParamsRoundTrip) {
  NegotiatedParams params;
  params.methods = {MethodId::kBurrowsWheeler, MethodId::kNone};
  params.block_size = 8 * 1024;
  params.expansion_slack = 0;
  params.context_takeover = false;
  params.target_rate_Bps = 1ull << 40;
  EXPECT_EQ(params_decode(params_encode(params)), params);
}

TEST(NetHandshake, IntersectionKeepsOfferPreferenceOrder) {
  CompressionOffer offer;
  offer.methods = {MethodId::kLzw, MethodId::kBurrowsWheeler,
                   MethodId::kHuffman};
  ServerPolicy policy;
  policy.methods = {MethodId::kHuffman, MethodId::kBurrowsWheeler};
  const NegotiatedParams params = negotiate(offer, policy);
  const std::vector<MethodId> expect = {MethodId::kBurrowsWheeler,
                                        MethodId::kHuffman, MethodId::kNone};
  EXPECT_EQ(params.methods, expect);
}

TEST(NetHandshake, EmptyIntersectionIsCleanTypedReject) {
  CompressionOffer offer;
  offer.methods = {MethodId::kArithmetic};
  ServerPolicy policy;
  policy.methods = {MethodId::kHuffman};
  try {
    negotiate(offer, policy);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kNoCommonMethod);
  }
}

TEST(NetHandshake, NullOnlyOfferNeedsNoCommonCodec) {
  // A client that only ever wanted pass-through is not "no common method".
  CompressionOffer offer;
  offer.methods = {MethodId::kNone};
  ServerPolicy policy;
  policy.methods = {MethodId::kHuffman};
  const NegotiatedParams params = negotiate(offer, policy);
  EXPECT_EQ(params.methods, std::vector<MethodId>{MethodId::kNone});
}

TEST(NetHandshake, ParameterClampingAndBadParameter) {
  CompressionOffer offer;
  offer.block_size = 1;  // below policy floor
  offer.expansion_slack = 1 << 20;
  ServerPolicy policy;
  policy.max_target_rate_Bps = 1000;
  offer.target_rate_Bps = 5000;
  const NegotiatedParams params = negotiate(offer, policy);
  EXPECT_EQ(params.block_size, policy.min_block_size);
  EXPECT_EQ(params.expansion_slack, policy.max_expansion_slack);
  EXPECT_EQ(params.target_rate_Bps, 1000u);

  offer.block_size = 0;
  try {
    negotiate(offer, policy);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kBadParameter);
  }
}

TEST(NetHandshake, ContextTakeoverIsOfferAndPolicy) {
  CompressionOffer offer;
  ServerPolicy policy;
  EXPECT_TRUE(negotiate(offer, policy).context_takeover);
  policy.allow_context_takeover = false;
  EXPECT_FALSE(negotiate(offer, policy).context_takeover);
  policy.allow_context_takeover = true;
  offer.context_takeover = false;
  EXPECT_FALSE(negotiate(offer, policy).context_takeover);
}

TEST(NetHandshake, PolicyIdRoundTripsOnTheWire) {
  CompressionOffer offer;
  offer.policy_id =
      static_cast<std::uint64_t>(adaptive::DecisionPolicy::kEnergyProxy);
  EXPECT_EQ(offer_decode(offer_encode(offer)), offer);

  NegotiatedParams params;
  params.policy = adaptive::DecisionPolicy::kTargetRate;
  EXPECT_EQ(params_decode(params_encode(params)), params);

  // The default policy (kBandwidth = 0) encodes as an EMPTY extension
  // block — byte-identical to the pre-policy wire format, so old peers
  // interoperate without noticing.
  CompressionOffer default_offer;
  CompressionOffer explicit_bandwidth;
  explicit_bandwidth.policy_id = 0;
  EXPECT_EQ(offer_encode(default_offer), offer_encode(explicit_bandwidth));
}

TEST(NetHandshake, UnknownPolicyIdIsTypedReject) {
  // A policy id from a newer build must produce the typed reject, not a
  // parse error and not a silent downgrade.
  CompressionOffer offer;
  offer.policy_id = 99;
  EXPECT_EQ(offer_decode(offer_encode(offer)).policy_id, 99u)
      << "unknown ids must survive decode so negotiate() can name them";
  ServerPolicy policy;
  try {
    negotiate(offer, policy);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kUnsupportedPolicy);
  }
}

TEST(NetHandshake, ServerPolicyListGatesKnownPolicies) {
  // A known policy the server chose not to allow is rejected with the same
  // typed status as an unknown one.
  CompressionOffer offer;
  offer.policy_id =
      static_cast<std::uint64_t>(adaptive::DecisionPolicy::kCpuEfficiency);
  ServerPolicy policy;
  policy.policies = {adaptive::DecisionPolicy::kBandwidth};
  try {
    negotiate(offer, policy);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kUnsupportedPolicy);
  }
  policy.policies.push_back(adaptive::DecisionPolicy::kCpuEfficiency);
  EXPECT_EQ(negotiate(offer, policy).policy,
            adaptive::DecisionPolicy::kCpuEfficiency);
}

TEST(NetHandshake, WelcomeNamingUnknownPolicyIsTyped) {
  // The server side of the skew: a welcome whose extension names a policy
  // this build cannot run must throw typed, never half-apply.
  NegotiatedParams params;
  params.policy = adaptive::DecisionPolicy::kEnergyProxy;
  Bytes wire = params_encode(params);
  // The policy extension is the last thing before the CRC: field id 1,
  // length 1, value. Corrupt the value byte to an unknown id.
  ASSERT_GE(wire.size(), 8u);
  wire[wire.size() - 5] = 77;
  const std::size_t body = wire.size() - 4;
  const std::uint32_t crc = crc32(ByteView(wire.data(), body));
  for (std::size_t i = 0; i < 4; ++i) {
    wire[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  try {
    params_decode(wire);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kUnsupportedPolicy);
  }
}

TEST(NetHandshake, NegotiatedPolicyAppliesToAdaptiveConfig) {
  NegotiatedParams params;
  params.policy = adaptive::DecisionPolicy::kCpuEfficiency;
  adaptive::AdaptiveConfig config;
  apply(params, config);
  EXPECT_EQ(config.decision.policy, adaptive::DecisionPolicy::kCpuEfficiency);
}

TEST(NetHandshake, UnknownMethodIdsIgnoredNotFatal) {
  CompressionOffer offer;
  offer.methods = {MethodId::kHuffman};
  Bytes wire = offer_encode(offer);
  // Re-encode by hand with a bogus method id spliced into the list: bump
  // the count varint (1 -> 2 stays single-byte) and insert unknown id 77.
  // Offsets: magic(2) version(1) flags(1) count(1) id...
  ASSERT_EQ(wire[4], 1);
  wire[4] = 2;
  wire.insert(wire.begin() + 6, static_cast<std::uint8_t>(77));
  // Recompute the trailing CRC over the edited body.
  const std::size_t body = wire.size() - 4;
  const std::uint32_t crc = crc32(ByteView(wire.data(), body));
  for (std::size_t i = 0; i < 4; ++i) {
    wire[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  const CompressionOffer decoded = offer_decode(wire);
  EXPECT_EQ(decoded.methods, offer.methods);  // 77 skipped silently
}

TEST(NetHandshake, VNextExtensionFieldIsSkipped) {
  CompressionOffer offer;
  Bytes wire = offer_encode(offer);
  // The encoder wrote an empty extension block (varint 0) just before the
  // CRC. Replace it with a block carrying an unknown TLV field (id 7,
  // 2 payload bytes) a v-next peer might send; this decoder must skip the
  // field by its declared length and still parse cleanly — with the
  // default policy, since no policy field was present.
  Bytes edited(wire.begin(), wire.end() - 5);  // drop "00" ext + CRC
  edited.push_back(4);     // extension block length
  edited.push_back(7);     // unknown field id
  edited.push_back(2);     // field length
  edited.push_back(0xAA);
  edited.push_back(0xBB);
  const std::uint32_t crc = crc32(edited);
  for (std::size_t i = 0; i < 4; ++i) {
    edited.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  EXPECT_EQ(offer_decode(edited), offer);
  EXPECT_EQ(offer_decode(edited).policy_id, 0u);
}

TEST(NetHandshake, VersionSkewIsTyped) {
  Bytes wire = offer_encode(CompressionOffer{});
  wire[2] = kHandshakeVersion + 1;
  const std::size_t body = wire.size() - 4;
  const std::uint32_t crc = crc32(ByteView(wire.data(), body));
  for (std::size_t i = 0; i < 4; ++i) {
    wire[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  try {
    offer_decode(wire);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kVersionSkew);
  }
}

TEST(NetHandshake, GovernedMethodDemotesAlongStrengthLadder) {
  const std::vector<MethodId> allowed = {MethodId::kLempelZiv,
                                         MethodId::kNone};
  // Stronger-than-allowed demotes to the strongest allowed weaker method.
  EXPECT_EQ(governed_method(allowed, MethodId::kBurrowsWheeler),
            MethodId::kLempelZiv);
  EXPECT_EQ(governed_method(allowed, MethodId::kLzw), MethodId::kLempelZiv);
  // Allowed methods pass through; weaker-than-anything falls to kNone.
  EXPECT_EQ(governed_method(allowed, MethodId::kLempelZiv),
            MethodId::kLempelZiv);
  EXPECT_EQ(governed_method(allowed, MethodId::kHuffman), MethodId::kNone);
  EXPECT_EQ(governed_method(allowed, MethodId::kNone), MethodId::kNone);
}

TEST(NetHandshake, ApplyMapsOntoAdaptiveConfig) {
  NegotiatedParams params;
  params.methods = {MethodId::kHuffman, MethodId::kNone};
  params.block_size = 8192;
  params.expansion_slack = 16;
  params.context_takeover = false;
  params.target_rate_Bps = 777;
  adaptive::AdaptiveConfig config;
  config.async_sampling = true;
  apply(params, config);
  EXPECT_EQ(config.decision.block_size, 8192u);
  EXPECT_EQ(config.expansion_slack_bytes, 16u);
  EXPECT_DOUBLE_EQ(config.target_rate_Bps, 777.0);
  EXPECT_FALSE(config.async_sampling);  // no context takeover
  ASSERT_TRUE(static_cast<bool>(config.method_governor));
  EXPECT_EQ(config.method_governor(MethodId::kBurrowsWheeler),
            MethodId::kHuffman);
}

TEST(NetHandshake, RandomizedOfferRoundTripProperty) {
  Rng rng(0xC0FFEE);
  const std::vector<MethodId> pool = {
      MethodId::kNone,       MethodId::kHuffman,        MethodId::kArithmetic,
      MethodId::kLempelZiv,  MethodId::kBurrowsWheeler, MethodId::kLzw};
  for (int iter = 0; iter < 200; ++iter) {
    CompressionOffer offer;
    offer.methods.clear();
    const std::size_t n = 1 + rng.below(pool.size());
    for (std::size_t i = 0; i < n; ++i) {
      const MethodId m = pool[rng.below(pool.size())];
      if (std::find(offer.methods.begin(), offer.methods.end(), m) ==
          offer.methods.end()) {
        offer.methods.push_back(m);
      }
    }
    offer.block_size = static_cast<std::uint32_t>(1 + rng.below(1 << 22));
    offer.expansion_slack = static_cast<std::uint32_t>(rng.below(4096));
    offer.context_takeover = rng.chance(0.5);
    offer.target_rate_Bps = rng.below(1ull << 40);
    offer.name = "c" + std::to_string(rng.below(1000));
    if (rng.chance(0.3)) {
      offer.resume_session = 1 + rng.below(1000);
      offer.resume_token = rng();
      offer.resume_from = rng.below(10000);
    }
    ASSERT_EQ(offer_decode(offer_encode(offer)), offer) << "iter " << iter;

    // Negotiation, when it succeeds, must emit only offered-or-kNone
    // methods, honor policy bounds, and be idempotent under re-check.
    ServerPolicy policy;
    policy.min_block_size = static_cast<std::uint32_t>(1 + rng.below(8192));
    policy.max_block_size =
        policy.min_block_size + static_cast<std::uint32_t>(rng.below(1 << 22));
    try {
      const NegotiatedParams params = negotiate(offer, policy);
      EXPECT_GE(params.block_size, policy.min_block_size);
      EXPECT_LE(params.block_size, policy.max_block_size);
      for (const MethodId m : params.methods) {
        EXPECT_TRUE(m == MethodId::kNone ||
                    std::find(offer.methods.begin(), offer.methods.end(),
                              m) != offer.methods.end());
      }
      EXPECT_FALSE(params.methods.empty());
    } catch (const HandshakeError&) {
      // typed rejects are legal outcomes of random offers
    }
  }
}

TEST(NetHandshake, MutatedOffersNeverCrashOrMisparse) {
  // Truncation + bit-flip fuzz via qa::mutate: every mutation either
  // decodes to SOMETHING (CRC collision at ~2^-32, structurally valid) or
  // throws a typed HandshakeError — never anything else, never a crash.
  Rng rng(0xFEED5EED);
  CompressionOffer offer;
  offer.name = "fuzz-victim";
  offer.resume_session = 3;
  offer.resume_token = 9;
  const Bytes clean = offer_encode(offer);
  int rejected = 0;
  const int iters = qa::fuzz_iterations(300);
  for (int i = 0; i < iters; ++i) {
    Bytes evil = qa::mutate(clean, rng);
    if (rng.chance(0.3) && !evil.empty()) {
      evil.resize(rng.below(evil.size()));  // hard truncation
    }
    try {
      (void)offer_decode(evil);
    } catch (const HandshakeError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, iters / 2);  // most mutations must be caught
}

// --- NetProtocol: message envelopes -----------------------------------

TEST(NetProtocol, WrapUnwrapRoundTrip) {
  const Bytes payload = to_bytes("payload");
  const Bytes framed = wrap(MsgKind::kNack, payload);
  const Msg msg = unwrap(framed);
  EXPECT_EQ(msg.kind, MsgKind::kNack);
  EXPECT_EQ(msg.payload, payload);
  EXPECT_THROW(unwrap(Bytes{}), HandshakeError);
  EXPECT_THROW(unwrap(Bytes{99}), HandshakeError);
}

TEST(NetProtocol, WelcomeRejectNackStatsRoundTrip) {
  Welcome welcome;
  welcome.session_id = 11;
  welcome.token = 0xABCD;
  welcome.heartbeat_interval_ms = 250;
  welcome.resumed = true;
  welcome.replayed = 5;
  welcome.params.methods = {MethodId::kLzw, MethodId::kNone};
  EXPECT_EQ(welcome_decode(welcome_encode(welcome)), welcome);

  Reject reject;
  reject.status = HandshakeStatus::kNoCommonMethod;
  reject.reason = "no overlap";
  EXPECT_EQ(reject_decode(reject_encode(reject)), reject);

  const std::vector<std::uint64_t> seqs = {1, 5, 1000000};
  EXPECT_EQ(nack_decode(nack_encode(seqs)), seqs);
}

TEST(NetProtocol, DemoBlocksSelfVerify) {
  const Bytes block = demo_block(42, 7, 4096);
  EXPECT_EQ(block.size(), 4096u);
  EXPECT_EQ(demo_block_index(block), 7);
  EXPECT_EQ(demo_block_size(block), 4096u);
  EXPECT_TRUE(demo_block_verify(42, block));
  Bytes bad = block;
  bad[100] ^= 1;
  EXPECT_FALSE(demo_block_verify(42, bad));
  EXPECT_FALSE(demo_block_verify(43, block));
  EXPECT_EQ(demo_block_index(to_bytes("not a block")), -1);
}

// --- NetDaemon: end-to-end over real sockets --------------------------

DaemonConfig quick_daemon_config() {
  DaemonConfig config;
  config.tick_interval = 0.02;
  config.session.liveness_timeout = 1.0;
  config.session.suspect_grace = 0.5;
  config.session.park_grace = 10.0;
  config.session.heartbeat_interval = 0.1;
  return config;
}

CompressionOffer deterministic_offer(std::vector<MethodId> methods) {
  CompressionOffer offer;
  offer.methods = std::move(methods);
  // Unreachable target rate: every block escalates to the strongest
  // negotiated method, so selections do not depend on socket timing.
  offer.target_rate_Bps = 1ull << 60;
  return offer;
}

/// Replay `blocks` through a private broker configured exactly like the
/// daemon configures the negotiated subscriber; returns (frames, crc).
std::pair<std::uint64_t, std::uint32_t> private_wire(
    const NegotiatedParams& params, const std::vector<Bytes>& blocks) {
  struct Capture final : transport::Transport {
    void send(ByteView m) override {
      crc.update(m);
      ++frames;
    }
    std::optional<Bytes> receive() override { return std::nullopt; }
    const Clock& clock() const override { return clk; }
    MonotonicClock clk;
    Crc32 crc;
    std::uint64_t frames = 0;
  } capture;
  broker::FanoutBroker broker;
  broker::SubscriberConfig sub;
  apply(params, sub.adaptive);
  const broker::SubscriberId id = broker.subscribe(capture, sub);
  for (const Bytes& block : blocks) {
    broker.publish(block);
    broker.pump(id);
  }
  return {capture.frames, capture.crc.value()};
}

TEST(NetDaemon, HeterogeneousClientsDecodeAndMatchPrivateWire) {
  Daemon daemon(quick_daemon_config());
  daemon.start();

  struct Spec {
    std::vector<MethodId> methods;
    std::uint32_t block_size;
  };
  const std::vector<Spec> specs = {
      {{MethodId::kBurrowsWheeler, MethodId::kNone}, 64 * 1024},
      {{MethodId::kLempelZiv, MethodId::kNone}, 16 * 1024},
      {{MethodId::kHuffman, MethodId::kNone}, 8 * 1024},
      {{MethodId::kNone}, 32 * 1024},
  };
  std::vector<std::unique_ptr<DaemonClient>> clients;
  for (const Spec& spec : specs) {
    DaemonClientConfig cfg;
    cfg.offer = deterministic_offer(spec.methods);
    if (spec.methods == std::vector<MethodId>{MethodId::kNone}) {
      cfg.offer.target_rate_Bps = 0;  // pass-through client: no escalation
    }
    cfg.offer.block_size = spec.block_size;
    clients.push_back(std::make_unique<DaemonClient>(daemon.port(), cfg));
    // Negotiation honored per client: strongest offered method survives.
    EXPECT_EQ(clients.back()->welcome().params.methods.front(),
              spec.methods.front());
    EXPECT_EQ(clients.back()->welcome().params.block_size, spec.block_size);
  }

  constexpr int kBlocks = 12;
  constexpr std::size_t kBlockBytes = 24 * 1024;
  std::vector<Bytes> blocks;
  Bytes expected_stream;
  for (int i = 0; i < kBlocks; ++i) {
    blocks.push_back(demo_block(9, static_cast<std::uint32_t>(i),
                                kBlockBytes));
    expected_stream.insert(expected_stream.end(), blocks.back().begin(),
                           blocks.back().end());
  }
  for (const Bytes& block : blocks) daemon.publish(block);

  for (auto& client : clients) {
    ASSERT_TRUE(client->poll_until(expected_stream.size(), 15000));
    // Content identity: every client decodes the byte-exact publish
    // stream regardless of its negotiated parameters.
    EXPECT_EQ(client->stream(), expected_stream);
  }

  // Wire identity: the frames each client saw equal a private
  // AdaptiveSender run with the same negotiated config (deterministic
  // because of the forced target rate; valid only if nothing was dropped
  // and re-requested, hence the frame-count gate).
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto [frames, crc] =
        private_wire(clients[i]->welcome().params, blocks);
    ASSERT_EQ(clients[i]->data_frames(), frames) << "client " << i;
    EXPECT_EQ(clients[i]->wire_crc(), crc) << "client " << i;
  }

  for (auto& client : clients) client->bye();
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.handshakes, specs.size());
  EXPECT_EQ(stats.rejects, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  EXPECT_GT(stats.loop_wakeups, 0u);
}

TEST(NetDaemon, RejectsRideTypedStatuses) {
  DaemonConfig config = quick_daemon_config();
  config.policy.methods = {MethodId::kHuffman};
  Daemon daemon(config);
  daemon.start();

  DaemonClientConfig cfg;
  cfg.offer.methods = {MethodId::kBurrowsWheeler};
  try {
    DaemonClient client(daemon.port(), cfg);
    FAIL() << "expected HandshakeError";
  } catch (const HandshakeError& e) {
    EXPECT_EQ(e.status(), HandshakeStatus::kNoCommonMethod);
  }

  // Garbage instead of a hello: typed malformed reject.
  {
    ScopedFd raw(connect_loopback(daemon.port()));
    send_message(raw.get(), wrap(MsgKind::kHello, to_bytes("garbage")));
    const auto answer = recv_message(raw.get());
    ASSERT_TRUE(answer.has_value());
    const Msg msg = unwrap(*answer);
    ASSERT_EQ(msg.kind, MsgKind::kReject);
    EXPECT_EQ(reject_decode(msg.payload).status, HandshakeStatus::kMalformed);
    EXPECT_FALSE(recv_message(raw.get()).has_value());  // then EOF
  }

  // Version-skewed offer: typed version reject.
  {
    Bytes wire = offer_encode(CompressionOffer{});
    wire[2] = kHandshakeVersion + 3;
    const std::size_t body = wire.size() - 4;
    const std::uint32_t crc = crc32(ByteView(wire.data(), body));
    for (std::size_t i = 0; i < 4; ++i) {
      wire[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    ScopedFd raw(connect_loopback(daemon.port()));
    send_message(raw.get(), wrap(MsgKind::kHello, wire));
    const auto answer = recv_message(raw.get());
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(reject_decode(unwrap(*answer).payload).status,
              HandshakeStatus::kVersionSkew);
  }

  daemon.stop();
  EXPECT_EQ(daemon.stats().rejects, 3u);
  EXPECT_EQ(daemon.stats().handshakes, 0u);
}

TEST(NetDaemon, StatProbeAnswersWithoutSubscription) {
  Daemon daemon(quick_daemon_config());
  daemon.start();
  ScopedFd raw(connect_loopback(daemon.port()));
  send_message(raw.get(), wrap(MsgKind::kStatRequest, {}));
  const auto answer = recv_message(raw.get());
  ASSERT_TRUE(answer.has_value());
  const Msg msg = unwrap(*answer);
  ASSERT_EQ(msg.kind, MsgKind::kStatReply);
  // The reply is the process's obs registry, which has counted at least
  // the probe's own connection.
  const obs::MetricsSnapshot snapshot = obs::parse_json_lines(
      std::string(msg.payload.begin(), msg.payload.end()));
  const obs::MetricPoint* connections = snapshot.find("acex.net.connections");
  ASSERT_NE(connections, nullptr);
  EXPECT_GE(connections->counter, 1u);
  EXPECT_NE(snapshot.find("acex.net.handshakes"), nullptr);
  daemon.stop();
  // A probe is not a subscriber: it opened no session.
  EXPECT_EQ(daemon.stats().handshakes, 0u);
  EXPECT_EQ(daemon.streaming_count(), 0u);
}

TEST(NetDaemon, NetSeriesMirrorDaemonStatsAcrossKillAndResume) {
  // The acex.net.* counters are process-wide, so they are checked as
  // deltas from a snapshot taken before this daemon started. The test
  // reads the registry in process: a stat reply is snapshotted before its
  // own bytes are counted in bytes_out.
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::global().snapshot();
  Daemon daemon(quick_daemon_config());
  daemon.start();
  DaemonClientConfig cfg;
  cfg.offer = deterministic_offer({MethodId::kHuffman, MethodId::kNone});
  DaemonClient steady(daemon.port(), cfg);
  DaemonClient victim(daemon.port(), cfg);

  Bytes expected;
  const auto publish = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      Bytes b = demo_block(8, static_cast<std::uint32_t>(i), 4096);
      expected.insert(expected.end(), b.begin(), b.end());
      daemon.publish(std::move(b));
    }
  };
  publish(0, 3);
  ASSERT_TRUE(victim.poll_until(expected.size(), 10000));
  victim.drop();
  publish(3, 6);
  msleep(100);  // let the daemon park the dropped session first
  victim.resume(daemon.port());
  for (DaemonClient* client : {&steady, &victim}) {
    ASSERT_TRUE(client->poll_until(expected.size(), 10000));
    EXPECT_EQ(client->stream(), expected);
    client->bye();
  }
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.handshakes, 3u);  // two hellos and one resume
  EXPECT_EQ(stats.blocks_published, 6u);
  for (const std::string& violation : qa::check_series(
           before, obs::MetricsRegistry::global().snapshot(),
           {{"acex.net.connections", stats.connections_total},
            {"acex.net.handshakes", stats.handshakes},
            {"acex.net.rejects", stats.rejects},
            {"acex.net.bytes_in", stats.bytes_in},
            {"acex.net.bytes_out", stats.bytes_out},
            {"acex.net.blocks_published", stats.blocks_published}})) {
    ADD_FAILURE() << violation;
  }
}

TEST(NetDaemon, KilledClientResumesByteIdentically) {
  DaemonConfig config = quick_daemon_config();
  Daemon daemon(config);
  daemon.start();

  DaemonClientConfig cfg;
  cfg.offer = deterministic_offer({MethodId::kLempelZiv, MethodId::kNone});
  cfg.offer.name = "lazarus";
  DaemonClient client(daemon.port(), cfg);

  constexpr int kBlocks = 10;
  constexpr std::size_t kBlockBytes = 8 * 1024;
  Bytes expected;
  for (int i = 0; i < kBlocks / 2; ++i) {
    Bytes b = demo_block(5, static_cast<std::uint32_t>(i), kBlockBytes);
    expected.insert(expected.end(), b.begin(), b.end());
    daemon.publish(std::move(b));
  }
  ASSERT_TRUE(client.poll_until(expected.size(), 10000));

  // Kill: no bye, no warning. The daemon parks the session on EOF.
  const std::uint64_t session = client.session().session_id();
  client.drop();
  msleep(100);

  // Blocks published while the client is dead must survive the outage
  // (parked sessions keep planning; the ring holds the gap).
  for (int i = kBlocks / 2; i < kBlocks; ++i) {
    Bytes b = demo_block(5, static_cast<std::uint32_t>(i), kBlockBytes);
    expected.insert(expected.end(), b.begin(), b.end());
    daemon.publish(std::move(b));
  }
  msleep(100);

  client.resume(daemon.port());
  EXPECT_TRUE(client.welcome().resumed);
  EXPECT_EQ(client.welcome().session_id, session);
  ASSERT_TRUE(client.poll_until(expected.size(), 10000));
  // No gap, no duplicate: the resumed stream is byte-identical to one
  // that never dropped.
  EXPECT_EQ(client.stream(), expected);

  client.bye();
  daemon.stop();
  EXPECT_EQ(daemon.manager().counters().resumes, 1u);
}

/// The kBye that acexd's retired session control wire carried, naming
/// `session_id` with no token: kind byte 5, then magic 0xA5, kind 7, the
/// varint session id, zero token, resume_from and reason length, and a
/// CRC-32 (LE) of all of it.
Bytes retired_control_bye(std::uint64_t session_id) {
  Bytes body = {0xA5, 7};
  put_varint(body, session_id);
  body.insert(body.end(), {0, 0, 0});
  const std::uint32_t crc = crc32(body);
  for (int shift = 0; shift < 32; shift += 8) {
    body.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  return wrap(MsgKind::kHeartbeat, body);
}

/// Returns once the daemon's loop has handled everything that was ready
/// when it was called: the second of two stat round trips is read in a
/// later loop turn than the one that answered the first.
void sync_with_loop(std::uint16_t port) {
  ScopedFd probe(connect_loopback(port));
  for (int i = 0; i < 2; ++i) {
    send_message(probe.get(), wrap(MsgKind::kStatRequest, {}));
    ASSERT_TRUE(recv_message(probe.get()).has_value());
  }
}

TEST(NetDaemon, ForeignByeClosesOnlyItsSender) {
  // A heartbeat acts on its own connection's session. A handshaken peer
  // that sends the retired tokenless kBye naming another client's session
  // loses its own connection, and the other client keeps streaming.
  Daemon daemon(quick_daemon_config());
  daemon.start();
  DaemonClientConfig cfg;
  cfg.offer = deterministic_offer({MethodId::kHuffman, MethodId::kNone});
  DaemonClient victim(daemon.port(), cfg);
  const std::uint64_t session = victim.session().session_id();

  ScopedFd peer(connect_loopback(daemon.port()));
  send_message(peer.get(),
               wrap(MsgKind::kHello, offer_encode(CompressionOffer{})));
  const auto welcome = recv_message(peer.get());
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(unwrap(*welcome).kind, MsgKind::kWelcome);
  send_message(peer.get(), retired_control_bye(session));
  ASSERT_TRUE(wait_readable(peer.get(), 5000));
  EXPECT_FALSE(recv_message(peer.get()).has_value());  // EOF: closed

  Bytes b = demo_block(4, 0, 4096);
  const Bytes expected = b;
  daemon.publish(std::move(b));
  ASSERT_TRUE(victim.poll_until(expected.size(), 10000));
  EXPECT_EQ(victim.stream(), expected);
  EXPECT_EQ(daemon.manager().state(session), session::SessionState::kLive);
  victim.bye();
  daemon.stop();
}

TEST(NetDaemon, ResumeClosesTheConnectionItLeaves) {
  // The client resumes on a fresh socket while its old one is still open.
  // The session moves to the fresh connection, so closing the old socket
  // afterwards must not park it.
  Daemon daemon(quick_daemon_config());
  daemon.start();
  DaemonClientConfig cfg;
  cfg.offer = deterministic_offer({MethodId::kHuffman, MethodId::kNone});
  DaemonClient client(daemon.port(), cfg);
  const std::uint64_t session = client.session().session_id();

  CompressionOffer offer = cfg.offer;
  offer.resume_session = session;
  offer.resume_token = client.session().token();
  offer.resume_from = client.session().resume_from();
  ScopedFd fresh(connect_loopback(daemon.port()));
  send_message(fresh.get(), wrap(MsgKind::kHello, offer_encode(offer)));
  const auto answer = recv_message(fresh.get());
  ASSERT_TRUE(answer.has_value());
  const Msg msg = unwrap(*answer);
  ASSERT_EQ(msg.kind, MsgKind::kWelcome);
  EXPECT_TRUE(welcome_decode(msg.payload).resumed);

  client.drop();
  sync_with_loop(daemon.port());
  EXPECT_EQ(daemon.manager().state(session), session::SessionState::kLive);

  daemon.publish(demo_block(6, 0, 4096));
  ASSERT_TRUE(wait_readable(fresh.get(), 10000));
  const auto data = recv_message(fresh.get());
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(unwrap(*data).kind, MsgKind::kData);
  daemon.stop();
}

TEST(NetDaemon, ResumeWithBadTokenIsTypedReject) {
  Daemon daemon(quick_daemon_config());
  daemon.start();
  DaemonClientConfig cfg;
  DaemonClient client(daemon.port(), cfg);
  const std::uint64_t session = client.session().session_id();
  client.drop();

  CompressionOffer offer;
  offer.resume_session = session;
  offer.resume_token = 0xBAD70CEA;  // wrong credential
  offer.resume_from = 0;
  ScopedFd raw(connect_loopback(daemon.port()));
  send_message(raw.get(), wrap(MsgKind::kHello, offer_encode(offer)));
  const auto answer = recv_message(raw.get());
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(reject_decode(unwrap(*answer).payload).status,
            HandshakeStatus::kResumeRejected);
  daemon.stop();
}

TEST(NetDaemon, OverloadLadderStaysInsideNegotiatedSet) {
  // Under memory pressure the session ladder demotes methods — but the
  // composed governor (ladder first, allowlist last) must never emit a
  // method outside the client's negotiated set.
  const std::vector<MethodId> allowed = {MethodId::kLempelZiv,
                                         MethodId::kNone};
  adaptive::AdaptiveConfig config;
  NegotiatedParams params;
  params.methods = allowed;
  apply(params, config);
  // Simulate the manager's composition with a ladder that demotes
  // everything to Huffman (a method the client did NOT negotiate).
  auto ladder = [](MethodId) { return MethodId::kHuffman; };
  auto user = config.method_governor;
  auto composed = [&](MethodId m) { return user(ladder(m)); };
  // Huffman is not in the set: the allowlist pushes it down to kNone
  // rather than letting it onto the wire.
  EXPECT_EQ(composed(MethodId::kBurrowsWheeler), MethodId::kNone);
  EXPECT_EQ(composed(MethodId::kLempelZiv), MethodId::kNone);
}

TEST(NetDaemon, PollBackendServesClientsToo) {
  DaemonConfig config = quick_daemon_config();
  config.backend = LoopBackend::kPoll;
  Daemon daemon(config);
  daemon.start();
  DaemonClientConfig cfg;
  cfg.offer = deterministic_offer({MethodId::kHuffman, MethodId::kNone});
  DaemonClient client(daemon.port(), cfg);
  Bytes expected;
  for (int i = 0; i < 4; ++i) {
    Bytes b = demo_block(3, static_cast<std::uint32_t>(i), 4096);
    expected.insert(expected.end(), b.begin(), b.end());
    daemon.publish(std::move(b));
  }
  ASSERT_TRUE(client.poll_until(expected.size(), 10000));
  EXPECT_EQ(client.stream(), expected);
  client.bye();
  daemon.stop();
}

/// acexbench's daemon-tcp-4 fleet: four clients with distinct method
/// offers and block sizes of 8, 16, 24 and 32 KiB.
std::vector<std::unique_ptr<DaemonClient>> bench_fleet(std::uint16_t port) {
  const std::vector<std::vector<MethodId>> offers = {
      {MethodId::kHuffman, MethodId::kNone},
      {MethodId::kLempelZiv, MethodId::kNone},
      {MethodId::kLzw, MethodId::kNone},
      {MethodId::kNone},
  };
  std::vector<std::unique_ptr<DaemonClient>> clients;
  for (std::size_t i = 0; i < offers.size(); ++i) {
    DaemonClientConfig cfg;
    cfg.offer.methods = offers[i];
    cfg.offer.block_size = static_cast<std::uint32_t>(8 * 1024 * (i + 1));
    clients.push_back(std::make_unique<DaemonClient>(port, cfg));
  }
  return clients;
}

TEST(NetDaemon, RawFleetStopsSamplingAfterWarmup) {
  // acexbench's daemon-tcp-4 fleet over loopback. A daemon connection
  // accepts a frame in microseconds, so once the warm-up has measured the
  // links every subscriber sends raw: the §2.5 first test fails, no plan
  // reads a sample, and the loop thread takes none.
  Daemon daemon(quick_daemon_config());
  daemon.start();
  const std::vector<std::unique_ptr<DaemonClient>> clients =
      bench_fleet(daemon.port());

  // One block at a time, each delivered before the next, so every plan
  // sees the links as the previous block left them.
  constexpr std::size_t kBlockBytes = 16 * 1024;
  std::uint32_t published = 0;
  const auto publish_and_deliver = [&](std::uint32_t blocks) {
    for (std::uint32_t i = 0; i < blocks; ++i) {
      daemon.publish(demo_block(5, published++, kBlockBytes));
      for (auto& client : clients) {
        ASSERT_TRUE(client->poll_until(published * kBlockBytes, 15000));
      }
    }
  };
  publish_and_deliver(20);
  const std::uint64_t samples_before = samples_taken();
  publish_and_deliver(100);
  EXPECT_EQ(samples_taken() - samples_before, 0u);

  for (auto& client : clients) client->bye();
  daemon.stop();
}

TEST(NetDaemon, BurstOfPublishesReachesEveryClient) {
  // The same fleet, fed a hundred blocks back to back: the loop drains
  // them as a batch and must move each toward the sockets before the next
  // one lands, or the egress of the 8 KiB client overflows and its stream
  // stalls.
  Daemon daemon(quick_daemon_config());
  daemon.start();
  const std::vector<std::unique_ptr<DaemonClient>> clients =
      bench_fleet(daemon.port());

  constexpr std::size_t kBlockBytes = 16 * 1024;
  Bytes expected;
  for (std::uint32_t i = 0; i < 100; ++i) {
    Bytes block = demo_block(9, i, kBlockBytes);
    expected.insert(expected.end(), block.begin(), block.end());
    daemon.publish(std::move(block));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  const auto short_of_target = [&] {
    return std::any_of(clients.begin(), clients.end(), [&](const auto& c) {
      return c->stream().size() < expected.size();
    });
  };
  while (short_of_target() && std::chrono::steady_clock::now() < deadline) {
    for (const auto& client : clients) {
      if (client->stream().size() < expected.size()) client->poll(5);
    }
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_EQ(clients[i]->stream().size(), expected.size()) << "client " << i;
    EXPECT_TRUE(clients[i]->stream() == expected) << "client " << i;
  }

  for (auto& client : clients) client->bye();
  daemon.stop();
}

// --- NetClient: heartbeat liveness over a real socket ------------------

TEST(NetClient, HeartbeatsKeepSessionLiveAcrossSilence) {
  DaemonConfig config = quick_daemon_config();
  config.session.liveness_timeout = 0.3;
  config.session.suspect_grace = 0.2;
  Daemon daemon(config);
  daemon.start();

  DaemonClientConfig cfg;
  DaemonClient client(daemon.port(), cfg);
  const std::uint64_t session = client.session().session_id();

  // Nothing published for several liveness windows; polling sends the due
  // heartbeats, so the session must still be live afterwards — real
  // sockets deliver with latency, which is exactly what this exercises.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1200);
  while (std::chrono::steady_clock::now() < deadline) client.poll(20);
  ASSERT_TRUE(client.connected());

  Bytes b = demo_block(1, 0, 4096);
  const Bytes expected = b;
  daemon.publish(std::move(b));
  ASSERT_TRUE(client.poll_until(expected.size(), 10000));
  EXPECT_EQ(client.stream(), expected);

  client.bye();
  // bye() only closes the socket; give the loop a moment to read the EOF
  // and park the session before inspecting.
  for (int i = 0; i < 100; ++i) {
    if (daemon.manager().state(session) == session::SessionState::kParked) {
      break;
    }
    msleep(10);
  }
  daemon.stop();
  EXPECT_EQ(daemon.manager().state(session), session::SessionState::kParked);
  EXPECT_GT(daemon.manager().counters().heartbeats, 2u);
}

TEST(NetClient, SilentClientGetsParkedNotDropped) {
  DaemonConfig config = quick_daemon_config();
  config.session.liveness_timeout = 0.15;
  config.session.suspect_grace = 0.1;
  config.session.park_grace = 30.0;
  Daemon daemon(config);
  daemon.start();

  DaemonClientConfig cfg;
  cfg.offer = deterministic_offer({MethodId::kHuffman, MethodId::kNone});
  DaemonClient client(daemon.port(), cfg);
  const std::uint64_t session = client.session().session_id();

  // Go silent (no polls, no heartbeats) while staying connected: the
  // liveness machinery must walk live -> suspect -> parked.
  for (int i = 0; i < 300; ++i) {
    if (daemon.manager().state(session) == session::SessionState::kParked) {
      break;
    }
    msleep(10);
  }
  EXPECT_EQ(daemon.manager().state(session), session::SessionState::kParked);

  // A parked session resumes — over the SAME kind of path a killed one
  // does — and the stream picks up with everything published meanwhile.
  Bytes b = demo_block(2, 0, 4096);
  const Bytes expected = b;
  daemon.publish(std::move(b));
  msleep(100);
  client.drop();
  client.resume(daemon.port());
  ASSERT_TRUE(client.poll_until(expected.size(), 10000));
  EXPECT_EQ(client.stream(), expected);
  client.bye();
  daemon.stop();
}

TEST(NetClient, SilenceUntilParkedReadsEofWithoutThrowing) {
  DaemonConfig config = quick_daemon_config();
  config.session.park_grace = 30.0;
  Daemon daemon(config);
  daemon.start();

  // 3 MiB of frames, more than the kernel buffers for a client that is
  // not reading: the rest is still in the daemon's outbuf at the park,
  // which comes 1.5 s after the last heartbeat.
  std::vector<Bytes> blocks;
  Bytes expected;
  for (std::uint32_t i = 0; i < 48; ++i) {
    blocks.push_back(demo_block(3, i, 64 * 1024));
    expected.insert(expected.end(), blocks.back().begin(),
                    blocks.back().end());
  }
  DaemonClientConfig cfg;
  cfg.offer.methods = {MethodId::kNone};
  cfg.offer.block_size = 64 * 1024;
  DaemonClient client(daemon.port(), cfg);
  const std::uint64_t session = client.session().session_id();
  for (Bytes& block : blocks) daemon.publish(std::move(block));

  for (int i = 0; i < 500; ++i) {
    if (daemon.manager().state(session) == session::SessionState::kParked) {
      break;
    }
    msleep(10);
  }
  ASSERT_EQ(daemon.manager().state(session), session::SessionState::kParked);

  // The daemon flushes what it had written, then closes a parked
  // session's connection. The client reads every frame and then the EOF,
  // and a heartbeat into the closed socket is a drop, never an exception.
  for (int i = 0; i < 200 && client.connected(); ++i) {
    ASSERT_NO_THROW(client.poll(50));
  }
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(client.stream() == expected);
  daemon.stop();
}

}  // namespace
}  // namespace acex::net
