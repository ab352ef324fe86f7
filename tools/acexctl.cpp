// acexctl — client CLI for acexd (DESIGN.md §13).
//
//   acexctl sub  --port N [--name LABEL] [--methods a,b,c]
//                [--block-size BYTES] [--slack BYTES]
//                [--no-context-takeover] [--target-rate BPS]
//                [--expect-blocks N] [--seed S] [--verify] [--verify-wire]
//                [--kill-after N --resume] [--timeout-ms MS]
//   acexctl stat --port N
//   acexctl tail --port N [--count N] [--seed S] [--timeout-ms MS]
//
// sub subscribes with a compression offer built from the flags, drains the
// stream until --expect-blocks demo blocks arrived, and verifies them:
// --verify regenerates every block from (seed, embedded index) and demands
// byte identity; --verify-wire additionally replays the same publishes
// through a private in-process broker configured with the NEGOTIATED
// parameters and demands that the daemon's wire frames were byte-identical
// (it forces a maximal target rate so method selection is deterministic).
// --kill-after N --resume drops the socket without a bye after N blocks and
// resumes the session on a fresh connection — the verified stream must
// show no gap and no duplicate across the cut.
//
// stat sends one kStatRequest on a fresh connection with no hello, so the
// probe opens no session, and prints the daemon's whole obs registry
// (acex.net.*, acex.broker.*, acex.session.*, ...) as text.
//
// Exit codes: 0 ok, 1 verification/protocol failure, 2 timeout, 64 usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.hpp"
#include "net/client.hpp"
#include "net/demo_stream.hpp"
#include "obs/export.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace {

using namespace acex;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: acexctl sub|stat|tail --port N [options]\n"
               "  sub:  --name S --methods a,b,c --block-size N --slack N\n"
               "        --no-context-takeover --target-rate N --policy P\n"
               "        (P: bandwidth|cpu-efficiency|energy-proxy|\n"
               "            target-rate, or a raw numeric id)\n"
               "        --expect-blocks N --seed S --verify --verify-wire\n"
               "        --kill-after N --resume --timeout-ms MS\n"
               "  tail: --count N --seed S --timeout-ms MS\n");
  std::exit(64);
}

void msleep(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::vector<MethodId> parse_methods(const std::string& csv) {
  std::vector<MethodId> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string name =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!name.empty()) out.push_back(method_from_name(name));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Decision policy by name, or a raw numeric id so skew against a newer
/// server's policy table stays testable from the CLI.
std::uint64_t parse_policy(const std::string& text) {
  for (const adaptive::DecisionPolicy p : adaptive::all_policies()) {
    if (text == adaptive::policy_name(p)) {
      return static_cast<std::uint64_t>(p);
    }
  }
  char* end = nullptr;
  const std::uint64_t raw = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') usage();
  return raw;
}

/// Sink for the private reproduction run: collects the wire frames the
/// broker pumps, in order.
class CaptureTransport final : public transport::Transport {
 public:
  void send(ByteView message) override {
    crc_.update(message);
    ++frames_;
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const Clock& clock() const override { return clock_; }
  std::uint32_t crc() const noexcept { return crc_.value(); }
  std::uint64_t frames() const noexcept { return frames_; }

 private:
  MonotonicClock clock_;
  Crc32 crc_;
  std::uint64_t frames_ = 0;
};

/// Replay the same demo publishes through a private broker with the same
/// negotiated parameters and return the wire CRC of its frame stream.
CaptureTransport reproduce_wire(const net::NegotiatedParams& params,
                                std::uint64_t seed, std::uint32_t blocks,
                                std::size_t block_size) {
  CaptureTransport capture;
  broker::FanoutBroker broker;
  broker::SubscriberConfig sub;
  net::apply(params, sub.adaptive);
  const broker::SubscriberId id = broker.subscribe(capture, sub);
  for (std::uint32_t i = 0; i < blocks; ++i) {
    broker.publish(net::demo_block(seed, i, block_size));
    broker.pump(id);
  }
  return capture;
}

/// Count complete, verified demo blocks in `stream`; returns the number of
/// blocks, or -1 on a verification failure at `*bad_at`.
long scan_blocks(ByteView stream, std::uint64_t seed, bool verify,
                 std::size_t* bad_at) {
  long count = 0;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t size = net::demo_block_size(stream.subspan(pos));
    if (size == 0 || pos + size > stream.size()) break;  // partial tail
    if (verify && !net::demo_block_verify(seed, stream.subspan(pos, size))) {
      *bad_at = pos;
      return -1;
    }
    pos += size;
    ++count;
  }
  return count;
}

int cmd_stat(std::uint16_t port, int timeout_ms) {
  const net::ScopedFd fd(net::connect_loopback(port));
  net::send_message(fd.get(), net::wrap(net::MsgKind::kStatRequest, {}));
  if (!net::wait_readable(fd.get(), timeout_ms)) {
    std::fprintf(stderr, "acexctl: stat reply timed out\n");
    return 2;
  }
  const auto frame = net::recv_message(fd.get());
  if (!frame) throw IoError("daemon closed before the stat reply");
  const net::Msg reply = net::unwrap(*frame);
  if (reply.kind != net::MsgKind::kStatReply) {
    throw IoError("expected a stat reply, got " +
                  std::string(net::msg_kind_name(reply.kind)));
  }
  const std::string json(reply.payload.begin(), reply.payload.end());
  std::fputs(obs::to_text(obs::parse_json_lines(json)).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  if (cmd != "sub" && cmd != "stat" && cmd != "tail") usage();

  std::uint16_t port = 0;
  net::DaemonClientConfig cfg;
  long expect_blocks = 0;
  long count = 10;  // tail
  std::uint64_t seed = 1;
  bool verify = false;
  bool verify_wire = false;
  long kill_after = 0;
  bool do_resume = false;
  int timeout_ms = 30000;
  std::size_t block_size_hint = 16 * 1024;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--name") {
      cfg.offer.name = next();
    } else if (arg == "--methods") {
      cfg.offer.methods = parse_methods(next());
    } else if (arg == "--block-size") {
      cfg.offer.block_size = static_cast<std::uint32_t>(std::atol(next()));
    } else if (arg == "--slack") {
      cfg.offer.expansion_slack =
          static_cast<std::uint32_t>(std::atol(next()));
    } else if (arg == "--no-context-takeover") {
      cfg.offer.context_takeover = false;
    } else if (arg == "--target-rate") {
      cfg.offer.target_rate_Bps = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--policy") {
      cfg.offer.policy_id = parse_policy(next());
    } else if (arg == "--expect-blocks") {
      expect_blocks = std::atol(next());
    } else if (arg == "--count") {
      count = std::atol(next());
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--verify-wire") {
      verify_wire = true;
    } else if (arg == "--kill-after") {
      kill_after = std::atol(next());
    } else if (arg == "--resume") {
      do_resume = true;
    } else if (arg == "--timeout-ms") {
      timeout_ms = std::atoi(next());
    } else if (arg == "--publish-block-size") {
      block_size_hint = static_cast<std::size_t>(std::atol(next()));
    } else {
      usage();
    }
  }
  if (port == 0) usage();

  try {
    if (cmd == "stat") return cmd_stat(port, cfg.io_timeout_ms);

    if (verify_wire) {
      // Pin method selection: an unreachable target rate escalates every
      // block to the strongest negotiated method, making the daemon's
      // choices independent of socket timing — reproducible offline.
      cfg.offer.target_rate_Bps = 1ull << 60;
    }
    if (cmd == "tail") {
      verify = true;
      expect_blocks = count;
    }

    net::DaemonClient client(port, cfg);
    const net::Welcome& w = client.welcome();
    std::string methods;
    for (const MethodId m : w.params.methods) {
      if (!methods.empty()) methods += ",";
      methods += method_name(m);
    }
    std::printf(
        "acexctl: session=%llu negotiated methods=%s block=%u slack=%u "
        "takeover=%d\n",
        static_cast<unsigned long long>(w.session_id), methods.c_str(),
        w.params.block_size, w.params.expansion_slack,
        w.params.context_takeover ? 1 : 0);
    std::fflush(stdout);

    MonotonicClock clock;
    const Seconds deadline = clock.now() + timeout_ms / 1000.0;
    long done = 0;
    long printed = 0;
    bool resumed = false;
    std::size_t bad_at = 0;
    for (;;) {
      done = scan_blocks(client.stream(), seed, verify, &bad_at);
      if (done < 0) {
        std::fprintf(stderr, "acexctl: block verify FAILED at offset %zu\n",
                     bad_at);
        return 1;
      }
      if (cmd == "tail") {
        for (; printed < done; ++printed) {
          std::printf("acexctl tail: block %ld ok\n", printed);
        }
        std::fflush(stdout);
      }
      if (expect_blocks > 0 && done >= expect_blocks) break;
      if (clock.now() >= deadline) {
        std::fprintf(stderr, "acexctl: timed out with %ld/%ld blocks\n",
                     done, expect_blocks);
        return 2;
      }
      if (!resumed && do_resume && kill_after > 0 && done >= kill_after) {
        client.drop();
        msleep(50);
        client.resume(port);
        resumed = true;
        std::printf("acexctl: killed after %ld blocks, resumed (replayed=%llu)\n",
                    done,
                    static_cast<unsigned long long>(client.welcome().replayed));
        std::fflush(stdout);
        continue;
      }
      if (!client.connected()) {
        std::fprintf(stderr, "acexctl: connection lost with %ld/%ld blocks\n",
                     done, expect_blocks);
        return 1;
      }
      client.poll(50);
    }

    if (verify_wire) {
      if (resumed || kill_after > 0) {
        std::fprintf(stderr,
                     "acexctl: --verify-wire cannot run across a kill\n");
        return 64;
      }
      const CaptureTransport expected = reproduce_wire(
          client.welcome().params, seed,
          static_cast<std::uint32_t>(expect_blocks), block_size_hint);
      if (expected.frames() != client.data_frames()) {
        // Frame loss (egress eviction) makes a wire comparison moot; the
        // content identity above already passed.
        std::printf(
            "acexctl: wire check skipped (frames %llu vs %llu — NACK "
            "recovery reordered the stream)\n",
            static_cast<unsigned long long>(client.data_frames()),
            static_cast<unsigned long long>(expected.frames()));
      } else if (expected.crc() != client.wire_crc()) {
        std::fprintf(stderr, "acexctl: wire CRC mismatch %08x vs %08x\n",
                     client.wire_crc(), expected.crc());
        return 1;
      } else {
        std::printf("acexctl: wire byte-identical across %llu frames\n",
                    static_cast<unsigned long long>(client.data_frames()));
      }
    }

    client.bye();
    std::printf("acexctl: ok blocks=%ld bytes=%zu frames=%llu resumed=%d\n",
                done, client.stream().size(),
                static_cast<unsigned long long>(client.data_frames()),
                resumed ? 1 : 0);
    return 0;
  } catch (const net::HandshakeError& e) {
    std::fprintf(stderr, "acexctl: rejected (%s): %s\n",
                 std::string(net::handshake_status_name(e.status())).c_str(),
                 e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acexctl: %s\n", e.what());
    return 1;
  }
}
