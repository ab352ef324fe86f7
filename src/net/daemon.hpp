#pragma once

// acexd's server core (DESIGN.md §13): one epoll/poll event loop fronting
// a session::SessionManager (and through it the FanoutBroker) for many
// concurrent TCP subscribers. No thread per connection: every socket is
// non-blocking, each connection is a buffered reader/writer state machine,
// and ALL manager/broker access happens on the single loop thread —
// other threads talk to it through a mutex'd publish queue and a wakeup
// pipe.
//
// A connection's life: accepted -> handshake (first frame must be a
// kHello offer, answered with kWelcome or a typed kReject) -> streaming
// (its session's egress queue drains into the connection's outbuf, which
// flushes on writability; inbound kHeartbeat/kNack/kStatRequest traffic
// is serviced in place) -> closed (EOF, error, or reject flush), which
// parks the session so a later connection can resume it byte-identically.
//
// A session is bound to exactly one connection. Heartbeats and NACKs act
// on the connection's own session, checked against the token it was
// issued; a client leaves by closing the connection. A successful resume
// moves the session to the resuming connection and closes the one it
// left without parking it. When a session is parked for silence, the
// sweep sends a FIN behind the frames already written, so its client reads
// them, then EOF, and resumes; an expired session's connection closes.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "session/manager.hpp"

namespace acex::net {

struct DaemonConfig {
  /// TCP port to listen on; 0 binds an ephemeral port (see Daemon::port()).
  std::uint16_t port = 0;
  LoopBackend backend = LoopBackend::kAuto;

  /// Bounds client offers are intersected with.
  ServerPolicy policy;

  /// Manager knobs (broker workers, memory budget, token seed).
  session::ManagerConfig manager;

  /// Per-session template. Negotiation overwrites the adaptive fields
  /// (block size, slack, target rate, governor); the egress MUST be a
  /// non-blocking policy — a kBlock queue would wedge the loop thread on
  /// one slow client (ConfigError at construction). The
  /// default swaps the library-wide kBlock egress for kDropOldest, whose
  /// evictions stay NACK-recoverable.
  session::SessionConfig session = [] {
    session::SessionConfig s;
    s.subscriber.policy = broker::SlowConsumerPolicy::kDropOldest;
    return s;
  }();

  /// A connection that has not completed its handshake within this window
  /// is dropped — half-open sockets must not pin daemon state.
  Seconds handshake_timeout = 5.0;

  /// Stop pumping a session's egress into its connection once the
  /// connection's unflushed outbuf exceeds this; frames then queue in the
  /// egress (and, under kDropOldest pressure, stay NACK-recoverable).
  std::size_t outbuf_high_watermark = 4 * 1024 * 1024;

  /// Lifecycle sweep cadence (manager.tick + handshake deadlines); also
  /// the loop's idle wait bound.
  Seconds tick_interval = 0.1;

  /// Accepted connections beyond this are rejected kOverloaded.
  std::size_t max_connections = 4096;
};

/// One daemon's own counters, returned by Daemon::stats(). Each has an
/// `acex.net.*` twin in the process-wide obs registry (six counters plus
/// the `connections_open` and `loop_wakeups` gauges). kStatReply serves
/// that registry; this struct never crosses the wire.
struct DaemonStats {
  std::uint64_t connections_total = 0;   ///< accepted TCP connections
  std::uint64_t connections_open = 0;    ///< currently open
  std::uint64_t handshakes = 0;          ///< kWelcome sent
  std::uint64_t rejects = 0;             ///< kReject sent
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t loop_wakeups = 0;
  std::uint64_t blocks_published = 0;
};

/// The multi-client daemon. Construction binds the listener; run() (or
/// start()) enters the loop. publish()/stop()/stats() are thread-safe;
/// everything else belongs to the loop thread.
class Daemon {
 public:
  explicit Daemon(DaemonConfig config = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bound listen port (the ephemeral one when config.port was 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Run the event loop on the calling thread until stop().
  void run();

  /// Run the loop on an internal thread; stop() joins it.
  void start();

  /// Signal the loop to finish its current turn and exit, then join the
  /// internal thread if start() was used. Idempotent; never call from the
  /// loop thread itself.
  void stop();

  /// Enqueue one block for distribution to every session (thread-safe).
  void publish(Bytes block);

  /// This daemon's counters (thread-safe).
  DaemonStats stats() const;

  /// Connections currently streaming (handshake completed), for
  /// --wait-subs style publish gating. Thread-safe.
  std::size_t streaming_count() const noexcept {
    return streaming_count_.load(std::memory_order_relaxed);
  }

  /// The manager under the loop. SessionManager is itself thread-safe
  /// (counters/state may be inspected while the loop runs); what is NOT
  /// reachable through it is any daemon connection state.
  session::SessionManager& manager() noexcept { return manager_; }

 private:
  /// One client connection. Doubles as the session's broker-side
  /// transport: send() frames a kData message into the outbuf, which the
  /// loop flushes as the socket accepts it.
  struct Connection final : public transport::Transport {
    explicit Connection(Daemon& daemon, int fd);

    void send(ByteView message) override;          // loop thread only
    std::optional<Bytes> receive() override { return std::nullopt; }
    const Clock& clock() const override;

    /// The one writer of outbound messages: appends the length prefix,
    /// the kind byte and `payload` to the outbuf (the wire form of
    /// wrap(kind, payload)), without flushing.
    void append(MsgKind kind, ByteView payload);

    /// Unflushed outbuf bytes.
    std::size_t pending() const noexcept { return out_.size() - out_pos_; }

    Daemon* daemon;
    ScopedFd fd;
    bool streaming = false;     ///< handshake completed
    bool closing = false;       ///< flush outbuf, then close
    bool half_closed = false;   ///< session parked: FIN sent, reads open
    bool want_write = false;    ///< current loop interest
    Seconds opened_at = 0;
    session::SessionId session_id = 0;
    std::uint64_t token = 0;    ///< issued at welcome or resume
    Bytes in_;                  ///< unparsed inbound bytes
    Bytes out_;                 ///< unflushed outbound bytes
    std::size_t out_pos_ = 0;   ///< flushed prefix of out_
  };

  void on_listener_ready();
  void on_wakeup();
  void on_connection_ready(int fd, Ready ready);
  bool read_input(Connection& conn);    ///< false = connection died
  bool parse_frames(Connection& conn);  ///< false = connection closed
  bool handle_message(Connection& conn, const Msg& msg);
  bool handle_hello(Connection& conn, ByteView payload);
  void enqueue(Connection& conn, MsgKind kind, ByteView payload);
  void flush(Connection& conn);
  void update_write_interest(Connection& conn);
  void close_connection(int fd);
  void reject_and_close(Connection& conn, HandshakeStatus status,
                        const std::string& reason);
  void drain_publish_queue();
  void pump_sessions();
  void sweep(Seconds now);
  std::string unique_name(const std::string& offered);

  DaemonConfig config_;
  MonotonicClock clock_;
  session::SessionManager manager_;
  EventLoop loop_;
  ScopedFd listener_;
  ScopedFd wake_rd_, wake_wr_;
  std::uint16_t port_ = 0;

  // Loop-thread state.
  std::map<int, std::unique_ptr<Connection>> connections_;
  std::map<session::SessionId, NegotiatedParams> negotiated_;
  Seconds last_sweep_ = 0;
  std::uint64_t name_counter_ = 0;

  // Cross-thread state.
  std::mutex publish_mutex_;
  std::deque<Bytes> publish_queue_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> streaming_count_{0};
  std::thread thread_;

  // stats() mirror (each written on the loop thread, read anywhere).
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> connections_open_{0};
  std::atomic<std::uint64_t> handshakes_{0};
  std::atomic<std::uint64_t> rejects_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> loop_wakeups_{0};
  std::atomic<std::uint64_t> blocks_published_{0};
};

}  // namespace acex::net
