#include "net/daemon.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace acex::net {

namespace {

struct NetMetrics {
  obs::Counter& connections;
  obs::Counter& handshakes;
  obs::Counter& rejects;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Counter& blocks;
  obs::Gauge& open;
  obs::Gauge& loop_wakeups;
};

NetMetrics& net_metrics() {
  auto& r = obs::MetricsRegistry::global();
  static NetMetrics m{
      r.counter("acex.net.connections"),
      r.counter("acex.net.handshakes"),
      r.counter("acex.net.rejects"),
      r.counter("acex.net.bytes_in"),
      r.counter("acex.net.bytes_out"),
      r.counter("acex.net.blocks_published"),
      r.gauge("acex.net.connections_open"),
      r.gauge("acex.net.loop_wakeups"),
  };
  return m;
}

constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

// --- Connection -------------------------------------------------------

Daemon::Connection::Connection(Daemon& owner, int raw_fd)
    : daemon(&owner), fd(raw_fd) {}

void Daemon::Connection::send(ByteView message) {
  if (!fd.valid() || closing) {
    throw IoError("daemon connection closed");  // broker marks disconnect
  }
  append(MsgKind::kData, message);
}

void Daemon::Connection::append(MsgKind kind, ByteView payload) {
  std::uint8_t header[kLengthPrefixBytes];
  put_length_prefix(header, static_cast<std::uint32_t>(1 + payload.size()));
  out_.insert(out_.end(), header, header + sizeof header);
  out_.push_back(static_cast<std::uint8_t>(kind));
  out_.insert(out_.end(), payload.begin(), payload.end());
}

const Clock& Daemon::Connection::clock() const { return daemon->clock_; }

// --- construction -----------------------------------------------------

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      manager_(clock_, config_.manager),
      loop_({config_.backend}) {
  if (config_.session.subscriber.policy == broker::SlowConsumerPolicy::kBlock) {
    // A blocking egress publish would wedge the single loop thread on its
    // slowest client; the daemon refuses the foot-gun outright.
    throw ConfigError(
        "daemon: egress policy kBlock would stall the event loop; use "
        "kDropOldest (NACK-recoverable)");
  }
  listener_.reset(listen_loopback(config_.port, /*backlog=*/128, &port_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) throw_errno("pipe");
  wake_rd_.reset(pipe_fds[0]);
  wake_wr_.reset(pipe_fds[1]);
  set_nonblocking(wake_rd_.get());
  set_nonblocking(wake_wr_.get());

  loop_.add(listener_.get(), /*read=*/true, /*write=*/false,
            [this](int, Ready) { on_listener_ready(); });
  loop_.add(wake_rd_.get(), /*read=*/true, /*write=*/false,
            [this](int, Ready) { on_wakeup(); });
}

Daemon::~Daemon() {
  stop();
  // Deregister before the ScopedFds close; connections_ destruction closes
  // every client socket.
  loop_.remove(listener_.get());
  loop_.remove(wake_rd_.get());
  for (const auto& [fd, conn] : connections_) loop_.remove(fd);
}

// --- loop driving -----------------------------------------------------

void Daemon::run() {
  if (running_.exchange(true)) {
    throw ConfigError("daemon: run() is already executing");
  }
  const int timeout_ms =
      config_.tick_interval > 0
          ? static_cast<int>(config_.tick_interval * 1000)
          : 100;
  last_sweep_ = clock_.now();
  while (!stop_.load(std::memory_order_acquire)) {
    loop_.poll_once(timeout_ms);
    drain_publish_queue();
    pump_sessions();
    sweep(clock_.now());
    loop_wakeups_.store(loop_.wakeups(), std::memory_order_relaxed);
    net_metrics().loop_wakeups.set(static_cast<std::int64_t>(loop_.wakeups()));
  }
  running_.store(false);
}

void Daemon::start() {
  if (thread_.joinable() || running_.load()) {
    throw ConfigError("daemon: already started");
  }
  stop_.store(false);
  thread_ = std::thread([this] { run(); });
}

void Daemon::stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_wr_.valid()) {
    const std::uint8_t one = 1;
    (void)::write(wake_wr_.get(), &one, 1);
  }
  if (thread_.joinable()) thread_.join();
}

void Daemon::publish(Bytes block) {
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    publish_queue_.push_back(std::move(block));
  }
  if (wake_wr_.valid()) {
    const std::uint8_t one = 1;
    (void)::write(wake_wr_.get(), &one, 1);
  }
}

DaemonStats Daemon::stats() const {
  DaemonStats s;
  s.connections_total = connections_total_.load(std::memory_order_relaxed);
  s.connections_open = connections_open_.load(std::memory_order_relaxed);
  s.handshakes = handshakes_.load(std::memory_order_relaxed);
  s.rejects = rejects_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.loop_wakeups = loop_wakeups_.load(std::memory_order_relaxed);
  s.blocks_published = blocks_published_.load(std::memory_order_relaxed);
  return s;
}

// --- accept / wakeup --------------------------------------------------

void Daemon::on_listener_ready() {
  for (;;) {
    const int client = accept_client(listener_.get());
    if (client < 0) return;
    set_nonblocking(client);
    auto conn = std::make_unique<Connection>(*this, client);
    conn->opened_at = clock_.now();
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    net_metrics().connections.add();
    net_metrics().open.add(1);
    Connection& ref = *conn;
    connections_.emplace(client, std::move(conn));
    loop_.add(client, /*read=*/true, /*write=*/false,
              [this](int fd, Ready ready) { on_connection_ready(fd, ready); });
    if (connections_.size() > config_.max_connections) {
      reject_and_close(ref, HandshakeStatus::kOverloaded,
                       "connection limit reached");
    }
  }
}

void Daemon::on_wakeup() {
  std::uint8_t buf[256];
  while (read_some(wake_rd_.get(), buf, sizeof buf) > 0) {
  }
}

// --- per-connection I/O -----------------------------------------------

void Daemon::on_connection_ready(int fd, Ready ready) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (ready.error) {
    close_connection(fd);
    return;
  }
  if (ready.readable) {
    if (!read_input(conn)) {
      close_connection(fd);
      return;
    }
    if (!parse_frames(conn)) return;  // closed itself
  }
  if (ready.writable) flush(conn);
  if (conn.closing && conn.pending() == 0) {
    close_connection(fd);
    return;
  }
  update_write_interest(conn);
}

bool Daemon::read_input(Connection& conn) {
  std::uint8_t buf[kReadChunk];
  for (;;) {
    std::ptrdiff_t n;
    try {
      n = read_some(conn.fd.get(), buf, sizeof buf);
    } catch (const IoError&) {
      return false;  // hard socket error (ECONNRESET & friends)
    }
    if (n < 0) return true;   // drained
    if (n == 0) return false; // EOF
    conn.in_.insert(conn.in_.end(), buf, buf + n);
    bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
    net_metrics().bytes_in.add(static_cast<std::uint64_t>(n));
  }
}

bool Daemon::parse_frames(Connection& conn) {
  const int fd = conn.fd.get();
  std::size_t pos = 0;
  while (conn.in_.size() - pos >= kLengthPrefixBytes) {
    const std::uint32_t len = get_length_prefix(conn.in_.data() + pos);
    if (len > kMaxMessageBytes) {
      close_connection(fd);
      return false;
    }
    if (conn.in_.size() - pos < kLengthPrefixBytes + len) break;
    const ByteView frame(conn.in_.data() + pos + kLengthPrefixBytes, len);
    pos += kLengthPrefixBytes + len;
    bool alive = true;
    try {
      alive = handle_message(conn, unwrap(frame));
    } catch (const HandshakeError& e) {
      if (conn.streaming) {
        close_connection(fd);
      } else {
        reject_and_close(conn, e.status(), e.what());
      }
      alive = false;
    } catch (const Error&) {
      close_connection(fd);  // any other typed failure
      alive = false;
    }
    if (!alive) return false;
    if (conn.closing) break;  // rejected: ignore any pipelined input
  }
  conn.in_.erase(conn.in_.begin(),
                 conn.in_.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

bool Daemon::handle_message(Connection& conn, const Msg& msg) {
  if (msg.kind == MsgKind::kStatRequest) {
    // Allowed in both states: acexctl stat probes without subscribing.
    enqueue(conn, MsgKind::kStatReply,
            to_bytes(obs::to_json_lines(
                obs::MetricsRegistry::global().snapshot())));
    return true;
  }
  if (!conn.streaming) {
    if (msg.kind != MsgKind::kHello) {
      reject_and_close(conn, HandshakeStatus::kMalformed,
                       "expected hello, got " +
                           std::string(msg_kind_name(msg.kind)));
      return false;
    }
    return handle_hello(conn, msg.payload);
  }
  switch (msg.kind) {
    case MsgKind::kHeartbeat:
      if (!msg.payload.empty()) {
        close_connection(conn.fd.get());  // a heartbeat carries no bytes
        return false;
      }
      // A parked or expired session fails here; sweep() ends its
      // connection.
      manager_.heartbeat(conn.session_id, conn.token);
      return true;
    case MsgKind::kNack: {
      const auto sequences = nack_decode(msg.payload);
      manager_.retransmit(conn.session_id, sequences);
      if (conn.pending() < config_.outbuf_high_watermark) {
        manager_.pump(conn.session_id);
      }
      return true;
    }
    default:
      close_connection(conn.fd.get());  // hello twice / server-only kind
      return false;
  }
}

bool Daemon::handle_hello(Connection& conn, ByteView payload) {
  const CompressionOffer offer = offer_decode(payload);  // throws typed

  if (offer.is_resume()) {
    const auto it = negotiated_.find(offer.resume_session);
    if (it == negotiated_.end()) {
      reject_and_close(conn, HandshakeStatus::kResumeRejected,
                       "unknown session");
      return false;
    }
    const auto result = manager_.resume(offer.resume_session,
                                        offer.resume_token,
                                        offer.resume_from, conn);
    switch (result.status) {
      case session::ResumeResult::Status::kResumed: {
        // The session lives on this connection now. The one it left, if
        // still open, closes without parking it.
        const auto left = std::find_if(
            connections_.begin(), connections_.end(), [&](const auto& entry) {
              return entry.second->streaming &&
                     entry.second->session_id == offer.resume_session;
            });
        if (left != connections_.end()) {
          left->second->streaming = false;
          streaming_count_.fetch_sub(1, std::memory_order_relaxed);
          close_connection(left->first);
        }
        conn.streaming = true;
        conn.session_id = offer.resume_session;
        conn.token = offer.resume_token;
        streaming_count_.fetch_add(1, std::memory_order_relaxed);
        handshakes_.fetch_add(1, std::memory_order_relaxed);
        net_metrics().handshakes.add();
        Welcome welcome;
        welcome.session_id = offer.resume_session;
        welcome.token = offer.resume_token;
        welcome.heartbeat_interval_ms = static_cast<std::uint64_t>(
            config_.session.heartbeat_interval * 1000);
        welcome.resumed = true;
        welcome.replayed = result.replayed;
        welcome.params = it->second;  // the ORIGINAL negotiated set
        enqueue(conn, MsgKind::kWelcome, welcome_encode(welcome));
        return true;
      }
      case session::ResumeResult::Status::kRestart:
        negotiated_.erase(it);
        reject_and_close(conn, HandshakeStatus::kRestartRequired,
                         result.reason);
        return false;
      case session::ResumeResult::Status::kRejected:
        reject_and_close(conn, HandshakeStatus::kResumeRejected,
                         result.reason);
        return false;
    }
    return false;
  }

  const NegotiatedParams params = negotiate(offer, config_.policy);  // throws
  session::SessionConfig scfg = config_.session;
  scfg.subscriber.name = unique_name(offer.name);
  apply(params, scfg.subscriber.adaptive);
  const auto result = manager_.connect(conn, scfg);
  if (!result.accepted) {
    reject_and_close(conn, HandshakeStatus::kOverloaded, result.reason);
    return false;
  }
  conn.streaming = true;
  conn.session_id = result.session_id;
  conn.token = result.token;
  negotiated_[result.session_id] = params;
  streaming_count_.fetch_add(1, std::memory_order_relaxed);
  handshakes_.fetch_add(1, std::memory_order_relaxed);
  net_metrics().handshakes.add();

  Welcome welcome;
  welcome.session_id = result.session_id;
  welcome.token = result.token;
  welcome.heartbeat_interval_ms =
      static_cast<std::uint64_t>(result.heartbeat_interval * 1000);
  welcome.params = params;
  enqueue(conn, MsgKind::kWelcome, welcome_encode(welcome));
  return true;
}

// --- outbound ---------------------------------------------------------

void Daemon::enqueue(Connection& conn, MsgKind kind, ByteView payload) {
  conn.append(kind, payload);
  flush(conn);
}

void Daemon::flush(Connection& conn) {
  while (conn.out_pos_ < conn.out_.size()) {
    std::ptrdiff_t n;
    try {
      n = write_some(conn.fd.get(), conn.out_.data() + conn.out_pos_,
                     conn.out_.size() - conn.out_pos_);
    } catch (const IoError&) {
      // Hard error (EPIPE): drop what we can't deliver; the close path
      // parks the session so the payload stays NACK/resume-recoverable.
      conn.out_.clear();
      conn.out_pos_ = 0;
      conn.closing = true;
      return;
    }
    if (n <= 0) break;  // would block
    conn.out_pos_ += static_cast<std::size_t>(n);
    bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
    net_metrics().bytes_out.add(static_cast<std::uint64_t>(n));
  }
  if (conn.out_pos_ == conn.out_.size()) {
    conn.out_.clear();
    conn.out_pos_ = 0;
  } else if (conn.out_pos_ > conn.out_.size() / 2) {
    conn.out_.erase(conn.out_.begin(),
                    conn.out_.begin() +
                        static_cast<std::ptrdiff_t>(conn.out_pos_));
    conn.out_pos_ = 0;
  }
}

void Daemon::update_write_interest(Connection& conn) {
  const bool want = conn.pending() > 0;
  if (want != conn.want_write) {
    conn.want_write = want;
    loop_.modify(conn.fd.get(), /*read=*/!conn.closing, want);
  }
}

void Daemon::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  loop_.remove(fd);
  if (conn.streaming) {
    // A closed connection is the bye, orderly or not: park its session so
    // a reconnect can resume it.
    manager_.disconnect(conn.session_id);
    streaming_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  net_metrics().open.add(-1);
  connections_.erase(it);  // ScopedFd closes the socket
}

void Daemon::reject_and_close(Connection& conn, HandshakeStatus status,
                              const std::string& reason) {
  rejects_.fetch_add(1, std::memory_order_relaxed);
  net_metrics().rejects.add();
  conn.closing = true;  // before enqueue: no pump may interleave data
  Reject reject;
  reject.status = status;
  reject.reason = reason;
  enqueue(conn, MsgKind::kReject, reject_encode(reject));
  if (conn.pending() == 0) {
    close_connection(conn.fd.get());
  } else {
    update_write_interest(conn);
  }
}

// --- distribution -----------------------------------------------------

void Daemon::drain_publish_queue() {
  std::deque<Bytes> batch;
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    batch.swap(publish_queue_);
  }
  for (const Bytes& block : batch) {
    manager_.publish(block);
    blocks_published_.fetch_add(1, std::memory_order_relaxed);
    net_metrics().blocks.add();
    // A burst published whole would overflow the egress of every client
    // slower than the burst: move each block toward the sockets before
    // the next one lands. A batch of one is pumped by run() as before.
    if (batch.size() > 1) pump_sessions();
  }
}

void Daemon::pump_sessions() {
  // Collect first: pumping calls Connection::send, and an IoError there
  // marks the broker side disconnected without touching connections_.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) {
    if (conn->streaming && !conn->closing &&
        conn->pending() < config_.outbuf_high_watermark) {
      fds.push_back(fd);
    }
  }
  for (const int fd : fds) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    manager_.pump(conn.session_id);
    flush(conn);
    if (conn.closing && conn.pending() == 0) {
      close_connection(fd);
      continue;
    }
    update_write_interest(conn);
  }
}

void Daemon::sweep(Seconds now) {
  if (now - last_sweep_ < config_.tick_interval) return;
  last_sweep_ = now;
  manager_.tick();

  std::vector<int> drop;
  for (const auto& [fd, conn] : connections_) {
    if (!conn->streaming && !conn->closing &&
        now - conn->opened_at > config_.handshake_timeout) {
      drop.push_back(fd);  // half-open: never sent a valid hello
    } else if (conn->streaming) {
      const session::SessionState state = manager_.state(conn->session_id);
      if (state == session::SessionState::kExpired) {
        drop.push_back(fd);
      } else if (state == session::SessionState::kParked &&
                 !conn->half_closed && conn->pending() == 0) {
        // Parked for silence: the session streams here no more. A FIN
        // behind the frames already written lets the client read them
        // all, then EOF, and resume; the connection closes when the
        // client closes its end. close() would instead reset the
        // connection, dropping frames still in the kernel, as soon as
        // the client's next heartbeat arrived.
        ::shutdown(fd, SHUT_WR);
        conn->half_closed = true;
      }
    }
  }
  for (const int fd : drop) close_connection(fd);

  for (auto it = negotiated_.begin(); it != negotiated_.end();) {
    if (manager_.state(it->first) == session::SessionState::kExpired) {
      it = negotiated_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string Daemon::unique_name(const std::string& offered) {
  ++name_counter_;
  if (offered.empty()) return "net-" + std::to_string(name_counter_);
  // Uniquify: per-subscriber obs series must stay distinguishable even
  // when every client offers the same label.
  return offered + "#" + std::to_string(name_counter_);
}

}  // namespace acex::net
