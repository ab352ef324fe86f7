#include "session/client.hpp"

namespace acex::session {

SessionClient::SessionClient(const Clock& clock, ClientConfig config,
                             std::uint64_t seed)
    : clock_(&clock),
      config_(std::move(config)),
      reconnect_(config_.reconnect, seed),
      heartbeat_interval_(config_.heartbeat_interval) {}

void SessionClient::on_connected(std::uint64_t session_id,
                                 std::uint64_t token,
                                 transport::Transport& rx,
                                 Seconds heartbeat_interval) {
  session_id_ = session_id;
  token_ = token;
  if (heartbeat_interval > 0) heartbeat_interval_ = heartbeat_interval;
  receiver_ =
      std::make_unique<adaptive::AdaptiveReceiver>(rx, config_.receiver);
  heartbeat_due_.extend(*clock_, heartbeat_interval_);
  reconnect_.reset();
  connected_ = true;
}

void SessionClient::on_dropped() {
  connected_ = false;
  heartbeat_due_.disarm();
}

void SessionClient::on_resumed(transport::Transport& rx,
                               std::uint64_t token) {
  token_ = token;
  if (receiver_) receiver_->rebind(rx);
  heartbeat_due_.extend(*clock_, heartbeat_interval_);
  reconnect_.reset();
  connected_ = true;
}

std::optional<Seconds> SessionClient::next_retry_delay() {
  return reconnect_.next_delay();
}

std::uint64_t SessionClient::resume_from() const {
  return receiver_ ? receiver_->next_expected() : 0;
}

bool SessionClient::heartbeat_due() const {
  return connected_ && heartbeat_due_.expired(*clock_);
}

void SessionClient::heartbeat_sent() {
  heartbeat_due_.extend(*clock_, heartbeat_interval_);
}

}  // namespace acex::session
