#include "net/reconnect.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "ast/ast.hpp"
#include "obs/families.hpp"
#include "obs/trace.hpp"

namespace protoobf::net {

namespace {
// Per-attempt handshake deadline: a dial that neither completes nor fails
// within it is abandoned and counts as a failed attempt.
constexpr std::chrono::milliseconds kDialTimeout{2000};
}  // namespace

std::chrono::milliseconds Backoff::next() {
  // Double the ceiling once per earlier attempt, stopping at the cap — or
  // at once when it is 0, which doubling never moves.
  const auto cap = static_cast<std::uint64_t>(policy_.cap.count());
  auto ceiling =
      std::min(static_cast<std::uint64_t>(policy_.initial.count()), cap);
  for (std::uint32_t i = 0; i < attempt_ && ceiling != 0 && ceiling < cap;
       ++i) {
    ceiling = std::min(ceiling * 2, cap);
  }
  ++attempt_;
  return std::chrono::milliseconds(ceiling > 0 ? rng_.below(ceiling + 1) : 0);
}

ReliableClient::ReliableClient(
    EventLoop& loop, std::shared_ptr<const ObfuscatedProtocol> protocol,
    Config config)
    : loop_(loop),
      protocol_(std::move(protocol)),
      config_(std::move(config)),
      backoff_(config_.backoff, config_.seed) {}

ReliableClient::~ReliableClient() {
  // Quiet teardown: no handlers fire. The alive_ token expires here, which
  // defuses any posted sweep or dial watch still queued on the loop.
  if (dial_timer_ != 0) loop_.cancel_timer(dial_timer_);
  if (retry_timer_ != 0) loop_.cancel_timer(retry_timer_);
  if (dial_fd_.valid()) loop_.unwatch(dial_fd_.get());
  conn_.reset();
  graveyard_.clear();
}

void ReliableClient::start() {
  if (state_ != State::Idle) return;
  if (config_.lifetime > std::chrono::milliseconds::zero()) {
    deadline_ = std::chrono::steady_clock::now() + config_.lifetime;
  }
  dial();
}

Expected<std::uint64_t> ReliableClient::send(const Inst& message) {
  if (state_ == State::Stopped) {
    return Unexpected("send on a stopped client");
  }
  if (queue_.size() >= config_.max_unacked) {
    ++stats_.overflows;
    obs::ReconnectMetrics::get().overflows.add(1);
    above_queue_watermark_ = true;
    if (backpressure_cb_) backpressure_cb_(queue_.size());
    return Unexpected("resend queue full (" +
                      std::to_string(config_.max_unacked) +
                      " unacked messages)");
  }
  const std::uint64_t seq = next_seq_++;
  // The clone (not the caller's tree) lives in the queue: the caller may
  // hand us a pooled node whose session dies with its connection.
  queue_.push_back(Pending{seq, ast::clone(message)});
  ++stats_.sent;
  if (connected()) {
    if (Status s = conn_->send(message, /*msg_seed=*/seq); !s) {
      if (conn_ != nullptr) {
        // The connection survived, so this was a serialization failure —
        // permanent for this message, no point keeping it queued. (A
        // transport failure would have run the close path, which nulls
        // conn_ and leaves the message queued for the next connection.)
        queue_.pop_back();
        --stats_.sent;
        next_seq_ = seq;
        return Unexpected(s.error());
      }
    }
  }
  // Counted only once the message is actually queued for delivery — the
  // serialization-failure branch above unwinds the local stats instead.
  obs::ReconnectMetrics::get().sent.add(1);
  obs::ReconnectMetrics::get().unacked.set(
      static_cast<std::int64_t>(queue_.size()));
  return seq;
}

void ReliableClient::ack(std::uint64_t seq) {
  while (!queue_.empty() && queue_.front().seq <= seq) {
    queue_.pop_front();
    ++stats_.acked;
    obs::ReconnectMetrics::get().acked.add(1);
  }
  obs::ReconnectMetrics::get().unacked.set(
      static_cast<std::int64_t>(queue_.size()));
  if (above_queue_watermark_ && queue_.size() < config_.max_unacked / 2) {
    above_queue_watermark_ = false;
  }
}

void ReliableClient::stop() {
  if (state_ == State::Stopped) return;
  state_ = State::Stopped;
  if (dial_timer_ != 0) {
    loop_.cancel_timer(dial_timer_);
    dial_timer_ = 0;
  }
  if (retry_timer_ != 0) {
    loop_.cancel_timer(retry_timer_);
    retry_timer_ = 0;
  }
  abandon_dial();
  if (conn_ != nullptr) conn_->close();  // flushes, then handle_drop parks it
}

void ReliableClient::dial() {
  state_ = State::Dialing;
  ++stats_.dials;
  obs::ReconnectMetrics::get().dials.add(1);
  obs::Tracer::global().record(0, obs::TraceEvent::Dial, stats_.dials);

  // The injector's connect gate stands in for a refusing/blackholed server
  // (see net/fault.hpp) — a refused attempt backs off like a real one.
  if (const int gate = ops().connect_gate(); gate != 0) {
    schedule_retry(Error{"connect " + config_.endpoint.host + ":" +
                             std::to_string(config_.endpoint.port) + ": " +
                             std::strerror(gate),
                         Error::kNoOffset, ErrorKind::Truncated});
    return;
  }

  auto fd = connect_tcp(config_.endpoint);
  if (!fd) {
    schedule_retry(fd.error());
    return;
  }
  dial_fd_ = std::move(*fd);
  const int raw = dial_fd_.get();
  const Status watched = loop_.watch(
      raw, EPOLLOUT, [this, token = std::weak_ptr<int>(alive_)](std::uint32_t) {
        if (token.expired()) return;
        handle_dial_ready();
      });
  if (!watched) {
    dial_fd_.reset();
    schedule_retry(watched.error());
    return;
  }
  dial_timer_ = loop_.add_timer(kDialTimeout, [this] {
    dial_timer_ = 0;
    if (state_ != State::Dialing) return;
    abandon_dial();
    schedule_retry(Error{"connect " + config_.endpoint.host + ":" +
                             std::to_string(config_.endpoint.port) +
                             " timed out",
                         Error::kNoOffset, ErrorKind::Truncated});
  });
}

void ReliableClient::handle_dial_ready() {
  loop_.unwatch(dial_fd_.get());
  if (dial_timer_ != 0) {
    loop_.cancel_timer(dial_timer_);
    dial_timer_ = 0;
  }
  if (const int err = take_socket_error(dial_fd_.get()); err != 0) {
    dial_fd_.reset();
    schedule_retry(Error{"connect " + config_.endpoint.host + ":" +
                             std::to_string(config_.endpoint.port) + ": " +
                             std::strerror(err),
                         Error::kNoOffset, ErrorKind::Truncated});
    return;
  }
  attach(std::move(dial_fd_));
}

void ReliableClient::attach(Fd fd) {
  auto framer = config_.framer_factory();
  if (!framer) {
    // A factory that cannot build a framer is misconfiguration, not
    // weather — retrying would fail identically forever.
    give_up(framer.error());
    return;
  }
  conn_ = std::make_unique<Connection>(loop_, std::move(fd), protocol_,
                                       std::move(*framer), config_.connection);
  conn_->on_message([this](Connection&, Expected<InstPtr> message) {
    // Traffic is flowing again: the next drop restarts the backoff ladder
    // from the bottom instead of inheriting this outage's delay.
    backoff_.reset();
    if (message_cb_) message_cb_(std::move(message));
  });
  conn_->on_close(
      [this](Connection&, const Error* err) { handle_drop(err); });
  if (Status s = conn_->open(); !s) {
    conn_.reset();  // never registered; safe to destroy inline
    schedule_retry(s.error());
    return;
  }
  state_ = State::Connected;
  if (ever_connected_) {
    ++stats_.reconnects;
    obs::ReconnectMetrics::get().reconnects.add(1);
    obs::Tracer::global().record(conn_->trace_id(),
                                 obs::TraceEvent::Reconnect, queue_.size());
  }
  ever_connected_ = true;
  if (state_cb_) state_cb_(true);
  resend_unacked();
}

void ReliableClient::handle_drop(const Error* err) {
  // Runs inside the dying connection's close path: park the object in the
  // graveyard and destroy it only after the stack unwinds (Server uses the
  // same discipline for the same reason).
  graveyard_.push_back(std::move(conn_));
  if (graveyard_.size() == 1) {
    loop_.post([this, token = std::weak_ptr<int>(alive_)] {
      if (token.expired()) return;
      graveyard_.clear();
    });
  }
  if (state_cb_) state_cb_(false);
  if (state_ == State::Stopped) return;  // stop() asked for this close

  if (err != nullptr && err->kind == ErrorKind::Malformed) {
    // A framing/parse failure means the peer speaks a different protocol
    // (or a different spec seed). Reconnecting reproduces it bit for bit.
    give_up(*err);
    return;
  }
  ++stats_.drops;
  obs::ReconnectMetrics::get().drops.add(1);
  schedule_retry(err != nullptr
                     ? *err
                     : Error{"peer closed", Error::kNoOffset,
                             ErrorKind::Truncated});
}

void ReliableClient::schedule_retry(const Error& reason) {
  if (state_ == State::Stopped) return;
  if (deadline_ != std::chrono::steady_clock::time_point{} &&
      std::chrono::steady_clock::now() >= deadline_) {
    give_up(Error{"gave up after lifetime deadline: " + reason.message,
                  reason.offset, reason.kind});
    return;
  }
  state_ = State::Waiting;
  const auto delay = backoff_.next();
  retry_timer_ = loop_.add_timer(delay, [this] {
    retry_timer_ = 0;
    if (state_ != State::Waiting) return;
    dial();
  });
}

void ReliableClient::give_up(Error err) {
  state_ = State::Stopped;
  if (dial_timer_ != 0) {
    loop_.cancel_timer(dial_timer_);
    dial_timer_ = 0;
  }
  if (retry_timer_ != 0) {
    loop_.cancel_timer(retry_timer_);
    retry_timer_ = 0;
  }
  abandon_dial();
  if (gave_up_cb_) gave_up_cb_(err);
}

void ReliableClient::resend_unacked() {
  // In-order retransmission of everything unconfirmed. msg_seed == seq
  // makes each retransmission byte-identical to the original send — the
  // determinism property the whole framework is built on.
  for (const Pending& pending : queue_) {
    if (conn_ == nullptr || !conn_->open_for_traffic()) return;  // dropped
    ++stats_.resent;
    obs::ReconnectMetrics::get().resent.add(1);
    (void)conn_->send(*pending.message, pending.seq);
  }
}

void ReliableClient::abandon_dial() {
  if (!dial_fd_.valid()) return;
  loop_.unwatch(dial_fd_.get());
  dial_fd_.reset();
}

}  // namespace protoobf::net
