// Self-healing client: capped-exponential backoff and ReliableClient.
//
// A bare Connector client dies with its first RST: a DPI box that resets
// the flow mid-frame (the ScrambleSuit threat model) kills the session and
// loses every queued message. This layer adds the two things a client
// needs to ride through that:
//
//   * Backoff — capped exponential delay with full jitter (AWS style:
//     delay = uniform(0, min(cap, initial * 2^attempt))), seeded so a
//     test run's retry schedule is replayable. Connector::dial uses it
//     between refused attempts; ReliableClient uses it between re-dials.
//
//   * ReliableClient — wraps the dial/Connection lifecycle behind an
//     at-least-once message contract:
//       - send() assigns a monotonically increasing sequence number,
//         clones the message into a bounded resend queue, and transmits it
//         if a connection is up;
//       - any transport-level drop (Truncated close, reset, mid-frame FIN
//         — anything except a Malformed framing failure, which means the
//         peer speaks a different protocol and retrying cannot help) is
//         absorbed: the client re-dials with backoff and re-sends every
//         unacknowledged message in order on the new connection;
//       - the application acknowledges delivery with ack(seq) (cumulative,
//         like TCP) once its own protocol confirms processing — an echoed
//         reply, an application-level ack frame, whatever the protocol
//         carries. Unacked messages survive any number of reconnects.
//
// The contract is at-least-once: a message processed by the server just
// before the connection died is re-sent on the next one, so receivers
// dedupe by the sequence number their protocol carries. The resend queue
// is bounded (Config::max_unacked); when full, send() fails and the
// backpressure callback fires — the caller throttles, exactly like
// Connection::writable() one layer down.
//
// Threading: like Connection, a ReliableClient lives on its event loop's
// thread; every method must be called from it (or before the loop runs).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"

namespace protoobf::net {

/// Capped exponential backoff with full jitter: the ceiling doubles per
/// attempt up to `cap`, and each delay draws uniformly in [0, ceiling] so
/// a fleet of clients dropped by the same reset does not re-dial in
/// lockstep. next() advances the attempt counter; reset() re-arms after
/// the link proves healthy again.
struct BackoffPolicy {
  std::chrono::milliseconds initial{20};
  std::chrono::milliseconds cap{2000};
};

class Backoff {
 public:
  explicit Backoff(BackoffPolicy policy = {}, std::uint64_t seed = 1)
      : policy_(policy), rng_(seed) {}

  /// Delay before the next attempt (advances the attempt counter).
  std::chrono::milliseconds next();

  /// Back to the initial delay (call after a healthy round trip).
  void reset() { attempt_ = 0; }

  std::uint32_t attempts() const { return attempt_; }
  const BackoffPolicy& policy() const { return policy_; }

 private:
  BackoffPolicy policy_;
  Rng rng_;
  std::uint32_t attempt_ = 0;
};

class ReliableClient {
 public:
  struct Config {
    Endpoint endpoint;
    FramerFactory framer_factory;  // fresh decode state per attempt
    Connection::Config connection;  // ops seam and capture ride along
    BackoffPolicy backoff;
    /// Lifetime deadline for regaining a connection: once a drop or dial
    /// failure happens later than this after start(), the client gives
    /// up (on_gave_up fires). 0 = retry forever.
    std::chrono::milliseconds lifetime{0};
    /// Resend-queue bound in messages. A full queue fails send() and
    /// fires on_backpressure; ack() drains it.
    std::size_t max_unacked = 1024;
    /// Seeds the backoff jitter (replayable retry schedules).
    std::uint64_t seed = 1;
  };

  struct Stats {
    std::uint64_t sent = 0;        // distinct messages accepted by send()
    std::uint64_t resent = 0;      // retransmissions after reconnects
    std::uint64_t acked = 0;       // messages released by ack()
    std::uint64_t dials = 0;       // dial attempts (incl. the first)
    std::uint64_t reconnects = 0;  // connections established after a drop
    std::uint64_t drops = 0;       // transport failures absorbed
    std::uint64_t overflows = 0;   // sends rejected on a full queue
  };

  /// Parsed messages from the current connection, in stream order.
  /// Per-message parse errors pass through; the stream continues.
  using MessageHandler = std::function<void(Expected<InstPtr>)>;
  /// Connection state edges (true = up, false = lost). Reconnection is
  /// automatic; this is for logging/metrics.
  using StateHandler = std::function<void(bool connected)>;
  /// The resend queue hit max_unacked: stop sending until acks drain it.
  using BackpressureHandler = std::function<void(std::size_t unacked)>;
  /// Retries are over (lifetime deadline, or a Malformed close). The
  /// client is stopped; unacked() messages were never confirmed.
  using GaveUpHandler = std::function<void(const Error&)>;

  ReliableClient(EventLoop& loop,
                 std::shared_ptr<const ObfuscatedProtocol> protocol,
                 Config config);
  ~ReliableClient();

  ReliableClient(const ReliableClient&) = delete;
  ReliableClient& operator=(const ReliableClient&) = delete;

  void on_message(MessageHandler handler) { message_cb_ = std::move(handler); }
  void on_state(StateHandler handler) { state_cb_ = std::move(handler); }
  void on_backpressure(BackpressureHandler handler) {
    backpressure_cb_ = std::move(handler);
  }
  void on_gave_up(GaveUpHandler handler) { gave_up_cb_ = std::move(handler); }

  /// Starts the first dial (asynchronous; messages may be send()-queued
  /// before it completes).
  void start();

  /// Queues `message` under the next sequence number and transmits it if
  /// the connection is up. The message is serialized with msg_seed == its
  /// sequence number, so a retransmission is byte-identical (determinism
  /// is the framework's core property). Fails when the resend queue is
  /// full (backpressure) or the client is stopped.
  Expected<std::uint64_t> send(const Inst& message);

  /// Cumulative acknowledgement: releases every queued message with
  /// seq <= `seq`. Call when the application protocol confirms processing.
  void ack(std::uint64_t seq);

  /// Stops retrying and closes the current connection gracefully. The
  /// client cannot be restarted.
  void stop();

  bool connected() const { return conn_ != nullptr && conn_->open_for_traffic(); }
  /// The live connection, or null between attempts (loop thread only —
  /// the pointer dies with the next drop).
  Connection* connection() { return conn_.get(); }
  bool stopped() const { return state_ == State::Stopped; }
  std::size_t unacked() const { return queue_.size(); }
  const Stats& stats() const { return stats_; }
  Backoff& backoff() { return backoff_; }

 private:
  enum class State { Idle, Dialing, Connected, Waiting, Stopped };

  struct Pending {
    std::uint64_t seq = 0;
    InstPtr message;  // heap clone, independent of any connection pool
  };

  void dial();
  void handle_dial_ready();
  void attach(Fd fd);
  void handle_drop(const Error* err);
  void schedule_retry(const Error& reason);
  void give_up(Error err);
  void resend_unacked();
  void abandon_dial();
  SocketOps& ops() const {
    return config_.connection.ops != nullptr ? *config_.connection.ops
                                             : SocketOps::real();
  }

  EventLoop& loop_;
  std::shared_ptr<const ObfuscatedProtocol> protocol_;
  Config config_;
  Backoff backoff_;
  State state_ = State::Idle;
  bool ever_connected_ = false;

  std::unique_ptr<Connection> conn_;
  std::vector<std::unique_ptr<Connection>> graveyard_;  // deferred deletes
  // Posted graveyard sweeps and dial watches may outlive this object in a
  // still-running loop; they hold a weak copy of this token and no-op once
  // it expires.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
  Fd dial_fd_;  // in-flight nonblocking connect (watched)
  EventLoop::TimerId dial_timer_ = 0;   // per-attempt deadline
  EventLoop::TimerId retry_timer_ = 0;  // backoff delay
  std::chrono::steady_clock::time_point deadline_{};  // lifetime (if set)

  std::deque<Pending> queue_;  // unacked, seq ascending
  std::uint64_t next_seq_ = 1;
  bool above_queue_watermark_ = false;

  MessageHandler message_cb_;
  StateHandler state_cb_;
  BackpressureHandler backpressure_cb_;
  GaveUpHandler gave_up_cb_;
  Stats stats_;
};

}  // namespace protoobf::net
