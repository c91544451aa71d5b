// One obfuscated TCP connection: socket ↔ Channel glue.
//
// A Connection binds a nonblocking socket to its own Session (per-connection
// workspaces), its own Framer (per-connection decode state), and a
// Channel on top of both. It adds what real sockets force on the streaming
// API and an in-memory byte stream never shows:
//
//   * a write queue — send() serializes and frames through the channel,
//     writes as much as the kernel takes, queues the rest, and re-arms
//     EPOLLOUT until the queue drains; writable()/on_writable expose a
//     high-watermark backpressure signal so producers stop queueing
//     unboundedly against a slow peer;
//   * read-chunk delivery — readiness-driven reads feed Channel::on_bytes
//     in 16 KiB slices, and every complete message is handed to
//     on_message (parse errors per message included: the stream continues
//     past them, exactly as the Channel contract says);
//   * close semantics — close() flushes the queue then closes (graceful),
//     abort() drops it and closes now; a peer that disappears mid-frame is
//     reported through the existing ErrorKind taxonomy: the close error is
//     Truncated (the stream ended before the message did), never Malformed;
//   * an idle timeout — a connection with no traffic for idle_timeout gets
//     closed with a Truncated "idle" error.
//
// Threading: a Connection lives on its event loop's thread. Every method —
// send() included — must be called from that thread (use EventLoop::post
// from elsewhere). Parse trees handed to on_message are pooled by this
// connection's session: drop them inside the handler.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/capture.hpp"
#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/socket.hpp"
#include "obs/families.hpp"
#include "session/session.hpp"
#include "stream/channel.hpp"

namespace protoobf::net {

/// Builds one framer per connection (per-connection decode state is a hard
/// requirement of the streaming layer). Used by Server for accepted
/// connections and ReliableClient for each dial attempt; factories for the
/// two stock framers are below. A custom factory can close over whatever
/// state it needs — it runs on the owning loop's thread.
using FramerFactory = std::function<Expected<std::unique_ptr<Framer>>()>;

FramerFactory length_prefix_framer_factory(
    LengthPrefixFramer::Config config = {});
FramerFactory obfuscated_framer_factory(
    std::shared_ptr<const ObfuscatedProtocol> framing,
    ObfuscatedFramer::Config config = {});

class Connection {
 public:
  struct Config {
    // send() keeps accepting above this, but writable() turns false and
    // on_writable fires when the queue drains back under half of it.
    std::size_t high_watermark = 256 * 1024;
    std::chrono::milliseconds idle_timeout{0};  // 0 = no idle timer
    // How long a graceful close() waits for the peer to drain the write
    // queue before giving up (a peer with a full receive window would
    // otherwise pin the fd and up to high_watermark bytes forever).
    // 0 = wait indefinitely.
    std::chrono::milliseconds drain_timeout{5000};
    int send_buffer = 0;  // SO_SNDBUF override; 0 = kernel default
    // Optional wire tap (net/capture.hpp): outbound frames and inbound
    // read() slices are recorded exactly as they hit the socket. Must
    // outlive the connection; null = no capture.
    TrafficCapture* capture = nullptr;
    // Syscall seam (net/fault.hpp): every recv/send goes through it, and
    // Connector consults its connect gate before dialing. Null = the real
    // syscalls; a FaultInjector here puts the connection on a replayable
    // hostile network. Must outlive the connection.
    SocketOps* ops = nullptr;
    // Registry bundle this connection's traffic lands in. Server wires the
    // owning shard's bundle; null = the process-wide "client" series
    // (outbound dials). Instruments live for the process lifetime.
    obs::NetMetrics* metrics = nullptr;
  };

  struct Stats {
    std::uint64_t messages_in = 0;
    std::uint64_t messages_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
  };

  /// `err` is null for a clean peer close or a locally requested close,
  /// non-null when the connection died: framing failure (Malformed), peer
  /// gone mid-frame or idle timeout (Truncated), socket errors.
  using MessageHandler = std::function<void(Connection&, Expected<InstPtr>)>;
  using CloseHandler = std::function<void(Connection&, const Error* err)>;
  using WritableHandler = std::function<void(Connection&)>;

  /// Takes ownership of `fd` (already connected, nonblocking) and `framer`;
  /// builds the per-connection Session over the shared compiled protocol.
  Connection(EventLoop& loop, Fd fd,
             std::shared_ptr<const ObfuscatedProtocol> protocol,
             std::unique_ptr<Framer> framer, Config config);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void on_message(MessageHandler handler) { message_cb_ = std::move(handler); }
  void on_close(CloseHandler handler) { close_cb_ = std::move(handler); }
  void on_writable(WritableHandler handler) {
    writable_cb_ = std::move(handler);
  }

  /// Installed by the owning container (Server); runs after the user close
  /// handler so the owner can reclaim the connection object.
  void set_owner_hook(std::function<void(Connection&)> hook) {
    owner_hook_ = std::move(hook);
  }

  /// Registers with the event loop and starts the idle timer. Call after
  /// the handlers are installed.
  Status open();

  /// Serializes + frames `message` through the channel and writes it,
  /// queueing whatever the kernel does not take immediately. Fails when
  /// serialization fails or the connection is closed/draining — never
  /// because of backpressure (check writable() to throttle).
  Status send(const Inst& message, std::uint64_t msg_seed);

  /// Flushes the write queue, then closes. With an empty queue this closes
  /// immediately; otherwise reading stops and the close completes when the
  /// queue drains. The close handler runs either way (err == nullptr).
  void close();

  /// Closes now, discarding any queued bytes (err == nullptr).
  void abort();

  bool open_for_traffic() const { return state_ == State::Open; }
  bool closed() const { return state_ == State::Closed; }

  /// Backpressure signal: false while the write queue sits at or above the
  /// high watermark. on_writable fires when it drains below half of it.
  bool writable() const { return queued() < config_.high_watermark; }
  std::size_t queued() const { return outbuf_.size() - outhead_; }

  int fd() const { return fd_.get(); }
  /// When the connection last moved bytes (the idle sweep's clock); the
  /// overload shedder uses it to pick least-recently-active victims.
  std::chrono::steady_clock::time_point last_activity() const {
    return last_activity_;
  }
  Session& session() { return session_; }
  Channel& channel() { return channel_; }
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  /// Tracer connection id — correlates this connection's ring events.
  std::uint64_t trace_id() const { return trace_id_; }

 private:
  enum class State { Open, Draining, Closed };

  void handle_events(std::uint32_t events);
  void handle_readable();
  void handle_writable();
  void pump_receive();
  Status flush_out();
  void want_write(bool enable);
  void touch() { last_activity_ = std::chrono::steady_clock::now(); }
  void check_idle();
  /// Transport failures close with ErrorKind::Truncated — the stream broke
  /// before the conversation ended. Malformed is reserved for framing and
  /// parse failures surfaced through the channel.
  Error transport_error(std::string what);
  void fail_close(Error err);
  void do_close(const Error* err);
  SocketOps& ops() const {
    return config_.ops != nullptr ? *config_.ops : SocketOps::real();
  }

  EventLoop& loop_;
  Fd fd_;
  Config config_;
  obs::NetMetrics& metrics_;
  std::uint64_t trace_id_;
  bool counted_active_ = false;  // active gauge incremented, not yet undone
  Session session_;                 // per-connection workspaces
  std::unique_ptr<Framer> framer_;  // per-connection decode state
  Channel channel_;

  Bytes outbuf_;              // pending wire bytes [outhead_, size)
  std::size_t outhead_ = 0;   // consumed prefix of outbuf_
  bool want_write_ = false;   // EPOLLOUT currently armed
  bool above_watermark_ = false;
  Bytes read_buf_;            // read() landing zone, one 16 KiB slice

  State state_ = State::Open;
  EventLoop::TimerId idle_timer_ = 0;
  EventLoop::TimerId drain_timer_ = 0;  // Draining-state deadline
  std::chrono::steady_clock::time_point last_activity_;

  MessageHandler message_cb_;
  CloseHandler close_cb_;
  WritableHandler writable_cb_;
  std::function<void(Connection&)> owner_hook_;
  Stats stats_;
};

}  // namespace protoobf::net
