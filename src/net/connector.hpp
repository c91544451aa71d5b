// Client side of the socket transport.
//
// Connector::dial() completes the TCP handshake synchronously (with a
// deadline), wraps the socket in a Connection bound to `loop`, and returns
// it unopened. Install handlers, then open(). It suits CLIs, benches and
// tests that set up before the loop runs; a client that must dial out of a
// running loop uses ReliableClient (net/reconnect.hpp), whose nonblocking
// dial resolves on the loop thread under a timeout.
#pragma once

#include <chrono>
#include <memory>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/reconnect.hpp"
#include "net/socket.hpp"

namespace protoobf::net {

class Connector {
 public:
  /// Blocking connect with a deadline. A refused connection — the classic
  /// client-raced-the-server startup window, or the fault injector's
  /// connect gate — is retried with capped-exponential backoff (full
  /// jitter, `backoff`) until the overall `timeout` elapses; every other
  /// failure is immediate. config.ops supplies the connect gate.
  static Expected<std::unique_ptr<Connection>> dial(
      EventLoop& loop, const Endpoint& ep,
      std::shared_ptr<const ObfuscatedProtocol> protocol,
      std::unique_ptr<Framer> framer, Connection::Config config,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000),
      BackoffPolicy backoff = {});
};

}  // namespace protoobf::net
