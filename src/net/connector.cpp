#include "net/connector.hpp"

#include <poll.h>

#include <cstring>
#include <thread>

namespace protoobf::net {

Expected<std::unique_ptr<Connection>> Connector::dial(
    EventLoop& loop, const Endpoint& ep,
    std::shared_ptr<const ObfuscatedProtocol> protocol,
    std::unique_ptr<Framer> framer, Connection::Config config,
    std::chrono::milliseconds timeout, BackoffPolicy backoff) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Jitter seeded from the endpoint so concurrent dialers to different
  // servers draw different schedules while a given call site stays
  // deterministic under test.
  Backoff delays(backoff, 0x6469616cull ^ ep.port);
  int refused = 0;

  for (;;) {
    // The fault seam's connect gate stands in for a refusing server — a
    // gated attempt consumes a retry exactly like a real RST would.
    int err = config.ops != nullptr ? config.ops->connect_gate() : 0;
    Expected<Fd> fd = Unexpected("gated");
    if (err == 0) {
      fd = connect_tcp(ep);
      if (!fd) {
        // Loopback refusals can surface synchronously from connect(2)
        // instead of via SO_ERROR; fold them into the same retry path.
        if (fd.error().message.find(std::strerror(ECONNREFUSED)) !=
            std::string::npos) {
          err = ECONNREFUSED;
        } else {
          return Unexpected(fd.error());
        }
      }
    }
    if (err == 0) {
      pollfd pfd{fd->get(), POLLOUT, 0};
      int ready;
      for (;;) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
        ready = ::poll(&pfd, 1,
                       left.count() > 0 ? static_cast<int>(left.count()) : 0);
        if (ready >= 0) break;
        // A stray signal (SIGCHLD, a profiler tick) must not fail the
        // dial; retry with whatever deadline remains.
        if (errno != EINTR) {
          return Unexpected("poll: " + std::string(std::strerror(errno)));
        }
      }
      if (ready == 0) {
        return Unexpected("connect " + ep.host + ":" +
                          std::to_string(ep.port) + " timed out");
      }
      err = take_socket_error(fd->get());
      if (err == 0) {
        return std::make_unique<Connection>(loop, std::move(*fd),
                                            std::move(protocol),
                                            std::move(framer), config);
      }
    }
    if (err != ECONNREFUSED) {
      return Unexpected("connect " + ep.host + ":" + std::to_string(ep.port) +
                        ": " + std::strerror(err));
    }
    // Refused: the server may simply not be listening *yet* (the start-up
    // race every client/server test loses without help). Back off and
    // retry while the deadline allows.
    ++refused;
    const auto delay = delays.next();
    if (std::chrono::steady_clock::now() + delay >= deadline) {
      return Unexpected("connect " + ep.host + ":" + std::to_string(ep.port) +
                        ": " + std::strerror(ECONNREFUSED) + " (" +
                        std::to_string(refused) + " attempts)");
    }
    std::this_thread::sleep_for(delay);
  }
}

}  // namespace protoobf::net
