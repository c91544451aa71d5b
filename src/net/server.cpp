#include "net/server.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <thread>

#include "obs/trace.hpp"

namespace protoobf::net {

namespace {
constexpr int kListenBacklog = 128;
constexpr std::chrono::milliseconds kPendingSweepInterval{100};
}  // namespace

Server::Server(std::shared_ptr<const ObfuscatedProtocol> protocol,
               FramerFactory framer_factory, Config config)
    : protocol_(std::move(protocol)),
      framer_factory_(std::move(framer_factory)),
      config_(config) {
  if (config_.shards == 0) config_.shards = 1;
}

Server::~Server() { stop(); }

Status Server::start() {
  if (started_) return Unexpected("server already started");

  std::vector<std::unique_ptr<Shard>> shards;
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards.push_back(std::make_unique<Shard>());
    shards.back()->index = i;
    shards.back()->metrics = &obs::NetMetrics::for_shard(i);
  }

  // Bind. In reuse_port mode every shard listens; the first bind resolves
  // an ephemeral port and the others join it.
  Endpoint ep = config_.endpoint;
  const std::size_t listeners = config_.reuse_port ? shards.size() : 1;
  for (std::size_t i = 0; i < listeners; ++i) {
    auto fd = listen_tcp(ep, kListenBacklog,
                         /*reuse_port=*/config_.reuse_port);
    if (!fd) return Unexpected(fd.error());
    if (i == 0) {
      auto bound = local_port(fd->get());
      if (!bound) return Unexpected(bound.error());
      port_ = *bound;
      ep.port = port_;  // sibling listeners must join this exact port
    }
    shards[i]->listen = std::move(*fd);
  }

  // Register the accept watches before any thread runs, then start the
  // shard threads. `shards_` is immutable from here until stop().
  shards_ = std::move(shards);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (shard.listen.valid()) {
      if (Status s =
              shard.loop.watch(shard.listen.get(), EPOLLIN,
                               [this, &shard](std::uint32_t) {
                                 handle_accept(shard);
                               });
          !s) {
        shards_.clear();
        return s;
      }
    }
    if (config_.shard_pending_limit != 0) {
      shard.loop.add_timer(kPendingSweepInterval,
                           [this, &shard] { sweep_pending(shard); },
                           kPendingSweepInterval);
    }
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.thread = std::thread([&shard] { shard.loop.run(); });
  }
  started_ = true;
  return Status::success();
}

void Server::stop() {
  if (!started_) {
    shards_.clear();
    return;
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.loop.post([this, &shard] {
      if (shard.listen.valid()) {
        shard.loop.unwatch(shard.listen.get());
        shard.listen.reset();
      }
      // abort() detaches each connection through its close path (handlers
      // fire with err == nullptr) and parks it in the graveyard.
      std::vector<Connection*> live;
      live.reserve(shard.conns.size());
      for (auto& [fd, conn] : shard.conns) live.push_back(conn.get());
      for (Connection* conn : live) conn->abort();
    });
    shard.loop.stop();
  }
  for (auto& shard_ptr : shards_) {
    if (shard_ptr->thread.joinable()) shard_ptr->thread.join();
  }
  // Loop threads are gone: remaining connections (if a shard never ran its
  // teardown task) and graveyards die with the shards.
  shards_.clear();
  started_ = false;
}

void Server::drain(std::chrono::milliseconds grace) {
  if (!started_) return;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.loop.post([&shard] {
      if (shard.listen.valid()) {
        shard.loop.unwatch(shard.listen.get());
        shard.listen.reset();
      }
      // Graceful close: reading stops, the write queue flushes, then the
      // close completes (each connection's own drain_timeout bounds a
      // peer that stops reading).
      std::vector<Connection*> live;
      live.reserve(shard.conns.size());
      for (auto& [fd, conn] : shard.conns) live.push_back(conn.get());
      for (Connection* conn : live) conn->close();
    });
  }
  obs::Tracer::global().record(0, obs::TraceEvent::Drain, total_occupancy());
  const auto deadline = std::chrono::steady_clock::now() + grace;
  while (total_occupancy() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop();
  if (config_.log_drain_snapshot) {
    std::fprintf(stderr, "[drain] final metrics snapshot:\n%s",
                 obs::MetricsRegistry::global().json_snapshot().c_str());
  }
}

Server::Stats Server::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    total.accepted += shard->accepted.load(std::memory_order_relaxed);
    total.rejected += shard->rejected.load(std::memory_order_relaxed);
    total.closed += shard->closed.load(std::memory_order_relaxed);
    total.shed += shard->shed.load(std::memory_order_relaxed);
  }
  // Clamped: the counters are read one by one while shard threads run, so
  // a close can land between the accepted and closed snapshots — without
  // the clamp the unsigned subtraction would wrap to ~1.8e19.
  const std::uint64_t gone = total.rejected + total.closed;
  total.active = total.accepted >= gone ? total.accepted - gone : 0;
  return total;
}

std::size_t Server::shard_occupancy(std::size_t i) const {
  if (i >= shards_.size()) return 0;
  const auto occ = shards_[i]->occupancy.load(std::memory_order_acquire);
  return occ > 0 ? static_cast<std::size_t>(occ) : 0;
}

std::size_t Server::total_occupancy() const {
  std::int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->occupancy.load(std::memory_order_acquire);
  }
  return total > 0 ? static_cast<std::size_t>(total) : 0;
}

std::size_t Server::per_shard_cap() const {
  if (config_.max_connections == 0) return 0;
  return (config_.max_connections + shards_.size() - 1) / shards_.size();
}

Server::Shard& Server::pick_target() {
  // Round-robin with a cap-aware skip: the cursor's shard takes the fd
  // unless it is at its connection ceiling, in which case the next shard
  // with room does. With every shard full the least-loaded one still
  // adopts — a handed-off fd is never dropped; stopping intake is the
  // global cap's job in handle_accept.
  const std::size_t cap = per_shard_cap();
  const std::size_t n = shards_.size();
  std::size_t fallback = next_shard_;
  std::int64_t fallback_load = std::numeric_limits<std::int64_t>::max();
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t idx = (next_shard_ + probe) % n;
    const auto load = shards_[idx]->occupancy.load(std::memory_order_acquire);
    if (cap == 0 || load < static_cast<std::int64_t>(cap)) {
      next_shard_ = (idx + 1) % n;
      return *shards_[idx];
    }
    if (load < fallback_load) {
      fallback_load = load;
      fallback = idx;
    }
  }
  next_shard_ = (fallback + 1) % n;
  return *shards_[fallback];
}

void Server::maybe_resume_accepts() {
  if (config_.max_connections == 0) return;
  const std::size_t low =
      config_.max_connections -
      std::max<std::size_t>(1, config_.max_connections / 8);
  if (total_occupancy() > low) return;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    // exchange() makes each pause resume exactly once, whichever shard's
    // retire gets here first; the task re-checks the listener because a
    // teardown may have closed it in between.
    if (shard.accept_paused.exchange(false, std::memory_order_acq_rel)) {
      shard.loop.post([this, &shard] {
        if (!shard.listen.valid()) return;
        (void)shard.loop.rearm(shard.listen.get(), EPOLLIN);
        handle_accept(shard);
      });
    }
  }
}

void Server::sweep_pending(Shard& shard) {
  std::size_t pending = 0;
  for (const auto& [fd, conn] : shard.conns) pending += conn->queued();
  if (pending <= config_.shard_pending_limit) return;
  // Over the ceiling: shed the connections actually holding queued bytes,
  // least-recently-active first (the peers that stopped reading longest
  // ago are the least likely to ever drain what they owe).
  std::vector<Connection*> victims;
  for (const auto& [fd, conn] : shard.conns) {
    if (conn->queued() > 0) victims.push_back(conn.get());
  }
  std::sort(victims.begin(), victims.end(),
            [](const Connection* a, const Connection* b) {
              return a->last_activity() < b->last_activity();
            });
  for (Connection* conn : victims) {
    if (pending <= config_.shard_pending_limit) break;
    pending -= conn->queued();
    shard.shed.fetch_add(1, std::memory_order_relaxed);
    shard.metrics->shed.add(1);
    obs::Tracer::global().record(conn->trace_id(), obs::TraceEvent::Shed,
                                 conn->queued());
    conn->abort();  // discards the queue; retire() parks the object
  }
}

void Server::handle_accept(Shard& shard) {
  for (;;) {
    // Overload gate: at the cap, stop watching the listener instead of
    // accepting fds there is no budget for. Pending peers queue in the
    // kernel backlog; retire() resumes the watch at the low watermark.
    if (config_.max_connections != 0 &&
        total_occupancy() >= config_.max_connections) {
      shard.accept_paused.store(true, std::memory_order_release);
      (void)shard.loop.rearm(shard.listen.get(), 0);
      return;
    }
    auto fd = accept_tcp(shard.listen.get());
    if (!fd) {
      // Hard accept failure (EMFILE/ENFILE under fd pressure): the
      // pending connection stays in the backlog, so a level-triggered
      // listen watch would refire instantly and spin the shard at 100%
      // CPU. Park the watch and retry shortly — by then fds may have
      // freed up (or the teardown closed the listener).
      (void)shard.loop.rearm(shard.listen.get(), 0);
      shard.loop.add_timer(std::chrono::milliseconds(100),
                           [this, &shard] {
                             if (!shard.listen.valid()) return;
                             (void)shard.loop.rearm(shard.listen.get(),
                                                    EPOLLIN);
                             handle_accept(shard);
                           });
      return;
    }
    if (!fd->valid()) return;   // backlog drained
    if (config_.reuse_port || shards_.size() == 1) {
      shard.occupancy.fetch_add(1, std::memory_order_acq_rel);
      adopt(shard, std::move(*fd));
      continue;
    }
    // Round-robin handoff. The socket travels inside a shared_ptr (an Fd
    // is move-only but std::function wants copyable captures) so that a
    // task discarded by loop teardown still closes it on destruction
    // instead of leaking the fd and hanging the peer. Occupancy is charged
    // here, not in adopt(), so the cap sees handoffs still in flight.
    Shard& target = pick_target();
    target.occupancy.fetch_add(1, std::memory_order_acq_rel);
    auto carried = std::make_shared<Fd>(std::move(*fd));
    target.loop.post(
        [this, &target, carried] { adopt(target, std::move(*carried)); });
  }
}

void Server::adopt(Shard& shard, Fd fd) {
  shard.accepted.fetch_add(1, std::memory_order_relaxed);
  auto framer = framer_factory_();
  if (!framer) {
    shard.rejected.fetch_add(1, std::memory_order_relaxed);
    shard.metrics->rejected.add(1);
    shard.occupancy.fetch_sub(1, std::memory_order_acq_rel);
    maybe_resume_accepts();
    return;  // fd closes on scope exit — the peer sees a reset
  }
  Connection::Config conn_config = config_.connection;
  conn_config.metrics = shard.metrics;  // traffic lands in this shard's series
  auto conn = std::make_unique<Connection>(shard.loop, std::move(fd),
                                           protocol_, std::move(*framer),
                                           conn_config);
  Connection& ref = *conn;
  // The close path resets the connection's fd before the owner hook runs,
  // so the table key is captured here while it is still valid.
  ref.set_owner_hook([this, &shard, key = ref.fd()](Connection& c) {
    retire(shard, key, c);
  });
  if (accept_cb_) accept_cb_(ref);
  if (ref.closed()) {
    // The handler rejected the peer (abort()/close()): retire() already
    // accounted it as closed, and open() on a dead fd must not run (it
    // would double-count the connection as rejected too).
    return;
  }
  if (Status s = ref.open(); !s) {
    shard.rejected.fetch_add(1, std::memory_order_relaxed);
    shard.metrics->rejected.add(1);
    shard.occupancy.fetch_sub(1, std::memory_order_acq_rel);
    maybe_resume_accepts();
    return;  // conn (and its fd) dies here; open() registered nothing
  }
  obs::Tracer::global().record(ref.trace_id(), obs::TraceEvent::Accept,
                               shard.index);
  shard.conns.emplace(ref.fd(), std::move(conn));
}

void Server::retire(Shard& shard, int key, Connection& conn) {
  // Runs inside the connection's close path: move it out of the table now
  // (so its old fd number can be reused by the very next accept) but
  // destroy it only after the stack unwinds. The pointer check guards
  // against the key having been recycled onto a younger connection.
  if (auto it = shard.conns.find(key);
      it != shard.conns.end() && it->second.get() == &conn) {
    shard.graveyard.push_back(std::move(it->second));
    shard.conns.erase(it);
  }
  shard.closed.fetch_add(1, std::memory_order_relaxed);
  shard.occupancy.fetch_sub(1, std::memory_order_acq_rel);
  maybe_resume_accepts();
  if (shard.graveyard.size() == 1) {
    shard.loop.post([&shard] { shard.graveyard.clear(); });
  }
}

}  // namespace protoobf::net
