// Small shared worker pool for batch sharding.
//
// serialize_batch()/parse_batch() split a batch into contiguous shards and
// run them concurrently: messages are independent (per-message seeds, no
// shared mutable state), so sharding scales with cores without any locking
// in the hot path. The pool is deliberately minimal — persistent threads, a
// run queue, and a blocking parallel_for — because the per-item work (full
// serialize/parse of a message) is large compared to dispatch overhead.
//
// The calling thread always executes shard 0 itself, so a pool constructed
// on a single-core machine (zero worker threads) degrades to plain inline
// execution with no synchronization cost at all.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace protoobf {

class WorkerPool {
 public:
  /// `threads` worker threads in addition to the caller; 0 picks
  /// hardware_concurrency() - 1 (so caller + workers saturate the machine).
  explicit WorkerPool(std::size_t threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Number of shards parallel_for splits work into (workers + caller).
  std::size_t width() const { return workers_.size() + 1; }

  /// Runs body(shard, begin, end) over a partition of [0, n) into width()
  /// contiguous shards and blocks until every shard finished. Shard ids are
  /// dense in [0, width()): use them to index per-shard state (workspaces).
  /// `body` must not throw and must not re-enter the pool.
  ///
  /// Completion is tracked per call (a stack latch each shard job counts
  /// down), so concurrent parallel_for calls from different threads sharing
  /// one pool wait only on their own shards — one caller blocking inside
  /// its body never strands another caller's wait.
  void parallel_for(
      std::size_t n,
      const std::function<void(std::size_t shard, std::size_t begin,
                               std::size_t end)>& body);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::vector<std::thread> workers_;
  std::vector<std::function<void()>> queue_;
  bool stopping_ = false;
};

}  // namespace protoobf
