// Obfuscation session: the per-connection runtime object.
//
// A Session binds one compiled protocol version (shared, cache-managed) to
// per-session serialization state: a Workspace for the single-message path
// and one per batch shard. It is the intended entry point for servers —
// ProtocolCache amortizes compilation across sessions and version
// rotations, the workspaces amortize allocation across messages, and the
// batch APIs shard independent messages over a WorkerPool.
//
// Semantics contract (tests/session_test.cpp): every path produces results
// byte-identical to the plain ObfuscatedProtocol::serialize()/parse() calls
// with the same arguments, including error behaviour. The session only
// changes where the bytes live and which thread computes them.
//
// Threading: one Session per thread of control. The shared pieces — the
// cached protocol and the worker pool — are safe to share across sessions.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "runtime/protocol.hpp"
#include "session/protocol_cache.hpp"
#include "session/worker_pool.hpp"

namespace protoobf {

/// One message of a serialization batch. `message` must outlive the call.
struct BatchItem {
  const Inst* message = nullptr;
  std::uint64_t msg_seed = 0;
};

class Session {
 public:
  /// `pool` may be null (batches run inline) and is borrowed, not owned; it
  /// must outlive the session.
  explicit Session(std::shared_ptr<const ObfuscatedProtocol> protocol,
                   WorkerPool* pool = nullptr);

  const ObfuscatedProtocol& protocol() const { return *protocol_; }

  /// Serializes through the session workspace. The returned view aliases
  /// the workspace and is valid until the next serialize()/
  /// serialize_batch() on this session; callers that need to keep the
  /// bytes copy them.
  Expected<BytesView> serialize(const Inst& message, std::uint64_t msg_seed,
                                std::vector<FieldSpan>* spans = nullptr);

  /// Parses with the session workspace backing the whole operation:
  /// scratch buffers for mirrored regions, the scope table, and the node
  /// pool every instance of the result comes from. Steady state performs
  /// O(1) small allocations per message, never O(nodes). Because dropping
  /// the returned tree recycles its nodes into the workspace's pool, the
  /// tree must not outlive the session and must be destroyed on the
  /// session's thread of control — handing a tree to another thread
  /// requires dropping it back here (or copying it). Same rules for
  /// parse_batch results.
  Expected<InstPtr> parse(BytesView wire);

  /// Serializes every item; result i corresponds to item i and equals what
  /// protocol().serialize(*items[i].message, items[i].msg_seed) returns.
  /// Items are independent, so shards run concurrently on the pool.
  std::vector<Expected<Bytes>> serialize_batch(
      std::span<const BatchItem> items);

  /// Parses every wire image; result i equals protocol().parse(wires[i]).
  std::vector<Expected<InstPtr>> parse_batch(std::span<const BytesView> wires);

  /// Workspace of batch shard `i` (i < batch_width()), exposed for tests
  /// and memory accounting.
  const Workspace& shard_workspace(std::size_t i) const { return shards_[i]; }
  std::size_t batch_width() const { return shards_.size(); }

  /// The single-message-path workspace. Channel routes its frame buffer
  /// through it so streaming reuses the session's capacity; same threading
  /// rule as the session itself (one thread of control).
  Workspace& workspace() { return workspace_; }

  /// The worker pool batches shard over, or null when batches run inline.
  WorkerPool* pool() const { return pool_; }

 private:
  Expected<Bytes> serialize_one(Workspace& ws, const BatchItem& item);

  std::shared_ptr<const ObfuscatedProtocol> protocol_;
  WorkerPool* pool_;
  Workspace workspace_;            // single-message path
  std::vector<Workspace> shards_;  // one per batch shard
};

}  // namespace protoobf
