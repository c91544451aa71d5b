// Pooled AST node allocator (the zero-allocation message hot path).
//
// Every message that crosses the runtime materializes an Inst tree — one
// node per graph instance, one Bytes per terminal. At traffic scale those
// per-node heap round-trips dominate parse/serialize cost, so sessions
// recycle whole trees through an InstPool: a slab-backed freelist whose
// nodes keep their `value` and `children` capacity between checkouts.
// Re-parsing a message of a similar shape therefore performs no heap
// allocation at all in steady state — node storage comes from the
// freelist, terminal payloads land in recycled Bytes capacity, and child
// vectors reuse their previous element storage.
//
// Ownership plumbing: InstPtr's deleter (ast.hpp) routes destruction by
// the node's back-pointer — pool nodes return to their freelist, plain
// nodes are deleted. Pooled and heap nodes mix freely in one tree, so
// every existing InstPtr call site keeps working and pooling is opt-in
// per allocation site.
//
// Lifetime contract: the pool must outlive the trees drawn from it (a
// Workspace owns the pool; trees returned by Session::parse follow the
// session's lifetime). If a pool is destroyed while nodes are still live,
// it detaches them and leaks its slabs instead of freeing memory under
// the survivors' feet — a diagnosable leak, never a use-after-free.
//
// Not thread-safe: one pool per thread of control, like the workspace that
// owns it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "ast/ast.hpp"

namespace protoobf {

class InstPool {
 public:
  struct Stats {
    std::size_t misses = 0;  // nodes served by growing a slab (heap work)
    std::size_t hits = 0;    // nodes served from the freelist (no heap work)
    std::size_t live = 0;    // nodes currently checked out
    std::size_t slabs = 0;   // slab count (capacity = slabs * kSlabNodes)
  };

  static constexpr std::size_t kSlabNodes = 64;

  InstPool() = default;
  InstPool(const InstPool&) = delete;
  InstPool& operator=(const InstPool&) = delete;
  ~InstPool();

  /// A blank node (schema set, value/children empty but capacity-bearing).
  InstPtr make(NodeId schema);

  /// Returns a node to the freelist. Children are released first (through
  /// their own deleters), the value keeps its capacity for the next
  /// terminal checked out. Called by InstPtr's deleter; not for direct use.
  void release(Inst* node);

  const Stats& stats() const { return stats_; }

  /// Bytes held by the node slabs (live and free nodes alike).
  std::size_t slab_bytes() const {
    return slabs_.size() * kSlabNodes * sizeof(Inst);
  }

  /// Drops all idle capacity. Only complete when no nodes are live; live
  /// nodes keep their slabs pinned until they return.
  void shrink();

 private:
  void grow();

  std::vector<std::unique_ptr<Inst[]>> slabs_;
  std::vector<Inst*> free_;
  Stats stats_;
};

namespace ast {

/// Pool-aware factories: draw from `pool` when given, from the heap when
/// null. The BytesView/copying variants assign into the recycled buffer so
/// a freelist hit copies payload bytes without allocating.
InstPtr make(InstPool* pool, NodeId schema);
InstPtr terminal(InstPool* pool, NodeId schema, BytesView value);
InstPtr terminal(InstPool* pool, NodeId schema, Bytes&& value);
InstPtr absent(InstPool* pool, NodeId schema);

/// Deep copy with every node drawn from `pool` (heap when null) and every
/// terminal payload copied into recycled capacity. This is the
/// serialize-side workspace copy that replaced ast::clone on the hot path.
InstPtr copy(InstPool* pool, const Inst& inst);

}  // namespace ast
}  // namespace protoobf
