// Per-thread-of-control runtime workspace.
//
// Every serialize and parse runs against one compiled protocol and needs
// the same scratch: a wire buffer, reversed copies of mirrored regions, a
// reference-scope table, the derive-fixpoint work vectors and an AST node
// pool for parse trees and serialize workspace copies. Allocated per call,
// those dominate the runtime cost of small messages. A Workspace keeps all
// of them, so the steady state reuses capacity established by the first
// few messages — including whole parse trees and serialize workspace
// copies, which recycle through the node pool.
//
// Every pipeline signature (ObfuscatedProtocol, derive, the wire parser)
// takes one Workspace by reference. Session holds one for its
// single-message path and one per batch shard; ObfuscatedFramer and
// FuzzRunner hold one each; the plain ObfuscatedProtocol entry points run
// on a thread-local one.
//
// Not thread-safe: one workspace per thread of control.
#pragma once

#include "ast/pool.hpp"
#include "runtime/derive.hpp"
#include "runtime/scope.hpp"
#include "util/bytes.hpp"

namespace protoobf {

class Workspace {
 public:
  /// Reusable wire-image buffer for serialize_into(). Contents are valid
  /// until the next serialization into it.
  Bytes& wire() { return wire_; }
  const Bytes& wire() const { return wire_; }

  /// Reusable framed-image buffer: Channel::send() wraps wire() into a
  /// frame here, so the framing layer allocates nothing in steady state.
  /// Contents are valid until the next send through this workspace.
  Bytes& frame() { return frame_; }
  const Bytes& frame() const { return frame_; }

  /// Scratch buffers for the reversed copies of mirrored regions.
  BufferPool& scratch() { return scratch_; }

  /// Reusable reference-scope table (reset per walk).
  ScopeChain& scopes() { return scopes_; }

  /// Reusable derive-fixpoint scratch (pairs/matches/encoded work vectors,
  /// the length-measurement buffer and the holder memo of
  /// canonicalize()/fix_holders()).
  DeriveScratch& derive() { return derive_; }

  /// AST node pool backing parse trees and serialize workspace copies.
  /// Trees drawn from it must not outlive the workspace.
  InstPool& nodes() { return nodes_; }
  const InstPool& nodes() const { return nodes_; }

  /// Bytes of capacity currently retained by the wire and frame buffers.
  std::size_t retained() const { return wire_.capacity() + frame_.capacity(); }

  /// Releases all retained memory (e.g. when a session goes idle). Node
  /// slabs with live trees stay pinned until those trees are dropped.
  void shrink();

 private:
  Bytes wire_;
  Bytes frame_;
  BufferPool scratch_;
  ScopeChain scopes_;
  DeriveScratch derive_;
  InstPool nodes_;
};

}  // namespace protoobf
