// ObfuscatedProtocol: the runtime artifact the framework produces.
//
// Paper §IV: "the output of the framework is the source code for the
// message parser and the corresponding message serializer". This class is
// the executable equivalent of that generated library (src/codegen emits
// the literal source-code rendition): it bundles the original graph G1, the
// final graph G(n+1), the transformation journal, and the derived-field
// lineage, and exposes serialize()/parse() that perform the transformations
// on the fly exactly as the paper's generated code does.
//
// Round-trip contract (property-tested): for any message m built against
// G1, parse(serialize(m)) compares equal to canonical(m) — canonical
// meaning constant fields filled and derived fields recomputed.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "runtime/derive.hpp"
#include "runtime/emit.hpp"
#include "runtime/resume.hpp"
#include "runtime/workspace.hpp"
#include "transform/engine.hpp"
#include "transform/lineage.hpp"
#include "util/result.hpp"

namespace protoobf {

class ObfuscatedProtocol {
 public:
  /// Obfuscates `g1` per `config` and prepares the runtime metadata.
  /// `config.per_node == 0` yields the identity (non-obfuscated) protocol.
  static Expected<ObfuscatedProtocol> create(const Graph& g1,
                                             const ObfuscationConfig& config);

  /// Rebuilds a protocol from persisted parts (runtime/persist.hpp). Both
  /// graphs are re-validated; statistics are recomputed from the journal.
  static Expected<ObfuscatedProtocol> from_parts(Graph original, Graph wire,
                                                 Journal journal);

  const Graph& original() const { return original_; }
  const Graph& wire_graph() const { return wire_; }
  const Journal& journal() const { return journal_; }
  const ObfuscationStats& stats() const { return stats_; }

  /// Wire holder table (build_holder_table(original(), journal())), built
  /// once at construction.
  const HolderTable& holders() const { return holders_; }

  /// canonical_holder_ids(original()), built once at construction.
  const std::vector<NodeId>& canonical_holders() const {
    return canon_holders_;
  }

  /// Serializes a logical message (an instance of G1). `msg_seed` drives the
  /// per-message randomness (split halves, pad bytes): the same message with
  /// a different seed produces a different wire image. Optional `spans`
  /// receive the ground-truth wire location of every terminal. Runs
  /// serialize_into() on the calling thread's own Workspace.
  Expected<Bytes> serialize(const Inst& message, std::uint64_t msg_seed,
                            std::vector<FieldSpan>* spans = nullptr) const;

  /// Serializes into `out`, replacing its contents but reusing its
  /// capacity. The user's tree is never cloned on the heap: the
  /// canonicalize/forward-transform passes mutate a workspace copy drawn
  /// from `ws`'s node pool, and the derive fixpoints run on its scope table
  /// and scratch, so the steady state serializes with O(1) small
  /// allocations per message instead of O(nodes).
  Status serialize_into(const Inst& message, std::uint64_t msg_seed,
                        Bytes& out, Workspace& ws,
                        std::vector<FieldSpan>* spans = nullptr) const;

  /// Parses a wire message back into a canonical logical tree. Runs
  /// parse(wire, ws) on the calling thread's own Workspace and returns a
  /// heap copy of the result, so the tree may outlive the thread and move
  /// to another one.
  Expected<InstPtr> parse(BytesView wire) const;

  /// Parses with every instance of the result drawn from `ws`'s node pool:
  /// the tree must not outlive `ws` and must be dropped on the thread of
  /// control that owns it.
  Expected<InstPtr> parse(BytesView wire, Workspace& ws) const;

  /// Streaming variant of parse(): reads exactly one message from the front
  /// of `buffer`, tolerating trailing bytes (the next message), and reports
  /// the message's wire size in `*consumed`. A buffer that ends before the
  /// message does fails with ErrorKind::Truncated and a minimum
  /// additional-byte hint — the signal framers translate into "need more
  /// bytes" instead of a parse failure. Requires stream_safe(wire_graph()).
  ///
  /// `resume`, when given, suspends a Truncated parse so the next call on
  /// the same buffer front (same bytes, more appended) continues from the
  /// truncation point instead of byte 0 — see parse_wire_prefix and
  /// ParseResume for the validity contract. The result and suspended
  /// partial trees draw from `ws`'s node pool, so `ws` must outlive both.
  Expected<InstPtr> parse_prefix(BytesView buffer, std::size_t* consumed,
                                 Workspace& ws,
                                 ParseResume* resume = nullptr) const;

  /// Fills constants and derived fields of a user-built logical tree so it
  /// compares equal with parse() results. Runs on the calling thread's own
  /// Workspace.
  Status canonicalize(Inst& message) const;

 private:
  ObfuscatedProtocol(Graph original, ObfuscationResult result);

  /// The parse pipeline after the wire parse that parse() (whole buffer)
  /// or parse_prefix() (one message from the front) ran: inverse
  /// transformations, then the canonical-form checks.
  Expected<InstPtr> recover(Expected<InstPtr> tree, Workspace& ws) const;

  Graph original_;
  Graph wire_;
  Journal journal_;
  ObfuscationStats stats_;
  HolderTable holders_;
  std::vector<NodeId> canon_holders_;
};

}  // namespace protoobf
