// Wire parser: byte buffer -> wire AST (instances of G(n+1)).
//
// A recursive-descent parser driven by the final message format graph. The
// interesting part is reference resolution (paper §V-C: "to rebuild a
// sub-node of AST from the message, it must first delimit the corresponding
// sub-part"): a Length/Counter/Condition target may itself have been
// transformed — split in two, xored, wrapped — so the parser recovers its
// *logical* value before using it to delimit what follows. Every reference
// target has a lineage chain in the HolderTable: the parser inverts only
// that chain over the already-parsed subtree, and reads the target in
// place when the chain is empty.
#pragma once

#include <cstddef>
#include <vector>

#include "ast/ast.hpp"
#include "graph/graph.hpp"
#include "runtime/resume.hpp"
#include "transform/lineage.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace protoobf {

class Workspace;

/// Parses a complete wire message. Errors carry the wire offset where the
/// failure was detected. The returned tree instantiates the *final* graph;
/// run transform/exec.hpp's inverse_all to recover the G1 tree.
///
/// `ws` supplies the reversed copies of mirrored regions, the scope table
/// (reset before use, so stale entries from a previous message never leak
/// in) and the node pool that backs every tree node and terminal payload,
/// so the steady state parses with no heap allocation. The returned tree
/// must not outlive `ws`.
Expected<InstPtr> parse_wire(const Graph& wire, const Journal& journal,
                             const HolderTable& table, BytesView data,
                             Workspace& ws);

/// Streaming variant: parses exactly one message from the *front* of
/// `data`, tolerating trailing bytes (the next message's prefix in a byte
/// stream). On success `*consumed` receives the message's wire size. When
/// the buffer ends before the message does, the error carries
/// ErrorKind::Truncated plus a minimum-additional-bytes hint instead of a
/// plain failure — the signal framers turn into "need more bytes".
///
/// `resume`, when given, makes truncation retries incremental: a Truncated
/// outcome suspends the partial parse (pooled partial tree, child cursors,
/// delimiter-scan progress, reference scopes) into `resume`, and the next
/// call with the same buffer front — same bytes, possibly more appended —
/// continues from the truncation point instead of byte 0. This is what
/// keeps delimiter-bounded wire formats at amortized O(1) parse work per
/// delivered byte under trickled delivery. The caller owns invalidation:
/// see ParseResume's header for the validity contract. Suspended partial
/// trees draw from `ws`'s node pool, so `ws` must outlive the resume state.
///
/// Requires a stream-safe wire graph (see stream_safe()): a boundary that
/// extends "to the end of the input" cannot delimit itself in a stream, and
/// is reported as malformed here.
Expected<InstPtr> parse_wire_prefix(const Graph& wire, const Journal& journal,
                                    const HolderTable& table, BytesView data,
                                    std::size_t* consumed, Workspace& ws,
                                    ParseResume* resume = nullptr);

/// Facts about a wire graph that follow from its nodes alone. One walk
/// (wire_facts()) decides them; stream_safe(), min_wire_size() and the
/// static analyzer (analysis/analyzer.hpp) all read its result.
struct WireFacts {
  /// A node parsed in a stream-open position that depends on where the
  /// input ends: a Terminal/Repetition (or mirrored subtree) bounded by
  /// `end`, a split `half`, or a mirrored node with no intrinsic region
  /// consumes "whatever is left" and cannot be framed by content alone.
  /// Root sequences bounded by `end` are fine: their children delimit
  /// themselves.
  struct StreamViolation {
    NodeId node = kNoNode;
    const char* reason = "";  // completes "node '<name>' ..."
  };

  /// Per node id: the mandatory content size before the region wrap, and
  /// the region minimum. Fixed regions and delimiters/stop markers count in
  /// full; optionals and repetitions count as absent/empty, length- and
  /// count-bounded content as zero.
  std::vector<std::size_t> content_min;
  std::vector<std::size_t> min_size;
  /// Every violation, in DFS order; empty for a stream-safe graph.
  std::vector<StreamViolation> stream_violations;
};

/// The walk over `wire` (its root must exist). The `open` rule it applies
/// is the parser's soft/hard reader rule, kept beside the parser.
WireFacts wire_facts(const Graph& wire);

/// Checks that the wire graph delimits its own messages: fails with the
/// first of wire_facts()'s stream violations. Framers check this once at
/// construction instead of failing on the first decode.
Status stream_safe(const Graph& wire);

/// Static lower bound on the wire size of any message of `wire`: the root's
/// wire_facts() region minimum. Stream framers use it as the minimum-bytes
/// floor before the first decode attempt — for a length-driven frame format
/// this makes the initial need-more hint exact (the header size) instead of
/// the 1-byte floor.
std::size_t min_wire_size(const Graph& wire);

}  // namespace protoobf
