// Wire emission: AST -> byte buffer.
//
// The overall message is the concatenation of the leaf values in ordered
// depth-first search (paper §V-A), with three twists:
//   * Delimited nodes append their delimiter after their content — and the
//     emitter verifies the content cannot be confused with it;
//   * stop-marker Repetitions append the marker once after all elements and
//     verify no element starts with it;
//   * mirrored nodes (ReadFromEnd) reverse their whole serialized region.
//
// The same routine serializes logical trees against G1 (the non-obfuscated
// baseline) and wire trees against G(n+1), and it is the size oracle for
// derived fields: the derive fixpoints emit each measured subtree into
// workspace scratch and take its size, so a measured length and its
// validation errors are those of the real emission by construction.
#pragma once

#include <vector>

#include "ast/ast.hpp"
#include "graph/graph.hpp"
#include "util/result.hpp"

namespace protoobf {

/// Ground-truth location of a terminal on the wire (consumed by the PRE
/// resilience experiments to score field-inference quality).
struct FieldSpan {
  NodeId schema = kNoNode;
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Serializes `root` against `graph` into `out`, replacing its contents but
/// reusing its capacity, so a caller that serializes many messages through
/// one buffer allocates nothing in steady state. On request, records where
/// each terminal landed (mirror-adjusted); `spans` is likewise overwritten.
Status emit_into(const Graph& graph, const Inst& root, Bytes& out,
                 std::vector<FieldSpan>* spans = nullptr);

}  // namespace protoobf
