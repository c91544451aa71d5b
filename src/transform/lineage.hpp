// Derived-field lineage tracking.
//
// A "holder" is a terminal whose value is computed by the framework rather
// than set by the application: a field referenced by some node's Length
// boundary (it carries a wire size) or Counter boundary (it carries an
// element count). Holders come from two places:
//   * native: terminals of G1 that the specification references
//     (Modbus length/quantity fields, HTTP Content-Length style fields);
//   * created: the length fields inserted by BoundaryChange and the count
//     fields inserted by RepSplit.
// The table also traces every condition target — a G1 field an Optional's
// presence depends on (HTTP's method, Modbus's function code) — so the
// parser reads every reference, not only holders, through its chain.
//
// Transformations freely apply *on top of* holders (the paper's "more
// dependencies between fields" challenge). The lineage of a holder is the
// ordered list of journal entries whose target lies inside the holder's
// growing subtree; replaying that chain over a freshly computed logical
// value rebuilds the holder's wire subtree (transform/exec.hpp's
// rerun_chain). The serializer uses this to fix up every holder once the
// final wire sizes are known. Inverting the same chain (invert_chain)
// recovers a holder's logical value: the serializer's fixpoint asks it
// whether a holder needs a rebuild at all, and the parser reads lengths,
// counts and conditions through it. Nothing outside the chain lands inside
// the traced subtree, so the rest of the journal never needs to run there.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "transform/journal.hpp"

namespace protoobf {

struct HolderInfo {
  NodeId origin = kNoNode;  // the terminal that logically holds the value
  NodeId top = kNoNode;     // top of the holder's subtree in the wire graph
  std::vector<std::size_t> chain;  // journal indices to replay over origin
};

struct HolderTable {
  std::vector<HolderInfo> holders;
  std::unordered_map<NodeId, std::size_t> by_top;  // wire top -> index

  const HolderInfo* find_by_top(NodeId top) const {
    const auto it = by_top.find(top);
    return it == by_top.end() ? nullptr : &holders[it->second];
  }
};

/// Scans the journal and computes the origin, final wire top and replay
/// chain of every holder and condition target. `g1` is the pre-obfuscation
/// graph.
HolderTable build_holder_table(const Graph& g1, const Journal& journal);

}  // namespace protoobf
