// Derived-field computation.
//
// The framework owns every value the application should not maintain by
// hand: constant fields, length holders and count holders. Two derivation
// modes exist:
//
//  * canonicalize() computes *logical* values against G1 — what a
//    non-obfuscated peer would put on the wire. It runs on user-built
//    messages before serialization and on parsed messages after inversion,
//    so both sides of a round trip compare equal.
//
//  * fix_holders() computes *wire* values against G(n+1) — the length a
//    parser will use to delimit a region after all transformations resized
//    it. Because value transformations may sit on top of a holder (split
//    length fields, xored counters...), the holder's subtree is rebuilt by
//    replaying its lineage chain over the fresh value (transform/lineage).
//    Before a rebuild it asks whether the holder already carries the value:
//    an untransformed holder is read in place, a transformed one is
//    inverted through its own chain (about one journal entry, not the
//    whole journal) on first sight and then remembered in DeriveScratch,
//    so later fixpoint iterations decide with a byte compare.
//
// Both run small fixpoint loops: an ASCII-decimal length's width depends on
// its own value, and nested holders depend on each other. Loops converge in
// one or two iterations for realistic specifications; a hard cap turns
// non-convergence (a cyclic specification) into an error.
#pragma once

#include "ast/ast.hpp"
#include "graph/graph.hpp"
#include "transform/lineage.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace protoobf {

class Workspace;

/// One (holder, measured) pair of a derive fixpoint: the instance carrying
/// a derived value and the instance whose emitted size (Length) or element
/// count (Counter) defines it.
struct DeriveRef {
  Inst* holder;
  Inst* measured;
  bool is_counter;
};

/// The logical value a transformed holder instance carries, as one
/// fix_holders() call last recovered (by chain inversion) or set (by a
/// rebuild) it. `known` is false while the inversion has not succeeded.
struct HolderMemo {
  const Inst* holder = nullptr;
  Bytes logical;
  bool known = false;
};

/// Reusable scratch for the derive fixpoints, held by a Workspace so the
/// steady state re-derives without touching the heap. Not thread-safe: one
/// bundle per thread of control, like the workspace.
struct DeriveScratch {
  std::vector<DeriveRef> pairs;  // fixpoint work list
  std::vector<Inst*> matches;    // canonicalize() placeholder targets
  Bytes encoded;                 // holder-encoding buffer
  Bytes measured;                // emit_into() target for length measurement
  // fix_holders() logical-value memo: entries [0, memo_size) belong to the
  // running call (reset at its start); the rest keep their buffers.
  std::vector<HolderMemo> memo;
  std::size_t memo_size = 0;

  /// Bytes of capacity held by the work vectors, buffers and memo.
  std::size_t retained() const;
};

/// Fills empty constant fields; errors if a non-empty value contradicts the
/// specification's constant.
Status fill_consts(const Graph& graph, Inst& root);

/// Verifies every Optional's presence flag matches its condition evaluated
/// on the (logical, canonicalized) tree.
Status check_presence(const Graph& graph, Inst& root, Workspace& ws);

/// The holder terminals (length/count targets) canonicalize seeds with
/// width-correct placeholders, in DFS order. Depends only on the graph, so
/// callers that canonicalize per message (ObfuscatedProtocol) compute it
/// once and pass it back in.
std::vector<NodeId> canonical_holder_ids(const Graph& g1);

/// Logical derivation: consts + length/count holders per G1 semantics.
/// A length is the size of the measured subtree emitted by emit_into() into
/// `ws`'s derive scratch, whose capacity is reused across measurements, so
/// sizes and validation errors are exactly the real emission's.
/// `holder_ids` must equal canonical_holder_ids(g1); the fixpoint walks and
/// work vectors run on `ws`'s scope table and derive scratch.
Status canonicalize(const Graph& g1, Inst& root,
                    const std::vector<NodeId>& holder_ids, Workspace& ws);

/// Wire derivation on the transformed tree: recomputes every holder from
/// the final wire sizes/counts and replays its transformation lineage.
/// `msg_seed` keeps the replayed randomness deterministic per message;
/// `ws`'s node pool backs the inverted and rebuilt holder subtrees, so the
/// steady state rebuilds without heap traffic.
Status fix_holders(const Graph& wire, const Journal& journal,
                   const HolderTable& table, Inst& root,
                   std::uint64_t msg_seed, Workspace& ws);

}  // namespace protoobf
