// On-the-fly execution of transformations on message ASTs (paper §V-C).
//
// The serializer runs the journal *forward* — the AST of G1 becomes, entry
// by entry, the AST of G(n+1) that is then emitted. The parser runs it
// *backward* on the tree recovered from the wire. Per-entry randomness
// (SplitAdd's X1, pad bytes) is drawn from the serializer's message RNG and
// never needs to be recorded: the inverse operations eliminate it.
//
// Every operation satisfies inverse(forward(t)) == t by construction
// (tested exhaustively in tests/transform_test.cpp).
#pragma once

#include "ast/ast.hpp"
#include "ast/pool.hpp"
#include "transform/journal.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace protoobf {

/// Every entry point takes an optional InstPool: nodes the execution
/// creates (split halves, inserted length fields, replacement composites)
/// are drawn from it, and nodes it destroys return to it, so a session
/// replays journals with zero heap traffic in steady state. Null keeps the
/// plain heap behaviour. Results are bit-identical either way.

/// Applies one τi to every matching instance in the tree.
Status forward_entry(InstPtr& root, const AppliedTransform& entry, Rng& rng,
                     InstPool* pool = nullptr);

/// Applies τi⁻¹ to every matching instance in the tree.
Status inverse_entry(InstPtr& root, const AppliedTransform& entry,
                     InstPool* pool = nullptr);

/// Runs the whole journal forward (τ1 ... τn).
Status forward_all(InstPtr& root, const Journal& journal, Rng& rng,
                   InstPool* pool = nullptr);

/// Runs the whole journal backward (τn⁻¹ ... τ1⁻¹).
Status inverse_all(InstPtr& root, const Journal& journal,
                   InstPool* pool = nullptr);

/// Deep-copies a traced wire subtree (a holder or condition target) and
/// inverts only its lineage entries (`chain`, indices into the journal, as
/// in HolderInfo), last first. No other journal entry can match inside the
/// subtree, so the result equals inverting the whole journal over a copy
/// (tests/transform_test.cpp checks this) at the cost of the chain, about
/// one entry.
Expected<InstPtr> invert_chain(const Inst& holder_subtree,
                               const Journal& journal,
                               const std::vector<std::size_t>& chain,
                               InstPool* pool = nullptr);

/// Rebuilds the wire subtree of a derived field: starts from the original
/// terminal with its freshly computed logical value (copied into a pooled
/// node's recycled buffer) and replays the lineage entries (`chain`,
/// indices into the journal). Deterministic for a given rng seed.
Expected<InstPtr> rerun_chain(NodeId origin, BytesView logical_value,
                              const Journal& journal,
                              const std::vector<std::size_t>& chain, Rng& rng,
                              InstPool* pool = nullptr);

}  // namespace protoobf
