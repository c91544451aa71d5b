#include "runtime/protocol.hpp"

#include "graph/validate.hpp"
#include "runtime/derive.hpp"
#include "runtime/parse.hpp"
#include "transform/exec.hpp"
#include "util/rng.hpp"

namespace protoobf {

ObfuscatedProtocol::ObfuscatedProtocol(Graph original, ObfuscationResult result)
    : original_(std::move(original)),
      wire_(std::move(result.graph)),
      journal_(std::move(result.journal)),
      stats_(result.stats),
      holders_(build_holder_table(original_, journal_)),
      canon_holders_(canonical_holder_ids(original_)) {}

Expected<ObfuscatedProtocol> ObfuscatedProtocol::create(
    const Graph& g1, const ObfuscationConfig& config) {
  auto result = obfuscate(g1, config);
  if (!result) return Unexpected(result.error());
  return ObfuscatedProtocol(g1.clone(), std::move(*result));
}

Expected<ObfuscatedProtocol> ObfuscatedProtocol::from_parts(Graph original,
                                                            Graph wire,
                                                            Journal journal) {
  if (Status s = validate(original); !s) {
    return Unexpected("artifact original graph invalid: " +
                      s.error().message);
  }
  if (Status s = validate(wire); !s) {
    return Unexpected("artifact wire graph invalid: " + s.error().message);
  }
  ObfuscationResult result{std::move(wire), std::move(journal), {}};
  result.stats.applied = result.journal.size();
  for (const AppliedTransform& e : result.journal) {
    ++result.stats.per_kind[static_cast<std::size_t>(e.kind)];
  }
  return ObfuscatedProtocol(std::move(original), std::move(result));
}

namespace {

/// The workspace behind the plain entry points: one per thread, created on
/// first use and kept until the thread exits, so repeated plain calls reuse
/// capacity up to the thread's largest message.
Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace

Expected<Bytes> ObfuscatedProtocol::serialize(
    const Inst& message, std::uint64_t msg_seed,
    std::vector<FieldSpan>* spans) const {
  Workspace& ws = thread_workspace();
  if (Status s = serialize_into(message, msg_seed, ws.wire(), ws, spans); !s) {
    return Unexpected(s.error());
  }
  return Bytes(ws.wire());  // one right-sized copy the caller owns
}

Status ObfuscatedProtocol::serialize_into(const Inst& message,
                                          std::uint64_t msg_seed, Bytes& out,
                                          Workspace& ws,
                                          std::vector<FieldSpan>* spans) const {
  if (Status s = ast::check(original_, message); !s) return s;
  // The caller's tree is read-only; the transformation passes mutate a
  // workspace copy drawn from the node pool, so the whole copy lands in
  // recycled nodes and recycled payload capacity.
  InstPtr tree = ast::copy(&ws.nodes(), message);
  if (Status s = protoobf::canonicalize(original_, *tree, canon_holders_, ws);
      !s) {
    return s;
  }
  if (Status s = check_presence(original_, *tree, ws); !s) return s;

  Rng rng(msg_seed);
  if (Status s = forward_all(tree, journal_, rng, &ws.nodes()); !s) return s;
  if (Status s = fix_holders(wire_, journal_, holders_, *tree, msg_seed, ws);
      !s) {
    return s;
  }
  return emit_into(wire_, *tree, out, spans);
}

Expected<InstPtr> ObfuscatedProtocol::parse(BytesView wire) const {
  auto tree = parse(wire, thread_workspace());
  if (!tree) return tree;
  // The pooled tree goes back to this thread's pool; the caller gets a heap
  // copy it may keep past the thread or hand to another one.
  return ast::copy(nullptr, **tree);
}

Expected<InstPtr> ObfuscatedProtocol::parse(BytesView wire,
                                            Workspace& ws) const {
  return recover(parse_wire(wire_, journal_, holders_, wire, ws), ws);
}

Expected<InstPtr> ObfuscatedProtocol::parse_prefix(BytesView buffer,
                                                   std::size_t* consumed,
                                                   Workspace& ws,
                                                   ParseResume* resume) const {
  return recover(parse_wire_prefix(wire_, journal_, holders_, buffer,
                                   consumed, ws, resume),
                 ws);
}

Expected<InstPtr> ObfuscatedProtocol::recover(Expected<InstPtr> tree,
                                              Workspace& ws) const {
  if (!tree) return tree;
  if (Status s = inverse_all(*tree, journal_, &ws.nodes()); !s) {
    return Unexpected(s.error());
  }
  // fill_consts doubles as an integrity check: a recovered constant field
  // that does not match the specification means the wire was corrupt (or
  // produced with different transformations).
  if (Status s = fill_consts(original_, **tree); !s) {
    return Unexpected("parsed message rejected: " + s.error().message);
  }
  if (Status s = protoobf::canonicalize(original_, **tree, canon_holders_, ws);
      !s) {
    return Unexpected(s.error());
  }
  if (Status s = ast::check(original_, **tree); !s) {
    return Unexpected("parsed message malformed: " + s.error().message);
  }
  return tree;
}

Status ObfuscatedProtocol::canonicalize(Inst& message) const {
  Workspace& ws = thread_workspace();
  if (Status s = protoobf::canonicalize(original_, message, canon_holders_, ws);
      !s) {
    return s;
  }
  return check_presence(original_, message, ws);
}

}  // namespace protoobf
