#include "runtime/derive.hpp"

#include "runtime/emit.hpp"
#include "runtime/scope.hpp"
#include "runtime/workspace.hpp"
#include "transform/exec.hpp"
#include "util/rng.hpp"

namespace protoobf {

namespace {

constexpr int kMaxFixpointIterations = 16;

/// Encodes a derived scalar with the holder terminal's encoding and width
/// into `out`, reusing its capacity (these run inside per-message fixpoint
/// loops, so they must not allocate in steady state).
Status encode_holder_into(Bytes& out, const Graph& graph, NodeId holder,
                          std::uint64_t value) {
  const Node& n = graph.node(holder);
  if (n.encoding == Encoding::AsciiDec) {
    const std::size_t width =
        n.boundary == BoundaryKind::Fixed ? n.fixed_size : 0;
    ascii_dec_encode_into(out, value, width);
    if (width != 0 && out.size() != width) {
      return Unexpected("derived value " + std::to_string(value) +
                        " does not fit in ASCII field '" + n.name + "'");
    }
    return Status::success();
  }
  if (n.boundary != BoundaryKind::Fixed) {
    return Unexpected("binary holder '" + n.name + "' must be fixed-size");
  }
  if (n.fixed_size < 8 && value >= (1ull << (8 * n.fixed_size))) {
    return Unexpected("derived value " + std::to_string(value) +
                      " overflows field '" + n.name + "'");
  }
  be_encode_into(out, value, n.fixed_size);
  return Status::success();
}

/// Collects (holder, measured) pairs in parse order against `graph` into
/// `pairs` (cleared first, capacity reused across fixpoint iterations).
Status collect_pairs(const Graph& graph, Inst& root,
                     std::vector<DeriveRef>& pairs, ScopeChain& scopes) {
  pairs.clear();
  // One right-sized allocation instead of a doubling climb on the first
  // call (workspace-held scratch keeps the capacity across messages).
  if (pairs.capacity() == 0) pairs.reserve(16);
  return walk_scoped(
      graph, root,
      [&](Inst& inst, ScopeChain& chain) -> Status {
        const Node& n = graph.node(inst.schema);
        if (n.boundary != BoundaryKind::Length &&
            n.boundary != BoundaryKind::Counter) {
          return Status::success();
        }
        Inst* holder = chain.lookup(n.ref);
        if (holder == nullptr) {
          return Unexpected("reference target '" + graph.node(n.ref).name +
                            "' not in scope of '" + n.name + "'");
        }
        pairs.push_back(
            {holder, &inst, n.boundary == BoundaryKind::Counter});
        return Status::success();
      },
      scopes);
}

/// The value `pair` derives: the measured instance's element count, or the
/// size of its serialization, emitted into `measured` (capacity reused).
Expected<std::uint64_t> measure(const Graph& graph, const DeriveRef& pair,
                                Bytes& measured) {
  if (pair.is_counter) return pair.measured->children.size();
  if (Status s = emit_into(graph, *pair.measured, measured); !s) {
    return Unexpected(s.error());
  }
  return measured.size();
}

/// The memo entry of `holder` in this fix_holders() call, added (unknown)
/// on first sight. Keyed by instance, not by pair index, so two pairs that
/// share a holder see each other's rebuilds. Entries past `memo_size` keep
/// their buffers for later calls.
HolderMemo& memo_of(DeriveScratch& scratch, const Inst* holder) {
  for (std::size_t i = 0; i < scratch.memo_size; ++i) {
    if (scratch.memo[i].holder == holder) return scratch.memo[i];
  }
  if (scratch.memo_size == scratch.memo.size()) scratch.memo.emplace_back();
  HolderMemo& memo = scratch.memo[scratch.memo_size++];
  memo.holder = holder;
  memo.known = false;
  return memo;
}

}  // namespace

std::size_t DeriveScratch::retained() const {
  std::size_t total = pairs.capacity() * sizeof(DeriveRef) +
                      matches.capacity() * sizeof(Inst*) +
                      encoded.capacity() + measured.capacity() +
                      memo.capacity() * sizeof(HolderMemo);
  for (const HolderMemo& entry : memo) total += entry.logical.capacity();
  return total;
}

Status fill_consts(const Graph& graph, Inst& root) {
  const Node& n = graph.node(root.schema);
  if (n.has_const) {
    if (root.value.empty()) {
      root.value = n.const_value;
    } else if (root.value != n.const_value) {
      return Unexpected("constant field '" + n.name +
                        "' set to a non-constant value");
    }
  }
  if (root.present) {
    for (auto& child : root.children) {
      if (Status s = fill_consts(graph, *child); !s) return s;
    }
  }
  return Status::success();
}

Status check_presence(const Graph& graph, Inst& root, Workspace& ws) {
  return walk_scoped(
      graph, root,
      [&](Inst& inst, ScopeChain& chain) -> Status {
        const Node& n = graph.node(inst.schema);
        if (n.type != NodeType::Optional ||
            n.condition.kind == Condition::Kind::Always) {
          return Status::success();
        }
        const Inst* ref = chain.lookup(n.condition.ref);
        if (ref == nullptr) {
          return Unexpected("condition target of '" + n.name +
                            "' not in scope");
        }
        const bool expected = n.condition.evaluate(ref->value);
        if (expected != inst.present) {
          return Unexpected("optional '" + n.name + "' is " +
                            (inst.present ? "present" : "absent") +
                            " but its condition evaluates to " +
                            (expected ? "true" : "false"));
        }
        return Status::success();
      },
      ws.scopes());
}

std::vector<NodeId> canonical_holder_ids(const Graph& g1) {
  std::vector<NodeId> holders;
  for (NodeId id : g1.dfs_order()) {
    if (g1.node(id).type == NodeType::Terminal &&
        (g1.is_length_target(id) || g1.is_counter_target(id))) {
      holders.push_back(id);
    }
  }
  return holders;
}

Status canonicalize(const Graph& g1, Inst& root,
                    const std::vector<NodeId>& holder_ids, Workspace& ws) {
  if (Status s = fill_consts(g1, root); !s) return s;

  DeriveScratch& scratch = ws.derive();
  Bytes& encoded = scratch.encoded;
  std::vector<Inst*>& matches = scratch.matches;
  std::vector<DeriveRef>& pairs = scratch.pairs;

  // Width-correct placeholders so intermediate measurements succeed.
  for (NodeId holder : holder_ids) {
    if (Status s = encode_holder_into(encoded, g1, holder, 0); !s) return s;
    ast::find_all_schema(root, holder, matches);
    for (Inst* inst : matches) inst->value = encoded;
  }

  for (int iter = 0; iter < kMaxFixpointIterations; ++iter) {
    if (Status s = collect_pairs(g1, root, pairs, ws.scopes()); !s) return s;
    bool changed = false;
    for (const DeriveRef& pair : pairs) {
      auto value = measure(g1, pair, scratch.measured);
      if (!value) return Unexpected(value.error());
      if (Status s = encode_holder_into(encoded, g1, pair.holder->schema,
                                        *value);
          !s) {
        return s;
      }
      if (pair.holder->value != encoded) {
        pair.holder->value = encoded;
        changed = true;
      }
    }
    if (!changed) return Status::success();
  }
  return Unexpected("derived fields did not converge (cyclic lengths?)");
}

Status fix_holders(const Graph& wire, const Journal& journal,
                   const HolderTable& table, Inst& root,
                   std::uint64_t msg_seed, Workspace& ws) {
  DeriveScratch& scratch = ws.derive();
  InstPool* pool = &ws.nodes();
  Bytes& encoded = scratch.encoded;
  std::vector<DeriveRef>& pairs = scratch.pairs;
  scratch.memo_size = 0;  // memo entries describe this call's tree only
  for (int iter = 0; iter < kMaxFixpointIterations; ++iter) {
    if (Status s = collect_pairs(wire, root, pairs, ws.scopes()); !s) return s;
    bool changed = false;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const DeriveRef& pair = pairs[k];
      auto value = measure(wire, pair, scratch.measured);
      if (!value) return Unexpected(value.error());
      const HolderInfo* info = table.find_by_top(pair.holder->schema);
      if (info == nullptr) {
        return Unexpected("no lineage for holder '" +
                          wire.node(pair.holder->schema).name + "'");
      }
      if (Status s = encode_holder_into(encoded, wire, info->origin, *value);
          !s) {
        return s;
      }

      // Skip the rebuild if the holder already carries this logical value.
      // An untransformed holder (empty chain) is read in place; any other
      // is inverted through its chain once per call, then remembered.
      HolderMemo* memo = nullptr;
      const Bytes* current = &pair.holder->value;
      if (!info->chain.empty()) {
        memo = &memo_of(scratch, pair.holder);
        if (!memo->known) {
          auto logical = invert_chain(*pair.holder, journal, info->chain, pool);
          if (logical && (*logical)->schema == info->origin) {
            memo->logical = (*logical)->value;
            memo->known = true;
          }
        }
        current = memo->known ? &memo->logical : nullptr;
      }
      if (current != nullptr && *current == encoded) continue;

      Rng rng(msg_seed ^ (0x9e3779b97f4a7c15ull * (k + 1)));
      auto rebuilt =
          rerun_chain(info->origin, encoded, journal, info->chain, rng, pool);
      if (!rebuilt) return Unexpected(rebuilt.error());
      *pair.holder = std::move(**rebuilt);
      if (memo != nullptr) {
        memo->logical = encoded;
        memo->known = true;
      }
      changed = true;
    }
    if (!changed) return Status::success();
  }
  return Unexpected("wire holder derivation did not converge");
}

}  // namespace protoobf
