#include "transform/lineage.hpp"

#include <algorithm>

namespace protoobf {

namespace {

void add_created_ids(const AppliedTransform& e, std::vector<NodeId>& members) {
  for (NodeId id : {e.created_seq, e.created_a, e.created_b, e.created_c,
                    e.created_d}) {
    if (id != kNoNode) members.push_back(id);
  }
}

/// Follows a holder from journal index `start` onward, extending its member
/// set and replay chain with every entry that lands inside its subtree.
HolderInfo trace(NodeId origin, std::size_t start, const Journal& journal) {
  HolderInfo info;
  info.origin = origin;
  info.top = origin;
  std::vector<NodeId> members{origin};
  for (std::size_t i = start; i < journal.size(); ++i) {
    const AppliedTransform& e = journal[i];
    if (std::find(members.begin(), members.end(), e.target) == members.end()) {
      continue;
    }
    // BoundaryChange wraps the holder with parse structure (length prefix +
    // data) but does not transfer referers and does not alter the holder's
    // value encoding — it is not part of the value lineage. Its created
    // length field is traced as its own holder by build_holder_table.
    if (e.kind == TransformKind::BoundaryChange) continue;
    info.chain.push_back(i);
    add_created_ids(e, members);
    if (e.target == info.top && e.replacement != e.target) {
      info.top = e.replacement;
    }
  }
  return info;
}

}  // namespace

HolderTable build_holder_table(const Graph& g1, const Journal& journal) {
  HolderTable table;

  // Native holders: terminals of G1 referenced by Length/Counter boundaries.
  for (NodeId id : g1.dfs_order()) {
    const Node& n = g1.node(id);
    if (n.type != NodeType::Terminal) continue;
    if (g1.is_length_target(id) || g1.is_counter_target(id)) {
      table.holders.push_back(trace(id, 0, journal));
    }
  }

  // Condition targets: fields of G1 an Optional's presence depends on,
  // each traced once (a length/count holder above already is).
  for (NodeId id : g1.dfs_order()) {
    const Node& n = g1.node(id);
    if (n.type != NodeType::Optional ||
        n.condition.kind == Condition::Kind::Always) {
      continue;
    }
    const NodeId ref = n.condition.ref;
    const bool traced =
        std::any_of(table.holders.begin(), table.holders.end(),
                    [&](const HolderInfo& h) { return h.origin == ref; });
    if (!traced) table.holders.push_back(trace(ref, 0, journal));
  }

  // Created holders: BoundaryChange length fields and RepSplit count fields.
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const AppliedTransform& e = journal[i];
    if (e.kind == TransformKind::BoundaryChange ||
        e.kind == TransformKind::RepSplit) {
      table.holders.push_back(trace(e.created_a, i + 1, journal));
    }
  }

  for (std::size_t i = 0; i < table.holders.size(); ++i) {
    table.by_top[table.holders[i].top] = i;
  }
  return table;
}

}  // namespace protoobf
