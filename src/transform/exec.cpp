#include "transform/exec.hpp"

#include <algorithm>

namespace protoobf {

namespace {

Unexpected exec_fail(const AppliedTransform& entry, const std::string& what) {
  return Unexpected(std::string(to_string(entry.kind)) + ": " + what);
}

// --- forward operations -----------------------------------------------------
//
// Replacement nodes come from the pool (recycled node + recycled payload
// capacity) and replaced nodes return to it, so steady-state journal replay
// touches the heap only while buffers are still growing toward their
// high-water capacity. Randomness is drawn in exactly the order the
// original heap implementation drew it, keeping wire images bit-identical.

Status forward_split(InstPtr& p, const AppliedTransform& e, Rng& rng,
                     InstPool* pool) {
  InstPtr first = ast::make(pool, e.created_a);
  InstPtr second = ast::make(pool, e.created_b);
  const Bytes& v = p->value;
  switch (e.kind) {
    case TransformKind::SplitAdd:
      rng.fill(first->value, v.size());
      add_mod256_into(second->value, v, first->value);
      break;
    case TransformKind::SplitSub:
      rng.fill(first->value, v.size());
      sub_mod256_into(second->value, v, first->value);
      break;
    case TransformKind::SplitXor:
      rng.fill(first->value, v.size());
      xor_bytes_into(second->value, v, first->value);
      break;
    case TransformKind::SplitCat: {
      if (v.size() < e.split_point) {
        return exec_fail(e, "value shorter than split point");
      }
      first->value.assign(
          v.begin(), v.begin() + static_cast<std::ptrdiff_t>(e.split_point));
      second->value.assign(
          v.begin() + static_cast<std::ptrdiff_t>(e.split_point), v.end());
      break;
    }
    default:
      return exec_fail(e, "not a split");
  }
  InstPtr seq = ast::make(pool, e.created_seq);
  seq->children.reserve(2);
  seq->children.push_back(std::move(first));
  seq->children.push_back(std::move(second));
  p = std::move(seq);
  return Status::success();
}

Status inverse_split(InstPtr& p, const AppliedTransform& e, InstPool* pool) {
  if (p->children.size() != 2) {
    return exec_fail(e, "split sequence without two halves");
  }
  const Bytes& a = p->children[0]->value;
  const Bytes& b = p->children[1]->value;
  if (e.kind != TransformKind::SplitCat && a.size() != b.size()) {
    return exec_fail(e, "split halves of unequal size");
  }
  InstPtr merged = ast::make(pool, e.target);
  switch (e.kind) {
    case TransformKind::SplitAdd: sub_mod256_into(merged->value, b, a); break;
    case TransformKind::SplitSub: add_mod256_into(merged->value, b, a); break;
    case TransformKind::SplitXor: xor_bytes_into(merged->value, b, a); break;
    case TransformKind::SplitCat:
      merged->value.assign(a.begin(), a.end());
      append(merged->value, b);
      break;
    default: return exec_fail(e, "not a split");
  }
  p = std::move(merged);
  return Status::success();
}

void forward_const(Inst& p, const AppliedTransform& e) {
  switch (e.kind) {
    case TransformKind::ConstAdd: add_key_in(p.value, e.key); break;
    case TransformKind::ConstSub: sub_key_in(p.value, e.key); break;
    case TransformKind::ConstXor: xor_key_in(p.value, e.key); break;
    default: break;
  }
}

void inverse_const(Inst& p, const AppliedTransform& e) {
  switch (e.kind) {
    case TransformKind::ConstAdd: sub_key_in(p.value, e.key); break;
    case TransformKind::ConstSub: add_key_in(p.value, e.key); break;
    case TransformKind::ConstXor: xor_key_in(p.value, e.key); break;
    default: break;
  }
}

Status forward_boundary_change(InstPtr& p, const AppliedTransform& e,
                               InstPool* pool) {
  // Width-correct placeholder; the real value is set by the holder fixpoint
  // (runtime/derive) once the final wire size of the data child is known.
  InstPtr length = ast::make(pool, e.created_a);
  if (e.len_ascii) {
    ascii_dec_encode_into(length->value, 0, e.len_width);
  } else {
    length->value.assign(e.len_width, 0);
  }
  InstPtr seq = ast::make(pool, e.created_seq);
  seq->children.reserve(2);
  seq->children.push_back(std::move(length));
  seq->children.push_back(std::move(p));
  p = std::move(seq);
  return Status::success();
}

Status inverse_boundary_change(InstPtr& p, const AppliedTransform& e) {
  if (p->children.size() != 2 || p->children[1]->schema != e.target) {
    return exec_fail(e, "unexpected boundary-change shape");
  }
  p = std::move(p->children[1]);
  return Status::success();
}

Status forward_pad(Inst& p, const AppliedTransform& e, Rng& rng,
                   InstPool* pool) {
  if (e.pad_index > p.children.size()) {
    return exec_fail(e, "pad index out of range");
  }
  InstPtr pad = ast::make(pool, e.created_a);
  rng.fill(pad->value, e.pad_size);
  p.children.insert(
      p.children.begin() + static_cast<std::ptrdiff_t>(e.pad_index),
      std::move(pad));
  return Status::success();
}

Status inverse_pad(Inst& p, const AppliedTransform& e) {
  if (e.pad_index >= p.children.size() ||
      p.children[e.pad_index]->schema != e.created_a) {
    return exec_fail(e, "pad not found at recorded index");
  }
  p.children.erase(p.children.begin() +
                   static_cast<std::ptrdiff_t>(e.pad_index));
  return Status::success();
}

Status forward_group_split(InstPtr& p, const AppliedTransform& e,
                           NodeId cnt_node, NodeId t1_node, NodeId t2_node,
                           NodeId rest_node, InstPool* pool) {
  std::vector<InstPtr> elements = std::move(p->children);
  InstPtr firsts = ast::make(pool, t1_node);
  InstPtr seconds = ast::make(pool, t2_node);
  firsts->children.reserve(elements.size());
  seconds->children.reserve(elements.size());
  for (InstPtr& element : elements) {
    if (element->children.size() < 2) {
      return exec_fail(e, "element with fewer than two children");
    }
    firsts->children.push_back(std::move(element->children[0]));
    if (rest_node == kNoNode) {
      seconds->children.push_back(std::move(element->children[1]));
    } else {
      InstPtr rest = ast::make(pool, rest_node);
      rest->children.reserve(element->children.size() - 1);
      for (std::size_t i = 1; i < element->children.size(); ++i) {
        rest->children.push_back(std::move(element->children[i]));
      }
      seconds->children.push_back(std::move(rest));
    }
  }
  const std::size_t m = firsts->children.size();
  InstPtr seq = ast::make(pool, e.created_seq);
  seq->children.reserve(cnt_node != kNoNode ? 3 : 2);
  if (cnt_node != kNoNode) {
    InstPtr cnt = ast::make(pool, cnt_node);
    be_encode_into(cnt->value, static_cast<std::uint64_t>(m), 2);
    seq->children.push_back(std::move(cnt));
  }
  seq->children.push_back(std::move(firsts));
  seq->children.push_back(std::move(seconds));
  p = std::move(seq);
  return Status::success();
}

Status inverse_group_split(InstPtr& p, const AppliedTransform& e, bool has_cnt,
                           NodeId rest_node, InstPool* pool) {
  const std::size_t expected = has_cnt ? 3 : 2;
  if (p->children.size() != expected) {
    return exec_fail(e, "unexpected group-split shape");
  }
  Inst& t1 = *p->children[expected - 2];
  Inst& t2 = *p->children[expected - 1];
  if (t1.children.size() != t2.children.size()) {
    return exec_fail(e, "tabular halves with different element counts");
  }
  InstPtr merged = ast::make(pool, e.target);
  merged->children.reserve(t1.children.size());
  for (std::size_t k = 0; k < t1.children.size(); ++k) {
    InstPtr element = ast::make(pool, e.element);
    element->children.reserve(rest_node == kNoNode
                                  ? 2
                                  : 1 + t2.children[k]->children.size());
    element->children.push_back(std::move(t1.children[k]));
    if (rest_node == kNoNode) {
      element->children.push_back(std::move(t2.children[k]));
    } else {
      Inst& rest = *t2.children[k];
      for (auto& sub : rest.children) {
        element->children.push_back(std::move(sub));
      }
    }
    merged->children.push_back(std::move(element));
  }
  p = std::move(merged);
  return Status::success();
}

Status forward_child_move(Inst& p, const AppliedTransform& e) {
  const auto i = static_cast<std::size_t>(e.child_i);
  const auto j = static_cast<std::size_t>(e.child_j);
  if (j >= p.children.size()) {
    return exec_fail(e, "swap index out of range");
  }
  std::swap(p.children[i], p.children[j]);
  return Status::success();
}

// --- generic traversal ------------------------------------------------------

/// Applies `op` at each instance whose schema equals `match`, bottom-first
/// is not needed: an instance of `match` can never nest inside another one.
template <typename Op>
Status for_each_match(InstPtr& p, NodeId match, Op&& op) {
  if (p->schema == match) return op(p);
  if (!p->present) return Status::success();
  for (InstPtr& child : p->children) {
    if (Status s = for_each_match(child, match, op); !s) return s;
  }
  return Status::success();
}

// Applies one τi to every matching instance in the tree.
Status forward_entry(InstPtr& root, const AppliedTransform& entry, Rng& rng,
                     InstPool* pool) {
  switch (entry.kind) {
    case TransformKind::SplitAdd:
    case TransformKind::SplitSub:
    case TransformKind::SplitXor:
    case TransformKind::SplitCat:
      return for_each_match(root, entry.target, [&](InstPtr& p) {
        return forward_split(p, entry, rng, pool);
      });
    case TransformKind::ConstAdd:
    case TransformKind::ConstSub:
    case TransformKind::ConstXor:
      return for_each_match(root, entry.target, [&](InstPtr& p) {
        forward_const(*p, entry);
        return Status::success();
      });
    case TransformKind::BoundaryChange:
      return for_each_match(root, entry.target, [&](InstPtr& p) {
        return forward_boundary_change(p, entry, pool);
      });
    case TransformKind::PadInsert:
      return for_each_match(root, entry.target, [&](InstPtr& p) {
        return forward_pad(*p, entry, rng, pool);
      });
    case TransformKind::ReadFromEnd:
      return Status::success();  // handled at emission/parse time
    case TransformKind::TabSplit:
      return for_each_match(root, entry.target, [&](InstPtr& p) {
        return forward_group_split(p, entry, kNoNode, entry.created_a,
                                   entry.created_b, entry.created_c, pool);
      });
    case TransformKind::RepSplit:
      return for_each_match(root, entry.target, [&](InstPtr& p) {
        return forward_group_split(p, entry, entry.created_a, entry.created_b,
                                   entry.created_c, entry.created_d, pool);
      });
    case TransformKind::ChildMove:
      return for_each_match(root, entry.target, [&](InstPtr& p) {
        return forward_child_move(*p, entry);
      });
  }
  return Status::success();
}

// Applies τi⁻¹ to every matching instance in the tree.
Status inverse_entry(InstPtr& root, const AppliedTransform& entry,
                     InstPool* pool) {
  switch (entry.kind) {
    case TransformKind::SplitAdd:
    case TransformKind::SplitSub:
    case TransformKind::SplitXor:
    case TransformKind::SplitCat:
      return for_each_match(root, entry.created_seq, [&](InstPtr& p) {
        return inverse_split(p, entry, pool);
      });
    case TransformKind::ConstAdd:
    case TransformKind::ConstSub:
    case TransformKind::ConstXor:
      return for_each_match(root, entry.target, [&](InstPtr& p) {
        inverse_const(*p, entry);
        return Status::success();
      });
    case TransformKind::BoundaryChange:
      return for_each_match(root, entry.created_seq, [&](InstPtr& p) {
        return inverse_boundary_change(p, entry);
      });
    case TransformKind::PadInsert:
      return for_each_match(root, entry.target, [&](InstPtr& p) {
        return inverse_pad(*p, entry);
      });
    case TransformKind::ReadFromEnd:
      return Status::success();
    case TransformKind::TabSplit:
      return for_each_match(root, entry.created_seq, [&](InstPtr& p) {
        return inverse_group_split(p, entry, /*has_cnt=*/false,
                                   entry.created_c, pool);
      });
    case TransformKind::RepSplit:
      return for_each_match(root, entry.created_seq, [&](InstPtr& p) {
        return inverse_group_split(p, entry, /*has_cnt=*/true,
                                   entry.created_d, pool);
      });
    case TransformKind::ChildMove:
      return for_each_match(root, entry.target, [&](InstPtr& p) {
        return forward_child_move(*p, entry);  // swap is its own inverse
      });
  }
  return Status::success();
}

}  // namespace

Status forward_all(InstPtr& root, const Journal& journal, Rng& rng,
                   InstPool* pool) {
  for (const AppliedTransform& entry : journal) {
    if (Status s = forward_entry(root, entry, rng, pool); !s) return s;
  }
  return Status::success();
}

Status inverse_all(InstPtr& root, const Journal& journal, InstPool* pool) {
  for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
    if (Status s = inverse_entry(root, *it, pool); !s) return s;
  }
  return Status::success();
}

Expected<InstPtr> invert_chain(const Inst& holder_subtree,
                               const Journal& journal,
                               const std::vector<std::size_t>& chain,
                               InstPool* pool) {
  InstPtr copy = ast::copy(pool, holder_subtree);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (Status s = inverse_entry(copy, journal[*it], pool); !s) {
      return Unexpected(s.error());
    }
  }
  return copy;
}

Expected<InstPtr> rerun_chain(NodeId origin, BytesView logical_value,
                              const Journal& journal,
                              const std::vector<std::size_t>& chain, Rng& rng,
                              InstPool* pool) {
  InstPtr p = ast::terminal(pool, origin, logical_value);
  for (std::size_t idx : chain) {
    if (Status s = forward_entry(p, journal[idx], rng, pool); !s) {
      return Unexpected(s.error());
    }
  }
  return p;
}

}  // namespace protoobf
