#include "transform/journal.hpp"

#include "graph/graph.hpp"

namespace protoobf {

const char* to_string(TransformKind kind) {
  switch (kind) {
    case TransformKind::SplitAdd: return "SplitAdd";
    case TransformKind::SplitSub: return "SplitSub";
    case TransformKind::SplitXor: return "SplitXor";
    case TransformKind::SplitCat: return "SplitCat";
    case TransformKind::ConstAdd: return "ConstAdd";
    case TransformKind::ConstSub: return "ConstSub";
    case TransformKind::ConstXor: return "ConstXor";
    case TransformKind::BoundaryChange: return "BoundaryChange";
    case TransformKind::PadInsert: return "PadInsert";
    case TransformKind::ReadFromEnd: return "ReadFromEnd";
    case TransformKind::TabSplit: return "TabSplit";
    case TransformKind::RepSplit: return "RepSplit";
    case TransformKind::ChildMove: return "ChildMove";
  }
  return "?";
}

std::string AppliedTransform::describe(const Graph& graph) const {
  std::string out = to_string(kind);
  out += " on '";
  out += graph.node(target).name;
  out += "'";
  switch (kind) {
    case TransformKind::SplitCat:
      out += " at offset " + std::to_string(split_point);
      break;
    case TransformKind::PadInsert:
      out += " (" + std::to_string(pad_size) + " bytes at index " +
             std::to_string(pad_index) + ")";
      break;
    case TransformKind::ChildMove:
      out += " (children " + std::to_string(child_i) + " <-> " +
             std::to_string(child_j) + ")";
      break;
    default:
      break;
  }
  return out;
}

}  // namespace protoobf
