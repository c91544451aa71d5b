#include "runtime/workspace.hpp"

namespace protoobf {

void Workspace::shrink() {
  wire_ = Bytes();
  frame_ = Bytes();
  scratch_.shrink();
  scopes_ = ScopeChain();
  derive_ = DeriveScratch();
  nodes_.shrink();
}

}  // namespace protoobf
