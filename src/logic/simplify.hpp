#pragma once
// Network cleanup: constant propagation, vacuous-fanin removal, identity
// collapsing, and structural deduplication.
//
// Used by the restructuring pass and the CLI before mapping; decomposition
// benefits because node supports match true supports.

#include "logic/network.hpp"

namespace imodec {

struct SimplifyStats {
  std::size_t constants_folded = 0;   // fanins replaced by constants
  std::size_t fanins_dropped = 0;     // vacuous (non-support) and repeated
                                      // fanins removed
  std::size_t nodes_deduped = 0;      // structurally identical nodes merged
  std::size_t identities_bypassed = 0;  // single-input identity nodes

  std::size_t total() const {
    return constants_folded + fanins_dropped + nodes_deduped +
           identities_bypassed;
  }
};

/// Simplify in place (node ids stay valid; replaced nodes become dangling
/// and are reclaimed by sweep()). Runs to a fixpoint. Returns what happened.
SimplifyStats simplify(Network& net);

}  // namespace imodec
