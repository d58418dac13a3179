#pragma once
// Implicit Lmax (paper §6, after Kam et al. [14]): given the characteristic
// functions χ_k(z) of all still-incomplete outputs, find a z-vertex lying in
// the onset of a maximum number of them — a decomposition function preferable
// for the maximum number of outputs — without enumerating functions.
//
// Implementation: branch and bound over the tuple of χ cofactors in the
// caller's manager, creating no nodes: split on the tuple's top variable,
// 0-branch first; skip a branch whose non-zero members cannot beat the floor
// (fail-soft); memoize results on the sorted tuple of non-constant NodeIds.
// A second walk takes the 0-branch whenever it still reaches the maximum, so
// ties go to the lexicographically smallest maximizer (z_0 first, 0 before
// 1). The search polls the manager's ResourceGuard, so a deadline or
// cancellation surfaces as util::Timeout / util::ResourceExhausted from
// inside the call.

#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"

namespace imodec {

struct LmaxResult {
  /// Chosen z-vertex as a bitmask over global classes (bit i == z_i).
  std::uint64_t z_mask = 0;
  /// How many of the given χ functions contain the vertex.
  unsigned coverage = 0;
  /// Which χ functions contain it.
  std::vector<bool> covers;
};

/// `chis` must be non-empty, all in `mgr`, over z variables 0..p-1 (p <= 64).
/// At least one χ must be satisfiable; coverage is then >= 1.
LmaxResult lmax(bdd::Manager& mgr, std::uint32_t p,
                const std::vector<bdd::Bdd>& chis);

/// Explicit reference implementation: enumerate all 2^p z-vertices of the
/// covering table (Fig. 5) and pick a maximum-coverage column. Requires
/// p <= 24; used by the tests to validate the implicit version.
LmaxResult lmax_explicit(bdd::Manager& mgr, std::uint32_t p,
                         const std::vector<bdd::Bdd>& chis);

}  // namespace imodec
