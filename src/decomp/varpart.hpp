#pragma once
// Bound-set (variable partitioning) selection heuristic.
//
// The paper solves variable partitioning with the heuristic of [15] (an
// unavailable workshop paper); per DESIGN.md we substitute our own: exhaustive
// enumeration of bound sets for small supports, seeded sampling plus
// hill-climbing swaps otherwise. The objective mirrors the paper's discussion
// in §4/§7: primarily minimize the number p of global classes (more sharing
// potential, Property 1 lower bound), tie-broken by the sum of local class
// counts, requiring a non-trivial decomposition (c_k < b) for every output.

#include <cstdint>
#include <optional>

#include "decomp/classes.hpp"
#include "decomp/types.hpp"

namespace imodec::util {
class ResourceGuard;
class ThreadPool;
}  // namespace imodec::util

namespace imodec {

struct VarPartOptions {
  unsigned bound_size = 5;          // b; clamped to n-1
  std::size_t max_exhaustive = 4096;  // enumerate all C(n,b) up to this many
  std::size_t samples = 64;           // random candidates otherwise
  std::size_t climb_iters = 48;       // swap-improvement steps
  /// Total row-evaluation budget for the search; one candidate costs
  /// m * 2^n rows, so wide vectors automatically get fewer candidates.
  /// Integral on purpose: the candidate-cost math stays exact (and clamps)
  /// instead of drifting through doubles on huge supports.
  std::uint64_t eval_budget = std::uint64_t{1} << 24;
  std::uint64_t seed = 0xB0D5ull;
  /// Evaluate candidate bound sets in parallel on this pool (not owned;
  /// nullptr = serial). The chosen bound set is identical either way: the
  /// candidate list is generated up front and reduced in candidate order.
  util::ThreadPool* pool = nullptr;
  /// Require strict progress for every output: the bound set must overlap
  /// output k's support in more than c_k variables, so replacing f_k by its
  /// g strictly shrinks the support (c_k + |FS ∩ sup| < |sup|). For a
  /// full-support single output this reduces to the classical c < b. If no
  /// candidate satisfies this, choose_bound_set returns nullopt.
  bool require_nontrivial = true;
  /// Resource governance (not owned; nullptr = ungoverned). Checkpointed
  /// once per candidate evaluation; a deadline/cancellation trip in any
  /// worker unwinds the whole search through parallel_for (DESIGN.md §12).
  util::ResourceGuard* guard = nullptr;
};

struct VarPartChoice {
  VarPartition vp;
  VertexPartition global;                 // Π̂ for the chosen bound set
  std::vector<VertexPartition> locals;    // Π_{f_k}
  std::uint32_t p() const { return global.num_classes; }
};

/// Choose a bound set of size opts.bound_size for the function vector
/// `outputs` (all over the same `num_vars` variables). Returns nullopt if no
/// candidate yields a non-trivial decomposition for every output.
std::optional<VarPartChoice> choose_bound_set(
    const std::vector<TruthTable>& outputs, unsigned num_vars,
    const VarPartOptions& opts = {});

}  // namespace imodec
