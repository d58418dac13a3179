#pragma once
// Core value types of functional decomposition (paper §2-§4).

#include <cstdint>
#include <vector>

#include "logic/truthtable.hpp"

namespace imodec {

/// Partition of a function's input variables into bound set (BS) and free
/// set (FS); indices refer to the variable numbering of the function vector.
struct VarPartition {
  std::vector<unsigned> bound;
  std::vector<unsigned> free_set;

  unsigned b() const { return static_cast<unsigned>(bound.size()); }
  std::uint64_t num_bs_vertices() const { return std::uint64_t{1} << b(); }

  /// Variable order of the decomposition chart (Def. 1, Fig. 2): the free
  /// set low, the bound set high, each in its own order.
  std::vector<unsigned> chart_order() const;
  /// `f` in chart order, so the column of BS vertex x is the slice of rows
  /// [x << |FS|, (x + 1) << |FS|).
  TruthTable chart(const TruthTable& f) const;
};

/// A partition of the 2^b bound-set vertices into classes 0..num_classes-1.
/// Used both for local compatibility partitions Π_f (classes = "local
/// classes") and the global partition Π̂ (classes = "global classes").
struct VertexPartition {
  unsigned b = 0;
  std::uint32_t num_classes = 0;
  std::vector<std::uint32_t> class_of;  // size 2^b

  std::uint64_t num_vertices() const { return std::uint64_t{1} << b; }

  /// True iff *this refines `coarser`: every class of *this lies inside one
  /// class of `coarser` (paper §2).
  bool refines(const VertexPartition& coarser) const;

  /// Product partition (smallest common refinement, paper §2). Classes are
  /// renumbered in first-occurrence order over vertex index.
  static VertexPartition product(const std::vector<const VertexPartition*>& parts);

  /// Vertices of each class.
  std::vector<std::vector<std::uint32_t>> members() const;
};

/// Codewidth c = ⌈ld ℓ⌉ (paper §3); 0 for ℓ == 1.
unsigned codewidth(std::uint32_t num_classes);

}  // namespace imodec
