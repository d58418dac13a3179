#pragma once
// Local compatibility partitions and the global partition (paper §3, §4).
//
// Two bound-set vertices are compatible for output f iff all their
// decomposition-chart columns agree (Def. 1); the equivalence classes are the
// local classes, and their product over all outputs is the global partition
// (Def. 2). The flow computes local partitions from truth tables;
// tests/test_classes.cpp cross-checks them against a BDD-cofactor oracle.

#include "decomp/types.hpp"

namespace imodec {

/// Local compatibility partition Π_f of `f` under `vp` via decomposition-
/// chart columns. Classes are numbered in first-occurrence order over the
/// BS-vertex index, so results are deterministic.
VertexPartition local_partition_tt(const TruthTable& f, const VarPartition& vp);

/// Global partition Π̂ = Π_{f1} · ... · Π_{fm} (Def. 2).
VertexPartition global_partition(const std::vector<VertexPartition>& locals);

/// For each local class of `local`, the sorted set of global classes it
/// contains (every local class is a union of global classes since the global
/// partition refines every local one).
std::vector<std::vector<std::uint32_t>> local_to_global(
    const VertexPartition& local, const VertexPartition& global);

}  // namespace imodec
