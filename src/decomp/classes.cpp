#include "decomp/classes.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace imodec {

VertexPartition local_partition_tt(const TruthTable& f,
                                   const VarPartition& vp) {
  const unsigned b = vp.b();
  const unsigned nf = static_cast<unsigned>(vp.free_set.size());
  assert(b + nf <= f.num_vars() ||
         (b + nf == vp.bound.size() + vp.free_set.size()));

  VertexPartition part;
  part.b = b;
  part.class_of.resize(std::uint64_t{1} << b);

  // Column of BS-vertex x: bits f(x, y) over all FS vertices y. The input
  // index of (x, y) is base[x] | off[y]; both maps are precomputed so the
  // inner loop is two lookups (this is the hottest loop of the flow).
  const std::uint64_t rows = std::uint64_t{1} << nf;
  std::vector<std::uint64_t> base(part.num_vertices(), 0);
  for (std::uint64_t x = 0; x < part.num_vertices(); ++x)
    for (unsigned i = 0; i < b; ++i)
      if ((x >> i) & 1) base[x] |= std::uint64_t{1} << vp.bound[i];
  std::vector<std::uint64_t> off(rows, 0);
  for (std::uint64_t y = 0; y < rows; ++y)
    for (unsigned j = 0; j < nf; ++j)
      if ((y >> j) & 1) off[y] |= std::uint64_t{1} << vp.free_set[j];

  std::unordered_map<BitVec, std::uint32_t, BitVecHash> column_ids;
  std::uint32_t next_id = 0;
  BitVec column(rows);
  for (std::uint64_t x = 0; x < part.num_vertices(); ++x) {
    for (std::uint64_t y = 0; y < rows; ++y)
      column.set(y, f.eval(base[x] | off[y]));
    auto [it, inserted] = column_ids.emplace(column, next_id);
    if (inserted) ++next_id;
    part.class_of[x] = it->second;
  }
  part.num_classes = next_id;
  return part;
}

VertexPartition local_partition_bdd(const bdd::Bdd& f,
                                    const std::vector<unsigned>& bs_vars) {
  const unsigned b = static_cast<unsigned>(bs_vars.size());
  VertexPartition part;
  part.b = b;
  part.class_of.resize(std::uint64_t{1} << b);

  // The cofactor of f w.r.t. a full BS assignment identifies the column
  // pattern; equal BDD nodes == equal columns (canonicity).
  std::unordered_map<bdd::NodeId, std::uint32_t> ids;
  std::uint32_t next_id = 0;
  for (std::uint64_t x = 0; x < part.num_vertices(); ++x) {
    bdd::Bdd cof = f;
    for (unsigned i = 0; i < b; ++i)
      cof = cof.cofactor(bs_vars[i], (x >> i) & 1);
    auto [it, inserted] = ids.emplace(cof.node(), next_id);
    if (inserted) ++next_id;
    part.class_of[x] = it->second;
  }
  part.num_classes = next_id;
  return part;
}

VertexPartition global_partition(const std::vector<VertexPartition>& locals) {
  std::vector<const VertexPartition*> ptrs;
  ptrs.reserve(locals.size());
  for (const auto& l : locals) ptrs.push_back(&l);
  return VertexPartition::product(ptrs);
}

std::vector<std::vector<std::uint32_t>> local_to_global(
    const VertexPartition& local, const VertexPartition& global) {
  assert(global.refines(local));
  std::vector<std::vector<std::uint32_t>> contains(local.num_classes);
  std::vector<bool> seen(global.num_classes, false);
  for (std::uint64_t v = 0; v < local.num_vertices(); ++v) {
    const std::uint32_t g = global.class_of[v];
    if (!seen[g]) {
      seen[g] = true;
      contains[local.class_of[v]].push_back(g);
    }
  }
  for (auto& list : contains) std::sort(list.begin(), list.end());
  return contains;
}

}  // namespace imodec
