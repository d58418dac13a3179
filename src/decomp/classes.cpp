#include "decomp/classes.hpp"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <unordered_map>

namespace imodec {

VertexPartition local_partition_tt(const TruthTable& f,
                                   const VarPartition& vp) {
  const unsigned nf = static_cast<unsigned>(vp.free_set.size());
  VertexPartition part;
  part.b = vp.b();
  part.class_of.resize(part.num_vertices());

  // Column x is a contiguous slice of the chart: whole words when it spans
  // at least one, otherwise a bit field first extracted into a word of its
  // own. Columns are keyed exactly on those words.
  const TruthTable chart = vp.chart(f);
  const std::uint64_t* words = chart.bits().data();
  const std::size_t col_words = nf >= 6 ? std::size_t{1} << (nf - 6) : 1;
  std::vector<std::uint64_t> narrow;
  if (nf < 6) {
    const std::uint64_t mask = (std::uint64_t{1} << (1u << nf)) - 1;
    narrow.resize(part.num_vertices());
    for (std::uint64_t x = 0; x < part.num_vertices(); ++x)
      narrow[x] = (words[(x << nf) >> 6] >> ((x << nf) & 63)) & mask;
    words = narrow.data();
  }

  std::unordered_map<std::string_view, std::uint32_t> ids;
  for (std::uint64_t x = 0; x < part.num_vertices(); ++x) {
    const std::string_view column(
        reinterpret_cast<const char*>(words + x * col_words),
        col_words * sizeof(std::uint64_t));
    const auto next_id = static_cast<std::uint32_t>(ids.size());
    part.class_of[x] = ids.emplace(column, next_id).first->second;
  }
  part.num_classes = static_cast<std::uint32_t>(ids.size());
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
