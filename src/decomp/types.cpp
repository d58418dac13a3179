#include "decomp/types.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "util/combinatorics.hpp"

namespace imodec {

std::vector<unsigned> VarPartition::chart_order() const {
  std::vector<unsigned> order = free_set;
  order.insert(order.end(), bound.begin(), bound.end());
  return order;
}

TruthTable VarPartition::chart(const TruthTable& f) const {
  return f.permute(chart_order());
}

bool VertexPartition::refines(const VertexPartition& coarser) const {
  assert(b == coarser.b);
  // Each of our classes must map into exactly one coarser class.
  std::vector<std::uint32_t> image(num_classes, 0xffffffffu);
  for (std::uint64_t v = 0; v < num_vertices(); ++v) {
    const std::uint32_t mine = class_of[v];
    const std::uint32_t theirs = coarser.class_of[v];
    if (image[mine] == 0xffffffffu) {
      image[mine] = theirs;
    } else if (image[mine] != theirs) {
      return false;
    }
  }
  return true;
}

VertexPartition VertexPartition::product(
    const std::vector<const VertexPartition*>& parts) {
  assert(!parts.empty());
  VertexPartition result;
  result.b = parts.front()->b;
  const std::uint64_t n = result.num_vertices();
  result.class_of.assign(n, 0);
  result.num_classes = 1;

  // Fold the factors in one at a time: each vertex's exact (class so far,
  // factor class) pair gets a new id in first-occurrence order over vertex
  // index. Distinct pairs are distinct class tuples, so the final ids are
  // the first-occurrence numbering of the full tuples. Pair ids live in a
  // flat classes x ℓ table while it stays small (the common case) and in a
  // hash map keyed on the packed pair otherwise, so a wide bound set never
  // allocates 2^(2b) slots.
  constexpr std::uint32_t kUnseen = 0xffffffffu;
  std::vector<std::uint32_t> flat;
  std::unordered_map<std::uint64_t, std::uint32_t> sparse;
  for (const VertexPartition* p : parts) {
    assert(p->b == result.b);
    const std::uint64_t width = p->num_classes;
    const std::uint64_t cells = result.num_classes * width;
    const bool use_flat = cells <= std::max<std::uint64_t>(4 * n, 4096);
    if (use_flat)
      flat.assign(cells, kUnseen);
    else
      sparse.clear();
    std::uint32_t next_id = 0;
    for (std::uint64_t v = 0; v < n; ++v) {
      const std::uint64_t pair = result.class_of[v] * width + p->class_of[v];
      std::uint32_t& id = use_flat
                              ? flat[pair]
                              : sparse.try_emplace(pair, kUnseen).first->second;
      if (id == kUnseen) id = next_id++;
      result.class_of[v] = id;
    }
    result.num_classes = next_id;
  }
  return result;
}

std::vector<std::vector<std::uint32_t>> VertexPartition::members() const {
  std::vector<std::vector<std::uint32_t>> m(num_classes);
  for (std::uint64_t v = 0; v < num_vertices(); ++v)
    m[class_of[v]].push_back(static_cast<std::uint32_t>(v));
  return m;
}

unsigned codewidth(std::uint32_t num_classes) {
  assert(num_classes >= 1);
  return static_cast<unsigned>(ceil_log2(num_classes));
}

}  // namespace imodec
