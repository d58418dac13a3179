#include "decomp/single.hpp"

#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/resource.hpp"

namespace imodec {

TruthTable build_g(const TruthTable& f, const VarPartition& vp,
                   const std::vector<TruthTable>& chosen_d) {
  const unsigned b = vp.b();
  const unsigned c = static_cast<unsigned>(chosen_d.size());
  const unsigned nf = static_cast<unsigned>(vp.free_set.size());
  assert(c + nf <= TruthTable::kMaxVars);

  // Code of each BS vertex under the chosen d functions.
  const std::uint64_t num_vertices = std::uint64_t{1} << b;
  std::vector<std::uint32_t> code_of(num_vertices);
  for (std::uint64_t x = 0; x < num_vertices; ++x) {
    std::uint32_t code = 0;
    for (unsigned j = 0; j < c; ++j)
      if (chosen_d[j].eval(x)) code |= 1u << j;
    code_of[x] = code;
  }

  // g(code, y) is row y of the chart column of the code's first vertex;
  // vertices with the same code must be compatible (Decomposition Condition
  // 1) — asserted below. Unused codes stay 0.
  const std::uint64_t num_codes = std::uint64_t{1} << c;
  const TruthTable chart = vp.chart(f);
  TruthTable g(c + nf);
  std::vector<bool> filled(num_codes, false);
  for (std::uint64_t x = 0; x < num_vertices; ++x) {
    if (filled[code_of[x]]) continue;
    filled[code_of[x]] = true;
    for (std::uint64_t y = 0; y < (std::uint64_t{1} << nf); ++y)
      g.set(code_of[x] | (y << c), chart.get((x << nf) | y));
  }

#ifndef NDEBUG
  // Decomposition Condition 1: same code => compatible columns.
  const VertexPartition pf = local_partition_tt(f, vp);
  std::vector<std::uint32_t> class_of_code(num_codes, 0xffffffffu);
  for (std::uint64_t x = 0; x < num_vertices; ++x) {
    auto& cc = class_of_code[code_of[x]];
    assert(cc == 0xffffffffu || cc == pf.class_of[x]);
    cc = pf.class_of[x];
  }
#endif
  return g;
}

Decomposition decompose_single_output(const TruthTable& f,
                                      const VarPartition& vp,
                                      util::ResourceGuard* guard) {
  obs::ScopedSpan span("single.decompose");
  if (guard) guard->checkpoint();
  const VertexPartition pf = local_partition_tt(f, vp);
  const unsigned c = codewidth(pf.num_classes);
  const unsigned b = vp.b();

  Decomposition result;
  result.vp = vp;
  result.outputs.resize(1);

  // Strict encoding: class i -> code i; d_j(x) = bit j of class index.
  for (unsigned j = 0; j < c; ++j) {
    if (guard) guard->checkpoint();
    TruthTable dj(b);
    for (std::uint64_t x = 0; x < pf.num_vertices(); ++x)
      dj.set(x, (pf.class_of[x] >> j) & 1);
    result.d_funcs.push_back(std::move(dj));
    result.outputs[0].d_index.push_back(j);
  }
  if (guard) guard->checkpoint();
  result.outputs[0].g = build_g(f, vp, result.d_funcs);
  if (obs::enabled()) {
    obs::count("single.decompositions");
    obs::count("single.d_functions", c);
  }
  return result;
}

TruthTable recompose(const Decomposition& decomp, std::size_t output_index,
                     unsigned original_num_vars) {
  const auto& plan = decomp.outputs[output_index];
  const VarPartition& vp = decomp.vp;
  const unsigned c = static_cast<unsigned>(plan.d_index.size());
  const unsigned nf = static_cast<unsigned>(vp.free_set.size());

  // Row y of f's chart column x is g(code of x, y); then back to the
  // original variables.
  TruthTable chart(nf + vp.b());
  for (std::uint64_t x = 0; x < vp.num_bs_vertices(); ++x) {
    std::uint64_t code = 0;
    for (unsigned j = 0; j < c; ++j)
      if (decomp.d_funcs[plan.d_index[j]].eval(x)) code |= std::uint64_t{1} << j;
    for (std::uint64_t y = 0; y < (std::uint64_t{1} << nf); ++y)
      chart.set((x << nf) | y, plan.g.get(code | (y << c)));
  }
  const std::vector<unsigned> order = vp.chart_order();
  std::vector<unsigned> back(original_num_vars, TruthTable::kNoVar);
  for (unsigned i = 0; i < order.size(); ++i) back[order[i]] = i;
  return chart.permute(back);
}

}  // namespace imodec
