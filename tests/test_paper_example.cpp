// End-to-end walk of the paper's running example (Examples 1-7, Figs. 2-5):
// partitions, preferable functions, the Lmax choice, and the final shared
// decomposition of the two-output vector (f1, f2).

#include <gtest/gtest.h>

#include "decomp/classes.hpp"
#include "decomp/single.hpp"
#include "imodec/chi.hpp"
#include "imodec/engine.hpp"
#include "imodec/lmax.hpp"
#include "paper_fixtures.hpp"

namespace imodec {
namespace {

using bdd::Bdd;
using bdd::Manager;
using testfix::paper_f1;
using testfix::paper_f2;
using testfix::paper_vp;
using testfix::vx;

struct Example : ::testing::Test {
  TruthTable f1 = paper_f1();
  TruthTable f2 = paper_f2();
  VarPartition vp = paper_vp();
  VertexPartition l1 = local_partition_tt(f1, vp);
  VertexPartition l2 = local_partition_tt(f2, vp);
  VertexPartition global = global_partition({l1, l2});

  OutputState state_for(const VertexPartition& local) const {
    OutputState st;
    st.codewidth = codewidth(local.num_classes);
    st.blocks.resize(1);
    for (std::uint32_t g = 0; g < global.num_classes; ++g)
      st.blocks[0].push_back(g);
    st.local_of_global.resize(global.num_classes);
    for (std::uint64_t v = 0; v < global.num_vertices(); ++v)
      st.local_of_global[global.class_of[v]] = local.class_of[v];
    return st;
  }
};

TEST_F(Example, Fig5CoveringTableHasTwoSharedVertices) {
  Manager mgr(5);
  const Bdd chi1 = build_chi(mgr, 5, state_for(l1));
  const Bdd chi2 = build_chi(mgr, 5, state_for(l2));
  const Bdd shared = chi1 & chi2;
  // Fig. 5 / Example 6: exactly two z-vertices lie in both onsets.
  EXPECT_DOUBLE_EQ(shared.sat_count(), 2.0);
  // One of them is the paper's chosen vertex {G2,G3,G4} (0-indexed mask
  // 01110); the other is {G4,G5} (mask 11000; the paper's Example 5 lists
  // {G3,G4,G5} instead, which violates its own condition C0 — see the note
  // in test_chi.cpp and EXPERIMENTS.md).
  std::vector<bool> a(5, false);
  a[1] = a[2] = a[3] = true;
  EXPECT_TRUE(shared.eval(a));
  a[1] = a[2] = false;
  a[4] = true;
  EXPECT_TRUE(shared.eval(a));
}

TEST_F(Example, LmaxPicksADoublyPreferableFunction) {
  Manager mgr(5);
  const std::vector<Bdd> chis{build_chi(mgr, 5, state_for(l1)),
                              build_chi(mgr, 5, state_for(l2))};
  const LmaxResult pick = lmax(mgr, 5, chis);
  EXPECT_EQ(pick.coverage, 2u);
  EXPECT_TRUE(pick.covers[0]);
  EXPECT_TRUE(pick.covers[1]);
  EXPECT_TRUE(pick.z_mask == 0b01110u || pick.z_mask == 0b11000u)
      << pick.z_mask;
}

TEST_F(Example, Example6FunctionFromChosenVertex) {
  // The chosen vertex {G2,G3,G4} is the function with onset G2 ∪ G3 ∪ G4 =
  // {001,010,100} ∪ {110} ∪ {011,101}. (Example 6's printed SOP covers only
  // four vertices and is not a union of global classes — another typo; the
  // d1 of Example 3, x̄1x3 + x2x̄3 + x1x̄2, covers exactly these six vertices
  // and confirms the set.)
  TruthTable d(3);
  for (std::uint64_t x = 0; x < 8; ++x)
    d.set(x, (0b01110u >> global.class_of[x]) & 1);
  for (const char* v : {"001", "010", "100", "110", "011", "101"})
    EXPECT_TRUE(d.eval(vx(v))) << v;
  for (const char* v : {"000", "111"})
    EXPECT_FALSE(d.eval(vx(v))) << v;
  // Cross-check against the paper's Example 3 d1 SOP.
  for (std::uint64_t x = 0; x < 8; ++x) {
    const bool x1 = x & 1, x2 = (x >> 1) & 1, x3 = (x >> 2) & 1;
    const bool d1 = (!x1 && x3) || (x2 && !x3) || (x1 && !x2);
    EXPECT_EQ(d.eval(x), d1) << x;
  }
}

TEST_F(Example, GreedyLoopTerminatesWithThreeFunctions) {
  // Example 7: after the shared pick, each output needs one more function;
  // the final result uses q = 3 functions (optimal by Property 1: p = 5).
  ImodecStats stats;
  const auto dec = decompose_multi_output({f1, f2}, vp, {}, &stats);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->q(), 3u);
  EXPECT_EQ(stats.lmax_rounds, 3u);  // 1 shared + 1 per output

  // The shared function appears in both outputs' d lists.
  const auto& i0 = dec->outputs[0].d_index;
  const auto& i1 = dec->outputs[1].d_index;
  bool shares = false;
  for (unsigned a : i0)
    for (unsigned b : i1) shares |= (a == b);
  EXPECT_TRUE(shares);
}

TEST_F(Example, AllChosenFunctionsAreConstructable) {
  const auto dec = decompose_multi_output({f1, f2}, vp);
  ASSERT_TRUE(dec.has_value());
  // Constructability (Def. 3): each global class entirely in onset or offset.
  const auto members = global.members();
  for (const TruthTable& d : dec->d_funcs) {
    for (const auto& cls : members) {
      const bool first = d.eval(cls.front());
      for (std::uint32_t v : cls) EXPECT_EQ(d.eval(v), first);
    }
  }
}

TEST_F(Example, DecompositionCondition2Holds) {
  // For each output, the product of its chosen d partitions refines Π_f.
  const auto dec = decompose_multi_output({f1, f2}, vp);
  ASSERT_TRUE(dec.has_value());
  const VertexPartition* locals[2] = {&l1, &l2};
  for (int k = 0; k < 2; ++k) {
    std::vector<VertexPartition> d_parts;
    for (unsigned idx : dec->outputs[k].d_index) {
      VertexPartition part;
      part.b = 3;
      part.num_classes = 2;
      part.class_of.resize(8);
      for (std::uint64_t v = 0; v < 8; ++v)
        part.class_of[v] = dec->d_funcs[idx].eval(v);
      d_parts.push_back(std::move(part));
    }
    std::vector<const VertexPartition*> ptrs;
    for (const auto& pp : d_parts) ptrs.push_back(&pp);
    const VertexPartition prod = VertexPartition::product(ptrs);
    EXPECT_TRUE(prod.refines(*locals[k])) << "output " << k;
  }
}

TEST_F(Example, Fig1Rd53SingleVsMultiSharing) {
  // Fig. 1 shows rd53 (5 inputs, 3 outputs) with k = 4: single-output
  // decomposition needs more bound-set functions than multiple-output
  // decomposition, which shares all of them. Reproduce the functional core:
  // with BS = 4 of the 5 inputs, the three popcount outputs share d's.
  TruthTable s0(5), s1(5), s2(5);
  for (std::uint64_t row = 0; row < 32; ++row) {
    const unsigned ones = __builtin_popcountll(row);
    s0.set(row, ones & 1);
    s1.set(row, (ones >> 1) & 1);
    s2.set(row, (ones >> 2) & 1);
  }
  VarPartition vp4;
  vp4.bound = {0, 1, 2, 3};
  vp4.free_set = {4};
  const std::vector<TruthTable> fs{s0, s1, s2};
  ImodecStats stats;
  const auto dec = decompose_multi_output(fs, vp4, {}, &stats);
  ASSERT_TRUE(dec.has_value());
  const unsigned singles = sum_codewidths(fs, vp4);
  EXPECT_LT(dec->q(), singles);  // sharing must help on rd53
  for (int k = 0; k < 3; ++k) EXPECT_EQ(recompose(*dec, k, 5), fs[k]);
}

}  // namespace
}  // namespace imodec
