// Tests for classical single-output decomposition: code assignment,
// g construction, recomposition correctness, and Decomposition Condition 1.

#include <gtest/gtest.h>

#include "decomp/chart.hpp"
#include "decomp/single.hpp"
#include "paper_fixtures.hpp"
#include "util/rng.hpp"

namespace imodec {
namespace {

using testfix::paper_f1;
using testfix::paper_f2;
using testfix::paper_vp;

TEST(SingleDecomp, PaperF1Codewidth) {
  const Decomposition dec = decompose_single_output(paper_f1(), paper_vp());
  // ℓ = 3 -> c = 2 decomposition functions over the 3 bound variables.
  EXPECT_EQ(dec.q(), 2u);
  for (const TruthTable& d : dec.d_funcs) EXPECT_EQ(d.num_vars(), 3u);
  EXPECT_EQ(dec.outputs[0].g.num_vars(), 4u);  // c + |FS| = 2 + 2
}

TEST(SingleDecomp, PaperF1Recomposes) {
  const TruthTable f = paper_f1();
  const Decomposition dec = decompose_single_output(f, paper_vp());
  EXPECT_EQ(recompose(dec, 0, 5), f);
}

TEST(SingleDecomp, PaperF2Recomposes) {
  const TruthTable f = paper_f2();
  const Decomposition dec = decompose_single_output(f, paper_vp());
  EXPECT_EQ(dec.q(), 2u);  // ℓ = 4 -> c = 2
  EXPECT_EQ(recompose(dec, 0, 5), f);
}

TEST(SingleDecomp, ConstantFunctionNeedsNoD) {
  const Decomposition dec =
      decompose_single_output(TruthTable(5, true), paper_vp());
  EXPECT_EQ(dec.q(), 0u);
  EXPECT_EQ(recompose(dec, 0, 5), TruthTable(5, true));
}

TEST(SingleDecomp, FreeOnlyFunctionNeedsNoD) {
  const TruthTable f = TruthTable::var(5, 3) ^ TruthTable::var(5, 4);
  const Decomposition dec = decompose_single_output(f, paper_vp());
  EXPECT_EQ(dec.q(), 0u);
  EXPECT_EQ(recompose(dec, 0, 5), f);
}

TEST(SingleDecomp, TwoClassesNeedOneFunction) {
  // f = (x0 | x1 | x2) & y: two column patterns.
  const TruthTable bs =
      TruthTable::var(5, 0) | TruthTable::var(5, 1) | TruthTable::var(5, 2);
  const TruthTable f = bs & TruthTable::var(5, 3);
  const Decomposition dec = decompose_single_output(f, paper_vp());
  EXPECT_EQ(dec.q(), 1u);
  EXPECT_EQ(recompose(dec, 0, 5), f);
}

TEST(BuildG, RespectsChosenFunctions) {
  // Decompose f1 with hand-picked d functions from the paper's Example 2:
  // the non-strict pair evaluating to codes 00/01/10 plus 11 for vertex 100.
  const TruthTable f = paper_f1();
  // d1 = x1x2x3 + x1~x2~x3 ; d2 = x1~x3 + ~x1x2x3 + x1~x2x3 (paper text).
  TruthTable d1(3), d2(3);
  for (std::uint64_t v = 0; v < 8; ++v) {
    const bool x1 = v & 1, x2 = (v >> 1) & 1, x3 = (v >> 2) & 1;
    d1.set(v, (x1 && x2 && x3) || (x1 && !x2 && !x3));
    d2.set(v, (x1 && !x3) || (!x1 && x2 && x3) || (x1 && !x2 && x3));
  }
  const TruthTable g = build_g(f, paper_vp(), {d1, d2});
  // Verify recomposition by hand.
  for (std::uint64_t input = 0; input < 32; ++input) {
    const std::uint64_t x = input & 7;
    const std::uint64_t y = input >> 3;
    std::uint64_t row = (d1.eval(x) ? 1 : 0) | (d2.eval(x) ? 2 : 0);
    row |= y << 2;
    EXPECT_EQ(g.eval(row), f.eval(input)) << "input " << input;
  }
}

class SingleDecompRandom : public ::testing::TestWithParam<int> {};

TEST_P(SingleDecompRandom, RecomposesRandomFunctions) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  TruthTable f;
  VarPartition vp;
  if (GetParam() < 12) {
    const unsigned n = 5 + GetParam() % 3;  // 5..7 variables
    const unsigned b = 3 + GetParam() % 2;  // bound 3..4
    f = TruthTable(n);
    for (std::uint64_t row = 0; row < f.num_rows(); ++row)
      f.set(row, rng.coin());
    for (unsigned v = 0; v < n; ++v)
      (v < b ? vp.bound : vp.free_set).push_back(v);
  } else {
    // Scattered bound sets, |FS| = 0..12 (twice each), n up to 14.
    auto shape = testfix::random_shape(rng, (GetParam() - 12) % 13);
    f = std::move(shape.f);
    vp = std::move(shape.vp);
  }
  const unsigned n = f.num_vars();
  const Decomposition dec = decompose_single_output(f, vp);
  EXPECT_EQ(recompose(dec, 0, n), f);
  // Codewidth is exactly ⌈ld ℓ⌉.
  const auto part = local_partition_tt(f, vp);
  EXPECT_EQ(dec.q(), codewidth(part.num_classes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleDecompRandom, ::testing::Range(0, 38));

TEST(Chart, RendersPaperChart) {
  const std::string chart = render_chart(paper_f1(), paper_vp());
  // 4 free-set rows + header.
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 5);
  EXPECT_NE(chart.find("000"), std::string::npos);
}

TEST(Chart, RendersPartition) {
  const auto part = local_partition_tt(paper_f1(), paper_vp());
  const std::string s = render_partition(part);
  EXPECT_NE(s.find("Class 1"), std::string::npos);
  EXPECT_NE(s.find("Class 3"), std::string::npos);
  EXPECT_EQ(s.find("Class 4"), std::string::npos);
}

}  // namespace
}  // namespace imodec
