// Tests for the LUT decomposition flow: k-feasibility, functional
// equivalence with the source network, sharing gains of the multi-output
// mode, Shannon fallback, collapse, and restructuring.

#include <gtest/gtest.h>

#include <string>

#include "circuits/generators.hpp"
#include "circuits/registry.hpp"
#include "logic/simulate.hpp"
#include "map/lutflow.hpp"
#include "map/restructure.hpp"
#include "util/rng.hpp"

namespace imodec {
namespace {

void expect_k_feasible(const Network& net, unsigned k) {
  for (SigId s = 0; s < net.node_count(); ++s) {
    const auto& n = net.node(s);
    if (n.kind == Network::Kind::Logic) {
      EXPECT_LE(n.fanins.size(), k) << "node " << s;
    }
  }
}

TEST(Collapse, Rd53BecomesThreeNodes) {
  const Network rd53 = circuits::make_rd(5, 3);
  const auto collapsed = collapse_network(rd53);
  ASSERT_TRUE(collapsed.has_value());
  EXPECT_EQ(collapsed->logic_count(), 3u);
  EXPECT_TRUE(check_equivalence(rd53, *collapsed).equivalent);
}

TEST(Collapse, FailsBeyondTruthTableLimit) {
  const Network rot = circuits::make_rot();  // 128-bit data cones
  EXPECT_FALSE(collapse_network(rot).has_value());
}

TEST(LutFlow, Rd53MultiOutputK4MatchesFig1) {
  // Fig. 1 b): multiple-output decomposition of rd53 with k = 4 implements
  // the circuit in 6 LUTs (3 shared d-functions + 3 g-functions); the
  // single-output version a) needs 11.
  const auto collapsed = collapse_network(circuits::make_rd(5, 3));
  ASSERT_TRUE(collapsed.has_value());

  FlowOptions multi;
  multi.k = 4;
  const FlowResult m = decompose_to_luts(*collapsed, multi);
  expect_k_feasible(m.network, 4);
  EXPECT_TRUE(check_equivalence(*collapsed, m.network).equivalent);

  FlowOptions single;
  single.k = 4;
  single.multi_output = false;
  const FlowResult s = decompose_to_luts(*collapsed, single);
  expect_k_feasible(s.network, 4);
  EXPECT_TRUE(check_equivalence(*collapsed, s.network).equivalent);

  EXPECT_LT(m.stats.luts, s.stats.luts);
  EXPECT_LE(m.stats.luts, 7u);  // paper achieves 6
  // The paper's Fig. 1 a) needs 11 LUTs; our single-output flow encodes
  // classes more compactly and lands at 8 — the shape (single > multi) is
  // what matters.
  EXPECT_GE(s.stats.luts, 8u);
}

TEST(LutFlow, NarrowNodesPassThrough) {
  Network net("narrow");
  const SigId a = net.add_input("a");
  const SigId b = net.add_input("b");
  TruthTable t(2);
  t.set(3, true);
  const SigId n = net.add_node({a, b}, t);
  net.add_output(n, "y");
  const FlowResult r = decompose_to_luts(net, {});
  EXPECT_EQ(r.stats.luts, 1u);
  EXPECT_EQ(r.stats.vectors, 0u);
  EXPECT_TRUE(check_equivalence(net, r.network).equivalent);
}

TEST(LutFlow, WideNodeWithRepeatedFaninStaysEquivalent) {
  // A node may read one signal twice (in the flow: a d-node that is also a
  // free input of its g). Its table must be read on the diagonal when it is
  // extended over the group's inputs.
  Network net("repeat");
  std::vector<SigId> in;
  for (int i = 0; i < 6; ++i)
    in.push_back(net.add_input("x" + std::to_string(i)));
  Rng rng(0x4E9);
  TruthTable t(8);
  for (std::uint64_t row = 0; row < t.num_rows(); ++row)
    t.set(row, rng.coin());
  const SigId y = net.add_node({in[0], in[1], in[2], in[3], in[4], in[5],
                                in[1], in[4]},
                               t);
  net.add_output(y, "y");
  const FlowResult r = decompose_to_luts(net, {});
  expect_k_feasible(r.network, 5);
  EXPECT_TRUE(check_equivalence(net, r.network).equivalent);
}

class LutFlowBenchmarks : public ::testing::TestWithParam<const char*> {};

TEST_P(LutFlowBenchmarks, EquivalentAndFeasible) {
  const auto net = circuits::make_benchmark(GetParam());
  ASSERT_TRUE(net.has_value());
  const auto collapsed = collapse_network(*net);
  ASSERT_TRUE(collapsed.has_value());
  const FlowResult r = decompose_to_luts(*collapsed, {});
  expect_k_feasible(r.network, 5);
  const auto eq = check_equivalence(*net, r.network);
  EXPECT_TRUE(eq.equivalent);
}

INSTANTIATE_TEST_SUITE_P(SmallCircuits, LutFlowBenchmarks,
                         ::testing::Values("rd53", "rd73", "rd84", "9sym",
                                           "z4ml", "5xp1", "f51m", "clip",
                                           "misex1", "sao2"));

TEST(LutFlow, MultiBeatsOrMatchesSingleOnSharedCircuits) {
  for (const char* name : {"rd73", "rd84", "z4ml", "f51m"}) {
    const auto collapsed =
        collapse_network(*circuits::make_benchmark(name));
    ASSERT_TRUE(collapsed.has_value()) << name;
    FlowOptions multi;
    const FlowResult m = decompose_to_luts(*collapsed, multi);
    FlowOptions single;
    single.multi_output = false;
    const FlowResult s = decompose_to_luts(*collapsed, single);
    EXPECT_LE(m.stats.luts, s.stats.luts) << name;
  }
}

TEST(LutFlow, RestructuredPathHandlesWideCircuits) {
  // rot cannot be collapsed; the restructured path must still produce an
  // equivalent 5-feasible network (the paper's r+ rows).
  const Network rot = circuits::make_rot();
  const Network pre = restructure(rot);
  EXPECT_TRUE(check_equivalence(rot, pre).equivalent);
  const FlowResult r = decompose_to_luts(pre, {});
  expect_k_feasible(r.network, 5);
  EXPECT_TRUE(check_equivalence(rot, r.network).equivalent);
}

TEST(Restructure, PreservesFunctionAndBoundsSupport) {
  const auto net = circuits::make_benchmark("C499");
  ASSERT_TRUE(net.has_value());
  RestructureOptions opts;
  opts.max_support = 10;
  const Network pre = restructure(*net, opts);
  EXPECT_LE(pre.max_fanin(), 10u);
  EXPECT_TRUE(check_equivalence(*net, pre).equivalent);
  // Elimination should shrink the node count substantially.
  EXPECT_LT(pre.logic_count(), net->logic_count());
}

TEST(LutFlow, StatsAreCoherent) {
  const auto collapsed = collapse_network(*circuits::make_benchmark("rd84"));
  ASSERT_TRUE(collapsed.has_value());
  const FlowResult r = decompose_to_luts(*collapsed, {});
  EXPECT_GT(r.stats.vectors, 0u);
  EXPECT_GE(r.stats.max_m, 1u);
  EXPECT_GE(r.stats.max_p, 1u);
  EXPECT_GT(r.stats.luts, 0u);
  EXPECT_EQ(r.stats.luts, decompose_to_luts(*collapsed, {}).stats.luts)
      << "flow must be deterministic";
}

}  // namespace
}  // namespace imodec
