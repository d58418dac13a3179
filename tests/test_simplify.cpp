// Tests for the network simplification pass.

#include <gtest/gtest.h>

#include "circuits/gates.hpp"
#include "circuits/registry.hpp"
#include "logic/simplify.hpp"
#include "logic/simulate.hpp"

namespace imodec {
namespace {

using circuits::gate_and;
using circuits::gate_or;
using circuits::gate_xor;

TEST(Simplify, FoldsConstantFanins) {
  Network net("t");
  const SigId a = net.add_input("a");
  const SigId one = net.add_constant(true);
  const SigId y = gate_and(net, a, one);  // a & 1 == a
  net.add_output(y, "y");
  const Network before = net;
  const auto stats = simplify(net);
  EXPECT_GE(stats.constants_folded, 1u);
  EXPECT_GE(stats.identities_bypassed, 1u);
  EXPECT_TRUE(check_equivalence(before, net).equivalent);
  // Output now points straight at the input.
  EXPECT_EQ(net.outputs()[0], a);
}

TEST(Simplify, ConstantZeroDominatesAnd) {
  Network net("t");
  net.add_input("a");
  const SigId a = net.inputs()[0];
  const SigId zero = net.add_constant(false);
  net.add_output(gate_and(net, a, zero), "y");
  simplify(net);
  EXPECT_FALSE(net.eval({false})[0]);
  EXPECT_FALSE(net.eval({true})[0]);
  EXPECT_EQ(net.node(net.outputs()[0]).kind, Network::Kind::Constant);
}

TEST(Simplify, DropsVacuousFanins) {
  Network net("t");
  const SigId a = net.add_input("a");
  const SigId b = net.add_input("b");
  // A 2-input node that ignores its second input.
  TruthTable t(2);
  t.set(1, true);
  t.set(3, true);  // == var 0
  const SigId y = net.add_node({a, b}, t);
  net.add_output(y, "y");
  const auto stats = simplify(net);
  EXPECT_GE(stats.fanins_dropped, 1u);
  EXPECT_EQ(net.outputs()[0], a);  // collapses to the identity, then bypassed
}

TEST(Simplify, MergesRepeatedFanins) {
  Network net("t");
  const SigId a = net.add_input("a");
  const SigId b = net.add_input("b");
  // y = (x0 & ~x2) | x1 over fanins {a, b, a}: on the diagonal, y = b.
  const TruthTable t = (TruthTable::var(3, 0) & ~TruthTable::var(3, 2)) |
                       TruthTable::var(3, 1);
  const SigId c = net.add_node({a, b, a}, t);
  // z = x0 ^ x2 over {a, b, b} = a ^ b keeps each signal once.
  const SigId z = net.add_node({a, b, b}, TruthTable::var(3, 0) ^
                                              TruthTable::var(3, 2));
  net.add_output(c, "y");
  net.add_output(z, "z");
  const Network before = net;
  simplify(net);
  EXPECT_EQ(net.outputs()[0], b);
  EXPECT_EQ(net.node(net.outputs()[1]).fanins, (std::vector<SigId>{a, b}));
  for (unsigned row = 0; row < 4; ++row) {
    const std::vector<bool> in{(row & 1) != 0, (row & 2) != 0};
    EXPECT_EQ(net.eval(in), before.eval(in)) << "row " << row;
  }
}

TEST(Simplify, DeduplicatesStructuralTwins) {
  Network net("t");
  const SigId a = net.add_input("a");
  const SigId b = net.add_input("b");
  const SigId x1 = gate_xor(net, a, b);
  const SigId x2 = gate_xor(net, a, b);  // identical twin
  net.add_output(gate_and(net, x1, x2), "y");  // x & x == x after dedupe
  const Network before = net;
  const auto stats = simplify(net);
  EXPECT_GE(stats.nodes_deduped, 1u);
  EXPECT_TRUE(check_equivalence(before, net).equivalent);
  // After dedupe the AND has one distinct fanin; support normalization
  // turns it into the identity, which is bypassed.
  EXPECT_EQ(net.outputs()[0], x1);
}

TEST(Simplify, FixpointOnCleanNetwork) {
  Network net = *circuits::make_benchmark("rd73");
  const Network before = net;
  simplify(net);
  const auto stats2 = simplify(net);
  EXPECT_EQ(stats2.total(), 0u);  // second run is a no-op
  EXPECT_TRUE(check_equivalence(before, net).equivalent);
}

TEST(Simplify, BenchmarksStayEquivalent) {
  for (const char* name : {"rd84", "z4ml", "clip", "misex1", "e64"}) {
    Network net = *circuits::make_benchmark(name);
    const Network before = net;
    simplify(net);
    EXPECT_TRUE(check_equivalence(before, net).equivalent) << name;
  }
}

TEST(Simplify, ChainsOfIdentitiesCollapse) {
  Network net("t");
  const SigId a = net.add_input("a");
  SigId cur = a;
  for (int i = 0; i < 5; ++i)
    cur = net.add_node({cur}, TruthTable::var(1, 0));  // buffer chain
  net.add_output(cur, "y");
  const auto stats = simplify(net);
  EXPECT_EQ(stats.identities_bypassed, 5u);
  EXPECT_EQ(net.outputs()[0], a);
  EXPECT_EQ(net.logic_count(), 0u);
}

}  // namespace
}  // namespace imodec
