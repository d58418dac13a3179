// Tests for the network -> BDD bridge (table_bdd / signal_bdd).

#include <gtest/gtest.h>

#include "circuits/gates.hpp"
#include "logic/net2bdd.hpp"
#include "util/rng.hpp"

namespace imodec {
namespace {

using bdd::Bdd;
using bdd::Manager;

TEST(TableBdd, MatchesTableOnAllRows) {
  Rng rng(606);
  Manager mgr(6);
  TruthTable t(4);
  for (std::uint64_t r = 0; r < 16; ++r) t.set(r, rng.coin());
  // Map table variables to scattered BDD variables.
  const std::vector<unsigned> vars{5, 0, 3, 2};
  const Bdd f = table_bdd(mgr, t, vars);
  std::vector<bool> a(6, false);
  for (std::uint64_t r = 0; r < 16; ++r) {
    for (unsigned i = 0; i < 4; ++i) a[vars[i]] = (r >> i) & 1;
    EXPECT_EQ(f.eval(a), t.eval(r)) << r;
  }
}

TEST(TableBdd, ConstantTables) {
  Manager mgr(3);
  EXPECT_TRUE(table_bdd(mgr, TruthTable(2), {0, 1}).is_zero());
  EXPECT_TRUE(table_bdd(mgr, TruthTable(2, true), {0, 1}).is_one());
}

TEST(SignalBdd, ConeWithSharing) {
  Network net("t");
  const SigId a = net.add_input("a");
  const SigId b = net.add_input("b");
  const SigId c = net.add_input("c");
  const SigId x = circuits::gate_xor(net, a, b);
  const SigId y0 = circuits::gate_and(net, x, c);
  const SigId y1 = circuits::gate_or(net, x, c);
  net.add_output(y0, "y0");
  net.add_output(y1, "y1");

  Manager mgr(3);
  PiVarMap pi_var{{a, 0}, {b, 1}, {c, 2}};
  std::unordered_map<SigId, Bdd> cache;
  const Bdd f0 = signal_bdd(mgr, net, y0, pi_var, cache);
  const Bdd f1 = signal_bdd(mgr, net, y1, pi_var, cache);
  // Shared node x must be cached.
  EXPECT_TRUE(cache.count(x));

  const Bdd av = Bdd::var(mgr, 0), bv = Bdd::var(mgr, 1), cv = Bdd::var(mgr, 2);
  EXPECT_EQ(f0, (av ^ bv) & cv);
  EXPECT_EQ(f1, (av ^ bv) | cv);
}

TEST(SignalBdd, ConstantsAndInputs) {
  Network net("t");
  const SigId a = net.add_input("a");
  const SigId one = net.add_constant(true);
  net.add_output(a, "ya");
  net.add_output(one, "yc");

  Manager mgr(1);
  PiVarMap pi_var{{a, 0}};
  std::unordered_map<SigId, Bdd> cache;
  EXPECT_EQ(signal_bdd(mgr, net, a, pi_var, cache), Bdd::var(mgr, 0));
  EXPECT_TRUE(signal_bdd(mgr, net, one, pi_var, cache).is_one());
}

TEST(SignalBdd, AgreesWithConeFunction) {
  const unsigned n = 6;
  Network net("t");
  std::vector<SigId> pis;
  for (unsigned i = 0; i < n; ++i)
    pis.push_back(net.add_input("x" + std::to_string(i)));
  Rng rng(17);
  std::vector<SigId> pool = pis;
  for (int g = 0; g < 12; ++g) {
    const SigId x = pool[rng.below(pool.size())];
    const SigId y = pool[rng.below(pool.size())];
    switch (rng.below(3)) {
      case 0: pool.push_back(circuits::gate_and(net, x, y)); break;
      case 1: pool.push_back(circuits::gate_or(net, x, y)); break;
      default: pool.push_back(circuits::gate_xor(net, x, y)); break;
    }
  }
  net.add_output(pool.back(), "y");

  Manager mgr(n);
  PiVarMap pi_var;
  for (unsigned i = 0; i < n; ++i) pi_var[pis[i]] = i;
  std::unordered_map<SigId, Bdd> cache;
  const Bdd f = signal_bdd(mgr, net, pool.back(), pi_var, cache);

  const auto tt = net.cone_function(pool.back(), pis);
  ASSERT_TRUE(tt.has_value());
  std::vector<bool> a(n, false);
  for (std::uint64_t r = 0; r < (1u << n); ++r) {
    for (unsigned i = 0; i < n; ++i) a[i] = (r >> i) & 1;
    EXPECT_EQ(f.eval(a), tt->eval(r)) << r;
  }
}

}  // namespace
}  // namespace imodec
