// Unit and property tests for the ROBDD package, cross-checked against truth
// tables as the reference model.

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "logic/truthtable.hpp"
#include "util/rng.hpp"

#include <algorithm>

namespace imodec {
namespace {

using bdd::Bdd;
using bdd::Manager;

/// Reference model: evaluate a BDD exhaustively into a truth table.
TruthTable to_table(const Bdd& f, unsigned n) {
  TruthTable t(n);
  std::vector<bool> a(f.manager()->num_vars(), false);
  for (std::uint64_t row = 0; row < t.num_rows(); ++row) {
    for (unsigned v = 0; v < n; ++v) a[v] = (row >> v) & 1;
    t.set(row, f.eval(a));
  }
  return t;
}

TEST(Bdd, TerminalsAndVars) {
  Manager mgr(4);
  EXPECT_TRUE(Bdd::zero(mgr).is_zero());
  EXPECT_TRUE(Bdd::one(mgr).is_one());
  const Bdd x0 = Bdd::var(mgr, 0);
  EXPECT_FALSE(x0.is_terminal());
  EXPECT_EQ(x0, Bdd::var(mgr, 0));  // unique table canonicity
  EXPECT_EQ(~x0, Bdd::nvar(mgr, 0));
  EXPECT_EQ(~~x0, x0);
}

TEST(Bdd, BasicAlgebra) {
  Manager mgr(3);
  const Bdd a = Bdd::var(mgr, 0), b = Bdd::var(mgr, 1);
  EXPECT_EQ(a & b, b & a);
  EXPECT_EQ(a | b, b | a);
  EXPECT_EQ(a & ~a, Bdd::zero(mgr));
  EXPECT_EQ(a | ~a, Bdd::one(mgr));
  EXPECT_EQ(a ^ a, Bdd::zero(mgr));
  EXPECT_EQ(a ^ ~a, Bdd::one(mgr));
  EXPECT_EQ((a & b) | (a & ~b), a);  // absorption via Shannon
  EXPECT_EQ(~(a & b), ~a | ~b);      // De Morgan
}

TEST(Bdd, IteIdentities) {
  Manager mgr(3);
  const Bdd a = Bdd::var(mgr, 0), b = Bdd::var(mgr, 1), c = Bdd::var(mgr, 2);
  EXPECT_EQ(a.ite(b, c), (a & b) | (~a & c));
  EXPECT_EQ(Bdd::one(mgr).ite(b, c), b);
  EXPECT_EQ(Bdd::zero(mgr).ite(b, c), c);
  EXPECT_EQ(a.ite(b, b), b);
}

TEST(Bdd, CofactorAndSupport) {
  Manager mgr(3);
  const Bdd a = Bdd::var(mgr, 0), b = Bdd::var(mgr, 1), c = Bdd::var(mgr, 2);
  const Bdd f = (a & b) | c;
  EXPECT_EQ(f.cofactor(0, true), b | c);
  EXPECT_EQ(f.cofactor(0, false), c);
  EXPECT_EQ(f.cofactor(2, true), Bdd::one(mgr));
  const auto sup = f.support();
  EXPECT_EQ(sup, (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(f.cofactor(2, false).support(), (std::vector<unsigned>{0, 1}));
}

TEST(Bdd, Compose) {
  // Single substitution is vector_compose with one map entry.
  Manager mgr(4);
  const Bdd a = Bdd::var(mgr, 0), b = Bdd::var(mgr, 1), c = Bdd::var(mgr, 2),
            d = Bdd::var(mgr, 3);
  const Bdd f = a ^ b;
  const auto compose = [&](unsigned v, const Bdd& g) {
    std::vector<bdd::NodeId> map(4, Manager::kNoReplacement);
    map[v] = g.node();
    return Bdd(&mgr, mgr.vector_compose(f.node(), map));
  };
  EXPECT_EQ(compose(1, c & d), a ^ (c & d));
  EXPECT_EQ(compose(0, Bdd::zero(mgr)), b);
}

TEST(Bdd, VectorCompose) {
  Manager mgr(4);
  Manager& m = mgr;
  const Bdd a = Bdd::var(m, 0), b = Bdd::var(m, 1), c = Bdd::var(m, 2),
            d = Bdd::var(m, 3);
  const Bdd f = (a & b) | (~a & ~b);
  std::vector<bdd::NodeId> map(4, Manager::kNoReplacement);
  map[0] = (c ^ d).node();
  map[1] = (c & d).node();
  const Bdd g(&m, m.vector_compose(f.node(), map));
  const Bdd expect = ((c ^ d) & (c & d)) | (~(c ^ d) & ~(c & d));
  EXPECT_EQ(g, expect);
}

TEST(Bdd, Cube) {
  Manager mgr(4);
  const Bdd cube = Bdd::cube(mgr, {2, 0}, {true, false});
  EXPECT_EQ(cube, ~Bdd::var(mgr, 0) & Bdd::var(mgr, 2));
  EXPECT_EQ(Bdd::cube(mgr, {}, {}), Bdd::one(mgr));
}

TEST(Bdd, SatCount) {
  Manager mgr(4);
  const Bdd a = Bdd::var(mgr, 0), b = Bdd::var(mgr, 1);
  EXPECT_DOUBLE_EQ(Bdd::zero(mgr).sat_count(), 0.0);
  EXPECT_DOUBLE_EQ(Bdd::one(mgr).sat_count(), 16.0);
  EXPECT_DOUBLE_EQ(a.sat_count(), 8.0);
  EXPECT_DOUBLE_EQ((a & b).sat_count(), 4.0);
  EXPECT_DOUBLE_EQ((a | b).sat_count(), 12.0);
  EXPECT_DOUBLE_EQ((a ^ b).sat_count(), 8.0);
}

TEST(Bdd, PickMinterm) {
  Manager mgr(3);
  const Bdd f = (Bdd::var(mgr, 0) & ~Bdd::var(mgr, 2));
  std::vector<bool> a;
  ASSERT_TRUE(mgr.pick_minterm(f.node(), a));
  EXPECT_TRUE(f.eval(a));
  EXPECT_FALSE(mgr.pick_minterm(bdd::kFalse, a));
}

TEST(Bdd, ForeachMinterm) {
  Manager mgr(3);
  const Bdd f = Bdd::var(mgr, 0) ^ Bdd::var(mgr, 2);
  std::vector<std::vector<bool>> seen;
  mgr.foreach_minterm(f.node(), {0, 1, 2},
                      [&](const std::vector<bool>& a) {
                        seen.push_back(a);
                        return true;
                      });
  EXPECT_EQ(seen.size(), 4u);
  for (const auto& a : seen) EXPECT_NE(a[0], a[2]);
}

TEST(Bdd, ForeachMintermEarlyStop) {
  Manager mgr(3);
  const Bdd f = Bdd::one(mgr);
  int count = 0;
  mgr.foreach_minterm(f.node(), {0, 1, 2}, [&](const std::vector<bool>&) {
    return ++count < 3;
  });
  EXPECT_EQ(count, 3);
}

TEST(Bdd, GarbageCollectKeepsLiveNodes) {
  Manager mgr(6);
  Bdd keep = Bdd::var(mgr, 0);
  for (unsigned v = 1; v < 6; ++v) keep = keep ^ Bdd::var(mgr, v);
  const std::size_t keep_size = keep.dag_size();
  {
    // Generate garbage.
    Bdd junk = Bdd::one(mgr);
    for (unsigned v = 0; v < 6; ++v)
      junk = junk & (Bdd::var(mgr, v) | Bdd::var(mgr, (v + 1) % 6));
  }
  const std::size_t before = mgr.live_node_count();
  mgr.garbage_collect();
  EXPECT_LT(mgr.live_node_count(), before);
  EXPECT_TRUE(mgr.check_invariants());
  EXPECT_EQ(keep.dag_size(), keep_size);
  // keep must still be the 6-input parity function.
  std::vector<bool> a(6, false);
  a[3] = true;
  EXPECT_TRUE(keep.eval(a));
  a[5] = true;
  EXPECT_FALSE(keep.eval(a));
}

TEST(Bdd, NodesAreReusedAfterGc) {
  Manager mgr(8);
  std::size_t peak_after_first = 0;
  for (int round = 0; round < 6; ++round) {
    {
      Bdd junk = Bdd::zero(mgr);
      for (unsigned v = 0; v + 1 < 8; ++v)
        junk = junk | (Bdd::var(mgr, v) & Bdd::var(mgr, v + 1));
    }
    mgr.garbage_collect();
    EXPECT_TRUE(mgr.check_invariants());
    EXPECT_EQ(mgr.live_node_count(), 1u);  // only the terminal survives
    // The free list must be reused: the arena peak stays flat after round 0.
    if (round == 0)
      peak_after_first = mgr.peak_node_count();
    else
      EXPECT_EQ(mgr.peak_node_count(), peak_after_first) << round;
  }
}

TEST(Bdd, DagSize) {
  Manager mgr(4);
  Bdd parity = Bdd::zero(mgr);
  for (unsigned v = 0; v < 4; ++v) parity = parity ^ Bdd::var(mgr, v);
  // Parity of n variables collapses to n internal nodes with complement
  // edges: x_i and !x_i share a node, so each level needs just one.
  EXPECT_EQ(parity.dag_size(), 4u);
}

// --- Flat-table resize and counter invariants -------------------------------

TEST(Bdd, UniqueTableResizeInvariants) {
  Manager mgr(16);
  Rng rng(0x7AB1E);
  const auto is_pow2 = [](std::size_t x) { return x && (x & (x - 1)) == 0; };
  ASSERT_TRUE(is_pow2(mgr.unique_table_size()));
  const std::size_t initial = mgr.unique_table_size();

  // Union enough random cubes to force several table doublings; handles keep
  // everything live so growth cannot be masked by collection.
  std::vector<Bdd> roots;
  Bdd f = Bdd::zero(mgr);
  std::size_t last = initial;
  for (int c = 0; c < 400; ++c) {
    Bdd cube = Bdd::one(mgr);
    for (unsigned v = 0; v < 16; ++v)
      if (rng.chance(1, 2)) cube = cube & Bdd::literal(mgr, v, rng.coin());
    f = f | cube;
    roots.push_back(f);

    const std::size_t size = mgr.unique_table_size();
    ASSERT_TRUE(is_pow2(size));
    ASSERT_GE(size, last);  // growth is monotone (no shrink mid-build)
    last = size;
    // The 3/4 load bound: live internal nodes can never exceed occupancy,
    // and growth keeps occupancy at or below 3/4 of the slots.
    ASSERT_LE((mgr.live_node_count() - 1) * 4, size * 3);
  }
  EXPECT_GT(mgr.unique_table_size(), initial) << "test never grew the table";
  EXPECT_TRUE(mgr.check_invariants());
}

TEST(Bdd, ComputedCacheTracksUniqueTable) {
  Manager mgr(14);
  Rng rng(0xCAC4E);
  const std::size_t kMin = std::size_t(1) << 12;
  const std::size_t kMax = std::size_t(1) << 21;
  const auto expected = [&] {
    return std::min(std::max(kMin, mgr.unique_table_size() / 2), kMax);
  };
  ASSERT_EQ(mgr.computed_cache_size(), expected());
  std::vector<Bdd> roots;
  Bdd f = Bdd::zero(mgr);
  for (int c = 0; c < 300; ++c) {
    Bdd cube = Bdd::one(mgr);
    for (unsigned v = 0; v < 14; ++v)
      if (rng.chance(1, 2)) cube = cube & Bdd::literal(mgr, v, rng.coin());
    f = f ^ cube;
    roots.push_back(f);
    ASSERT_EQ(mgr.computed_cache_size(), expected());
  }
  EXPECT_GT(mgr.computed_cache_size(), kMin) << "cache never grew";
}

TEST(Bdd, StatsLookupsNeverBelowHits) {
  Manager mgr(10);
  Rng rng(0x57A75);
  Bdd f = Bdd::var(mgr, 0);
  for (int i = 0; i < 200; ++i) {
    const Bdd g = Bdd::literal(mgr, unsigned(rng.below(10)), rng.coin());
    switch (rng.below(3)) {
      case 0: f = f & g; break;
      case 1: f = f | g; break;
      default: f = f ^ g; break;
    }
    const auto& s = mgr.stats();
    ASSERT_GE(s.cache_lookups, s.cache_hits);
    ASSERT_GE(s.cache_hit_rate(), 0.0);
    ASSERT_LE(s.cache_hit_rate(), 1.0);
  }
  EXPECT_GT(mgr.stats().cache_lookups, 0u);
}

TEST(Bdd, RepeatedIdenticalOpsRaiseHitRate) {
  Manager mgr(8);
  Rng rng(0x41717);
  Bdd f = Bdd::zero(mgr);
  Bdd g = Bdd::one(mgr);
  for (int c = 0; c < 6; ++c) {
    Bdd cube = Bdd::one(mgr);
    for (unsigned v = 0; v < 8; ++v)
      if (rng.chance(1, 2)) cube = cube & Bdd::literal(mgr, v, rng.coin());
    if (c & 1)
      f = f | cube;
    else
      g = g & ~cube;
  }
  const Bdd first = f & g;  // populates the computed table
  double rate = mgr.stats().cache_hit_rate();
  for (int i = 0; i < 16; ++i) {
    const Bdd again = f & g;  // one lookup, one hit — a pure cache replay
    ASSERT_EQ(again, first);
    const double now = mgr.stats().cache_hit_rate();
    ASSERT_GE(now, rate) << "hit rate dropped on an identical op";
    rate = now;
  }
  EXPECT_GT(rate, 0.0);
}

// --- Property tests against the truth-table model --------------------------

class BddRandomOps : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomOps, MatchesTruthTableModel) {
  const unsigned n = 6;
  Manager mgr(n);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);

  // Random expression DAG over n variables, mirrored on TruthTables.
  std::vector<Bdd> bdds;
  std::vector<TruthTable> tables;
  for (unsigned v = 0; v < n; ++v) {
    bdds.push_back(Bdd::var(mgr, v));
    tables.push_back(TruthTable::var(n, v));
  }
  for (int step = 0; step < 40; ++step) {
    const std::size_t i = rng.below(bdds.size());
    const std::size_t j = rng.below(bdds.size());
    switch (rng.below(5)) {
      case 0:
        bdds.push_back(bdds[i] & bdds[j]);
        tables.push_back(tables[i] & tables[j]);
        break;
      case 1:
        bdds.push_back(bdds[i] | bdds[j]);
        tables.push_back(tables[i] | tables[j]);
        break;
      case 2:
        bdds.push_back(bdds[i] ^ bdds[j]);
        tables.push_back(tables[i] ^ tables[j]);
        break;
      case 3:
        bdds.push_back(~bdds[i]);
        tables.push_back(~tables[i]);
        break;
      default: {
        const unsigned v = static_cast<unsigned>(rng.below(n));
        const bool phase = rng.coin();
        bdds.push_back(bdds[i].cofactor(v, phase));
        tables.push_back(tables[i].cofactor(v, phase));
        break;
      }
    }
  }
  for (std::size_t idx = 0; idx < bdds.size(); ++idx) {
    EXPECT_EQ(to_table(bdds[idx], n), tables[idx]) << "expr " << idx;
    EXPECT_DOUBLE_EQ(bdds[idx].sat_count(),
                     static_cast<double>(tables[idx].count_ones()));
  }
  EXPECT_TRUE(mgr.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomOps, ::testing::Range(0, 8));

class BddQuantifyProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddQuantifyProperty, ExistsEqualsOrOfCofactors) {
  // Quantification by Shannon expansion, checked row by row against the
  // truth-table model.
  const unsigned n = 5;
  Manager mgr(n);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  // Random function via random truth table.
  TruthTable t(n);
  for (std::uint64_t row = 0; row < t.num_rows(); ++row)
    t.set(row, rng.coin());
  // Build its BDD via minterm expansion.
  Bdd f = Bdd::zero(mgr);
  for (std::uint64_t row = 0; row < t.num_rows(); ++row) {
    if (!t.get(row)) continue;
    std::vector<unsigned> vars(n);
    std::vector<bool> phases(n);
    for (unsigned v = 0; v < n; ++v) {
      vars[v] = v;
      phases[v] = (row >> v) & 1;
    }
    f = f | Bdd::cube(mgr, vars, phases);
  }
  const unsigned v = static_cast<unsigned>(rng.below(n));
  const std::uint64_t bit = std::uint64_t{1} << v;
  TruthTable ex(n), fa(n);
  for (std::uint64_t row = 0; row < t.num_rows(); ++row) {
    ex.set(row, t.get(row & ~bit) || t.get(row | bit));
    fa.set(row, t.get(row & ~bit) && t.get(row | bit));
  }
  EXPECT_EQ(to_table(f.cofactor(v, false) | f.cofactor(v, true), n), ex);
  EXPECT_EQ(to_table(f.cofactor(v, false) & f.cofactor(v, true), n), fa);
  // Quantifying all variables yields a constant matching satisfiability.
  Bdd any = f, all = f;
  for (unsigned i = 0; i < n; ++i) {
    any = any.cofactor(i, false) | any.cofactor(i, true);
    all = all.cofactor(i, false) & all.cofactor(i, true);
  }
  EXPECT_TRUE(any.is_terminal());
  EXPECT_TRUE(all.is_terminal());
  EXPECT_EQ(any.is_one(), t.count_ones() > 0);
  EXPECT_EQ(all.is_one(), t.count_ones() == t.num_rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddQuantifyProperty, ::testing::Range(0, 10));

TEST(Bdd, CofactorAndComposeSurviveArenaGrowth) {
  // Regression: cofactor_rec once held a Node& across recursive calls, but
  // make_node can reallocate the arena mid-recursion and the reference
  // dangled. Operations big enough to force several reallocations pin
  // semantics on random points (sanitizer builds catch the dangle directly).
  const unsigned n = 16;
  Manager mgr(n);
  Rng rng(0xA11A);
  const auto random_xor_of_cubes = [&](int cubes) {
    Bdd f = Bdd::zero(mgr);
    for (int c = 0; c < cubes; ++c) {
      Bdd cube = Bdd::one(mgr);
      for (unsigned v = 0; v < n; ++v)
        if (rng.chance(1, 3)) cube = cube & Bdd::literal(mgr, v, rng.coin());
      f = f ^ cube;
    }
    return f;
  };
  const Bdd f = random_xor_of_cubes(48);
  std::vector<std::vector<bool>> points;
  for (int p = 0; p < 32; ++p) {
    std::vector<bool> a(n);
    for (unsigned v = 0; v < n; ++v) a[v] = rng.coin();
    points.push_back(std::move(a));
  }
  const Bdd c0 = f.cofactor(5, false);
  const Bdd c1 = f.cofactor(5, true);
  for (auto a : points) {
    a[5] = false;
    EXPECT_EQ(c0.eval(a), f.eval(a));
    a[5] = true;
    EXPECT_EQ(c1.eval(a), f.eval(a));
  }

  // Grind substitutions (vector_compose, which recurses through ite) with
  // fresh maps, keeping every result live, until the cumulative allocation
  // count has doubled: with nothing dying, fresh nodes land on push_back, so
  // the arena must cross a capacity boundary — i.e. reallocate — inside the
  // recursion.
  std::vector<Bdd> subs;
  for (int i = 0; i < 8; ++i) subs.push_back(random_xor_of_cubes(3));
  const std::uint64_t start_alloc = mgr.stats().nodes_allocated;
  std::vector<Bdd> keep;
  std::vector<std::vector<int>> maps;  // per variable: index into subs or -1
  for (int round = 0;
       mgr.stats().nodes_allocated < 2 * start_alloc && round < 400; ++round) {
    std::vector<int> pick(n, -1);
    std::vector<bdd::NodeId> map(n, Manager::kNoReplacement);
    for (unsigned v = 0; v < n; ++v)
      if (rng.chance(1, 4)) {
        pick[v] = static_cast<int>(rng.below(subs.size()));
        map[v] = subs[pick[v]].node();
      }
    keep.emplace_back(&mgr, mgr.vector_compose(f.node(), map));
    maps.push_back(std::move(pick));
  }
  EXPECT_GE(mgr.stats().nodes_allocated, 2 * start_alloc)
      << "grind too small to force an arena reallocation";
  // Spot-check a few ground results against per-point substitution.
  for (std::size_t i = 0; i < keep.size(); i += keep.size() / 8 + 1) {
    for (std::size_t p = 0; p < points.size(); p += 7) {
      const auto& a = points[p];
      auto b = a;
      for (unsigned v = 0; v < n; ++v)
        if (maps[i][v] >= 0) b[v] = subs[maps[i][v]].eval(a);
      EXPECT_EQ(keep[i].eval(a), f.eval(b)) << "map " << i << " point " << p;
    }
  }
  EXPECT_TRUE(mgr.check_invariants());
}

}  // namespace
}  // namespace imodec
