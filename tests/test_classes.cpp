// Tests for local compatibility partitions and the global partition,
// anchored on the paper's Examples 1 and 3 and cross-checked between the
// truth-table and BDD paths.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "decomp/classes.hpp"
#include "logic/net2bdd.hpp"
#include "paper_fixtures.hpp"
#include "util/rng.hpp"

namespace imodec {
namespace {

using testfix::paper_f1;
using testfix::paper_f2;
using testfix::paper_vp;
using testfix::vx;

/// The BDD-cofactor oracle for local_partition_tt: bs_vars may be any of
/// the manager's variables; vertices are enumerated by cofactoring on
/// bs_vars in the given order (vertex bit i = value of bs_vars[i]).
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

std::set<std::uint32_t> class_set(const VertexPartition& p,
                                  std::initializer_list<const char*> verts) {
  std::set<std::uint32_t> ids;
  for (const char* v : verts) ids.insert(p.class_of[vx(v)]);
  return ids;
}

/// All listed vertices share one class, and that class has exactly that size.
void expect_class(const VertexPartition& p,
                  std::initializer_list<const char*> verts) {
  const auto ids = class_set(p, verts);
  ASSERT_EQ(ids.size(), 1u);
  const auto members = p.members()[*ids.begin()];
  EXPECT_EQ(members.size(), verts.size());
}

TEST(LocalClasses, PaperExample1) {
  // Π_f1 = {L1, L2, L3}: L1 = {000,001,010,100}, L2 = {011,101,110},
  // L3 = {111}.
  const VertexPartition p = local_partition_tt(paper_f1(), paper_vp());
  EXPECT_EQ(p.num_classes, 3u);
  expect_class(p, {"000", "001", "010", "100"});
  expect_class(p, {"011", "101", "110"});
  expect_class(p, {"111"});
}

TEST(LocalClasses, PaperExample3F2) {
  // Π_f2: {000}, {001,010,100,110}, {011,101}, {111}.
  const VertexPartition p = local_partition_tt(paper_f2(), paper_vp());
  EXPECT_EQ(p.num_classes, 4u);
  expect_class(p, {"000"});
  expect_class(p, {"001", "010", "100", "110"});
  expect_class(p, {"011", "101"});
  expect_class(p, {"111"});
}

TEST(GlobalPartition, PaperExample3) {
  // Π̂ = {G1..G5}: {000}, {001,010,100}, {110}, {011,101}, {111}; p = 5.
  const auto l1 = local_partition_tt(paper_f1(), paper_vp());
  const auto l2 = local_partition_tt(paper_f2(), paper_vp());
  const VertexPartition g = global_partition({l1, l2});
  EXPECT_EQ(g.num_classes, 5u);
  expect_class(g, {"000"});
  expect_class(g, {"001", "010", "100"});
  expect_class(g, {"110"});
  expect_class(g, {"011", "101"});
  expect_class(g, {"111"});
  // The global partition refines both local partitions (Definition 2).
  EXPECT_TRUE(g.refines(l1));
  EXPECT_TRUE(g.refines(l2));
  EXPECT_FALSE(l1.refines(g));
}

TEST(GlobalPartition, LocalToGlobalMembership) {
  // L1^1 = G1 ∪ G2, L2^1 = G3 ∪ G4, L3^1 = G5 (Example 3).
  const auto l1 = local_partition_tt(paper_f1(), paper_vp());
  const auto l2 = local_partition_tt(paper_f2(), paper_vp());
  const VertexPartition g = global_partition({l1, l2});
  const auto contains = local_to_global(l1, g);
  ASSERT_EQ(contains.size(), 3u);
  // Class ids are first-occurrence ordered, so L1 (contains vertex 000) is
  // local class 0 and G1 (vertex 000) is global class 0, etc.
  EXPECT_EQ(contains[l1.class_of[vx("000")]],
            (std::vector<std::uint32_t>{g.class_of[vx("000")],
                                        g.class_of[vx("001")]}));
  EXPECT_EQ(contains[l1.class_of[vx("111")]],
            (std::vector<std::uint32_t>{g.class_of[vx("111")]}));
}

TEST(GlobalPartition, CodewidthsOfExample3) {
  const auto l1 = local_partition_tt(paper_f1(), paper_vp());
  const auto l2 = local_partition_tt(paper_f2(), paper_vp());
  EXPECT_EQ(codewidth(l1.num_classes), 2u);  // ℓ1 = 3 -> c1 = 2
  EXPECT_EQ(codewidth(l2.num_classes), 2u);  // ℓ2 = 4 -> c2 = 2
  EXPECT_EQ(codewidth(1), 0u);
  EXPECT_EQ(codewidth(2), 1u);
}

TEST(Partitions, RefinesAndProductBasics) {
  // Partition by var0 value vs. partition by (var0, var1) pair on b = 2.
  VertexPartition coarse{2, 2, {0, 1, 0, 1}};
  VertexPartition fine{2, 4, {0, 1, 2, 3}};
  EXPECT_TRUE(fine.refines(coarse));
  EXPECT_FALSE(coarse.refines(fine));
  EXPECT_TRUE(coarse.refines(coarse));

  VertexPartition other{2, 2, {0, 0, 1, 1}};
  const VertexPartition prod = VertexPartition::product({&coarse, &other});
  EXPECT_EQ(prod.num_classes, 4u);
  EXPECT_TRUE(prod.refines(coarse));
  EXPECT_TRUE(prod.refines(other));
}

TEST(Partitions, ProductWithSelfIsIdentity) {
  const auto l1 = local_partition_tt(paper_f1(), paper_vp());
  const VertexPartition prod = VertexPartition::product({&l1, &l1});
  EXPECT_EQ(prod.num_classes, l1.num_classes);
  EXPECT_TRUE(prod.refines(l1));
  EXPECT_TRUE(l1.refines(prod));
}

TEST(Partitions, ProductNumbersExactTuplesInFirstOccurrenceOrder) {
  // Oracle: number the per-vertex class tuples in first-occurrence order.
  // b = 10 with up to 2^b classes per factor also drives the hash-map pair
  // table that keeps wide bound sets from allocating classes x ℓ slots.
  Rng rng(0x9a27);
  for (int trial = 0; trial < 40; ++trial) {
    const unsigned b = trial < 20 ? 5 : 10;
    const std::uint64_t n = std::uint64_t{1} << b;
    std::vector<VertexPartition> parts(1 + rng.below(8));
    for (VertexPartition& p : parts) {
      p.b = b;
      p.num_classes = static_cast<std::uint32_t>(1 + rng.below(n));
      p.class_of.resize(n);
      for (std::uint32_t& c : p.class_of)
        c = static_cast<std::uint32_t>(rng.below(p.num_classes));
    }
    std::vector<const VertexPartition*> ptrs;
    for (const VertexPartition& p : parts) ptrs.push_back(&p);
    const VertexPartition prod = VertexPartition::product(ptrs);

    std::map<std::vector<std::uint32_t>, std::uint32_t> ids;
    ASSERT_EQ(prod.class_of.size(), n);
    for (std::uint64_t v = 0; v < n; ++v) {
      std::vector<std::uint32_t> tuple;
      for (const VertexPartition& p : parts) tuple.push_back(p.class_of[v]);
      const auto [it, inserted] =
          ids.emplace(tuple, static_cast<std::uint32_t>(ids.size()));
      ASSERT_EQ(prod.class_of[v], it->second) << "trial " << trial;
    }
    EXPECT_EQ(prod.num_classes, ids.size()) << "trial " << trial;
  }
}

TEST(LocalClasses, BddPathMatchesTruthTablePath) {
  Rng rng(0xC1A55);
  // Trials 0..19: prefix bound sets {0..b-1} with |FS| = 3. Trials 20..45:
  // scattered bound sets with |FS| = 0..12 (twice each) and n up to 14, so
  // chart columns below, at and above one 64-bit word (|FS| = 5, 6, 7)
  // all occur.
  for (int trial = 0; trial < 46; ++trial) {
    TruthTable f;
    VarPartition vp;
    if (trial < 20) {
      const unsigned n = 5 + trial % 3;
      f = TruthTable(n);
      for (std::uint64_t row = 0; row < f.num_rows(); ++row)
        f.set(row, rng.coin());
      const unsigned b = 2 + trial % 3;
      for (unsigned v = 0; v < n; ++v)
        (v < b ? vp.bound : vp.free_set).push_back(v);
    } else {
      auto shape = testfix::random_shape(rng, (trial - 20) % 13);
      f = std::move(shape.f);
      vp = std::move(shape.vp);
    }
    const unsigned n = f.num_vars();

    const VertexPartition tt_part = local_partition_tt(f, vp);

    bdd::Manager mgr(n);
    std::vector<unsigned> vars(n);
    for (unsigned v = 0; v < n; ++v) vars[v] = v;
    const bdd::Bdd fb = table_bdd(mgr, f, vars);
    const VertexPartition bdd_part = local_partition_bdd(fb, vp.bound);

    ASSERT_EQ(bdd_part.num_classes, tt_part.num_classes) << "trial " << trial;
    EXPECT_TRUE(bdd_part.refines(tt_part));
    EXPECT_TRUE(tt_part.refines(bdd_part));
  }
}

TEST(LocalClasses, ConstantAndBsIndependentFunctions) {
  VarPartition vp;
  vp.bound = {0, 1};
  vp.free_set = {2, 3};
  // Constant function: one class.
  EXPECT_EQ(local_partition_tt(TruthTable(4, true), vp).num_classes, 1u);
  // Function of free variables only: one class.
  EXPECT_EQ(local_partition_tt(TruthTable::var(4, 2), vp).num_classes, 1u);
  // Function = bound variable: two classes.
  EXPECT_EQ(local_partition_tt(TruthTable::var(4, 0), vp).num_classes, 2u);
  // Full distinction: 2^b classes when every column is distinct.
  TruthTable mux(4);
  for (std::uint64_t row = 0; row < 16; ++row) {
    const unsigned sel = row & 3;               // bound vertex
    const bool y2 = (row >> 2) & 1, y3 = (row >> 3) & 1;
    const bool vals[4] = {y2, y3, y2 != y3, y2 && y3};
    mux.set(row, vals[sel]);
  }
  EXPECT_EQ(local_partition_tt(mux, vp).num_classes, 4u);
}

TEST(ColumnMultiplicity, MatchesLocalClasses) {
  EXPECT_EQ(local_partition_tt(paper_f1(), paper_vp()).num_classes, 3u);
  EXPECT_EQ(local_partition_tt(paper_f2(), paper_vp()).num_classes, 4u);
}

}  // namespace
}  // namespace imodec
