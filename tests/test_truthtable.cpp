// Unit tests for TruthTable.

#include <gtest/gtest.h>

#include <utility>

#include "logic/truthtable.hpp"
#include "util/rng.hpp"

namespace imodec {
namespace {

TEST(TruthTable, ConstantsAndVars) {
  TruthTable zero(3);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_TRUE(zero.is_constant());
  TruthTable one(3, true);
  EXPECT_TRUE(one.is_constant());
  EXPECT_EQ(one.count_ones(), 8u);

  const TruthTable x1 = TruthTable::var(3, 1);
  for (std::uint64_t row = 0; row < 8; ++row)
    EXPECT_EQ(x1.eval(row), (row >> 1) & 1);
  EXPECT_EQ(x1.count_ones(), 4u);
}

TEST(TruthTable, FromString) {
  const TruthTable t = TruthTable::from_string("0110");
  EXPECT_EQ(t.num_vars(), 2u);
  EXPECT_FALSE(t.eval(0));
  EXPECT_TRUE(t.eval(1));
  EXPECT_TRUE(t.eval(2));
  EXPECT_FALSE(t.eval(3));
  EXPECT_EQ(t.to_string(), "0110");
}

TEST(TruthTable, Operators) {
  const TruthTable a = TruthTable::var(2, 0);
  const TruthTable b = TruthTable::var(2, 1);
  EXPECT_EQ((a & b).to_string(), "0001");
  EXPECT_EQ((a | b).to_string(), "0111");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((~a).to_string(), "1010");
}

TEST(TruthTable, Cofactor) {
  const TruthTable a = TruthTable::var(3, 0);
  const TruthTable b = TruthTable::var(3, 1);
  const TruthTable f = a ^ b;
  EXPECT_EQ(f.cofactor(0, false), b);
  EXPECT_EQ(f.cofactor(0, true), ~b);
  // Cofactored variable becomes a don't-care.
  EXPECT_TRUE(f.cofactor(0, false).is_dont_care(0));
}

TEST(TruthTable, SupportAndDontCare) {
  const TruthTable f =
      TruthTable::var(4, 0) & TruthTable::var(4, 2);
  EXPECT_EQ(f.support(), (std::vector<unsigned>{0, 2}));
  EXPECT_TRUE(f.is_dont_care(1));
  EXPECT_TRUE(f.is_dont_care(3));
  EXPECT_FALSE(f.is_dont_care(0));
}

TEST(TruthTable, PermuteShrinksToSupport) {
  const TruthTable f =
      TruthTable::var(4, 1) ^ TruthTable::var(4, 3);
  const TruthTable g = f.permute({1, 3});
  EXPECT_EQ(g.num_vars(), 2u);
  const TruthTable expect = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
  EXPECT_EQ(g, expect);
}

TEST(TruthTable, PermuteReorders) {
  // f(x0,x1) = x0 & ~x1; swap variables.
  const TruthTable f = TruthTable::var(2, 0) & ~TruthTable::var(2, 1);
  const TruthTable g = f.permute({1, 0});
  const TruthTable expect = ~TruthTable::var(2, 0) & TruthTable::var(2, 1);
  EXPECT_EQ(g, expect);
}

TEST(TruthTable, PermuteRoundTrip) {
  Rng rng(99);
  TruthTable f(5);
  for (std::uint64_t row = 0; row < f.num_rows(); ++row)
    f.set(row, rng.coin());
  const TruthTable g = f.permute({4, 3, 2, 1, 0});
  const TruthTable back = g.permute({4, 3, 2, 1, 0});
  EXPECT_EQ(back, f);
}

/// permute, one bit at a time: new row r reads the old row that sets old
/// variable perm[i] for every set bit i of r.
TruthTable permute_per_bit(const TruthTable& f,
                           const std::vector<unsigned>& perm) {
  TruthTable t(static_cast<unsigned>(perm.size()));
  for (std::uint64_t row = 0; row < t.num_rows(); ++row) {
    std::uint64_t old_row = 0;
    for (std::size_t i = 0; i < perm.size(); ++i)
      if ((row >> i) & 1 && perm[i] != TruthTable::kNoVar)
        old_row |= std::uint64_t{1} << perm[i];
    t.set(row, f.get(old_row));
  }
  return t;
}

TEST(TruthTable, PermuteMatchesPerBitReference) {
  // Random tables of 1..14 variables placed at random positions among up to
  // 16 new variables (the rest kNoVar), so both sides of the 11-bit split of
  // the row index are exercised.
  Rng rng(0x9E2);
  for (unsigned trial = 0; trial < 28; ++trial) {
    const unsigned n = 1 + trial % 14;
    const unsigned new_n = n + trial % 3;
    TruthTable f(n);
    for (std::uint64_t row = 0; row < f.num_rows(); ++row)
      f.set(row, rng.coin());
    std::vector<unsigned> slots(new_n);
    for (unsigned i = 0; i < new_n; ++i) slots[i] = i;
    for (unsigned i = 0; i + 1 < new_n; ++i)
      std::swap(slots[i], slots[i + rng.below(new_n - i)]);
    std::vector<unsigned> perm(new_n, TruthTable::kNoVar);
    for (unsigned v = 0; v < n; ++v) perm[slots[v]] = v;
    EXPECT_EQ(f.permute(perm), permute_per_bit(f, perm)) << "trial " << trial;
  }
}

TEST(TruthTable, TieReadsTheDiagonal) {
  Rng rng(0x71E);
  TruthTable f(5);
  for (std::uint64_t row = 0; row < f.num_rows(); ++row)
    f.set(row, rng.coin());
  const TruthTable t = f.tie(1, 3);
  EXPECT_TRUE(t.is_dont_care(3));
  for (std::uint64_t row = 0; row < t.num_rows(); ++row) {
    const std::uint64_t diag = (row & ~std::uint64_t{8}) | ((row & 2) << 2);
    EXPECT_EQ(t.get(row), f.get(diag)) << "row " << row;
  }
}

TEST(TruthTable, HashConsistency) {
  const TruthTable a = TruthTable::var(3, 0);
  const TruthTable b = TruthTable::var(3, 0);
  EXPECT_EQ(a.hash(), b.hash());
}

}  // namespace
}  // namespace imodec
