// Tests for the implicit (branch-and-bound) Lmax against the explicit
// covering-table reference, plus targeted behavioural and governance cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "imodec/lmax.hpp"
#include "obs/metrics.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"

namespace imodec {
namespace {

using bdd::Bdd;
using bdd::Manager;

TEST(Lmax, SingleFunctionPicksAnyOnsetVertex) {
  Manager mgr(4);
  const Bdd chi = Bdd::var(mgr, 1) & ~Bdd::var(mgr, 3);
  const LmaxResult r = lmax(mgr, 4, {chi});
  EXPECT_EQ(r.coverage, 1u);
  EXPECT_TRUE(r.covers[0]);
  // Chosen mask must satisfy chi.
  std::vector<bool> a(4, false);
  for (unsigned i = 0; i < 4; ++i) a[i] = (r.z_mask >> i) & 1;
  EXPECT_TRUE(chi.eval(a));
}

TEST(Lmax, PrefersSharedVertex) {
  Manager mgr(3);
  const Bdd a = Bdd::var(mgr, 0);
  const Bdd b = Bdd::var(mgr, 0) & Bdd::var(mgr, 1);
  const Bdd c = ~Bdd::var(mgr, 0);
  const LmaxResult r = lmax(mgr, 3, {a, b, c});
  EXPECT_EQ(r.coverage, 2u);  // a and b share x0=1,x1=1; c conflicts
  EXPECT_TRUE(r.covers[0]);
  EXPECT_TRUE(r.covers[1]);
  EXPECT_FALSE(r.covers[2]);
}

TEST(Lmax, DisjointFunctionsGiveCoverageOne) {
  Manager mgr(2);
  const Bdd a = Bdd::var(mgr, 0) & Bdd::var(mgr, 1);
  const Bdd b = ~Bdd::var(mgr, 0) & ~Bdd::var(mgr, 1);
  const LmaxResult r = lmax(mgr, 2, {a, b});
  EXPECT_EQ(r.coverage, 1u);
}

TEST(LmaxExplicit, MatchesPaperCoveringTable) {
  // Fig. 5 columns: chi1 with 7 vertices, chi2 with 3; shared = 2.
  Manager mgr(5);
  const Bdd z0 = Bdd::var(mgr, 0), z1 = Bdd::var(mgr, 1), z2 = Bdd::var(mgr, 2),
            z3 = Bdd::var(mgr, 3), z4 = Bdd::var(mgr, 4);
  const Bdd chi1 = (~z0 & ~z1 & z2 & z3) | (~z0 & z2 & z3 & ~z4) |
                   (~z0 & ~z1 & z4) | (~z0 & ~z2 & ~z3 & z4);
  const Bdd chi2 = (~z0 & ~z1 & ~z2 & z3 & z4) | (~z0 & z1 & z2 & z3 & ~z4) |
                   (~z0 & z1 & z2 & ~z3 & z4);
  const LmaxResult imp = lmax(mgr, 5, {chi1, chi2});
  const LmaxResult exp = lmax_explicit(mgr, 5, {chi1, chi2});
  EXPECT_EQ(imp.coverage, 2u);
  EXPECT_EQ(exp.coverage, 2u);
}

/// The tie rule, by enumeration: the first maximizer in lexicographic order
/// with z_0 most significant and 0 before 1.
std::uint64_t lex_smallest_maximizer(std::uint32_t p,
                                     const std::vector<Bdd>& chis) {
  std::vector<bool> a(p, false);
  unsigned best = 0;
  std::uint64_t best_z = 0;
  for (std::uint64_t idx = 0; idx < (std::uint64_t{1} << p); ++idx) {
    std::uint64_t z = 0;
    for (std::uint32_t i = 0; i < p; ++i) {
      a[i] = (idx >> (p - 1 - i)) & 1;
      if (a[i]) z |= std::uint64_t{1} << i;
    }
    unsigned cover = 0;
    for (const Bdd& chi : chis) cover += chi.eval(a);
    if (cover > best || idx == 0) {
      best = cover;
      best_z = z;
    }
  }
  return best_z;
}

class LmaxRandom : public ::testing::TestWithParam<int> {};

TEST_P(LmaxRandom, ImplicitMatchesExplicit) {
  // Seeds 0-19: 6..10 classes, 2..7 cube unions. Seeds 20-39: 11..16
  // classes and up to 8 χs, some constant 1 and some built from the
  // complement of an earlier χ, so that members share nodes through
  // complement edges.
  const bool wide = GetParam() >= 20;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 92821 + 1);
  const std::uint32_t p = wide ? 11 + GetParam() % 6 : 6 + GetParam() % 5;
  Manager mgr(p);
  const std::size_t m = 2 + rng.below(wide ? 7 : 6);
  std::vector<Bdd> chis;
  for (std::size_t k = 0; k < m; ++k) {
    if (wide && rng.chance(1, 6)) {
      chis.push_back(Bdd::one(mgr));
      continue;
    }
    Bdd f = Bdd::zero(mgr);
    const int cubes = 1 + static_cast<int>(rng.below(4));
    for (int c = 0; c < cubes; ++c) {
      std::vector<unsigned> vars;
      std::vector<bool> phases;
      for (std::uint32_t v = 0; v < p; ++v) {
        if (rng.chance(1, 2)) continue;
        vars.push_back(v);
        phases.push_back(rng.coin());
      }
      f = f | Bdd::cube(mgr, vars, phases);
    }
    if (wide && k > 0 && rng.chance(1, 3)) {
      const Bdd& earlier = chis[rng.below(k)];
      f = rng.coin() ? ~earlier : (~earlier | f);
    }
    chis.push_back(f);
  }
  const LmaxResult imp = lmax(mgr, p, chis);
  const LmaxResult exp = lmax_explicit(mgr, p, chis);
  EXPECT_EQ(imp.coverage, exp.coverage);
  EXPECT_EQ(imp.z_mask, lex_smallest_maximizer(p, chis));
  // The implicit pick must attain the explicit maximum, and covers[k] must
  // say whether χ_k contains it.
  std::vector<bool> a(p, false);
  for (std::uint32_t i = 0; i < p; ++i) a[i] = (imp.z_mask >> i) & 1;
  unsigned cover = 0;
  ASSERT_EQ(imp.covers.size(), chis.size());
  for (std::size_t k = 0; k < chis.size(); ++k) {
    EXPECT_EQ(imp.covers[k], chis[k].eval(a)) << "chi " << k;
    cover += chis[k].eval(a);
  }
  EXPECT_EQ(cover, exp.coverage);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LmaxRandom, ::testing::Range(0, 40));

// The maximum of the summed χ indicators equals an exhaustive count, and the
// chosen z attains it: small p, many χs.
class AddSumProperty : public ::testing::TestWithParam<int> {};

TEST_P(AddSumProperty, MaxMatchesExhaustiveCount) {
  const unsigned n = 5;
  Manager mgr(n);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  std::vector<Bdd> funcs;
  for (int k = 0; k < 6; ++k) {
    Bdd f = Bdd::zero(mgr);
    for (int cubes = 0; cubes < 3; ++cubes) {
      std::vector<unsigned> vars;
      std::vector<bool> phases;
      for (unsigned v = 0; v < n; ++v) {
        if (rng.coin()) continue;
        vars.push_back(v);
        phases.push_back(rng.coin());
      }
      f = f | Bdd::cube(mgr, vars, phases);
    }
    funcs.push_back(f);
  }
  unsigned best = 0;
  std::vector<bool> a(n, false);
  for (std::uint64_t row = 0; row < (1u << n); ++row) {
    for (unsigned v = 0; v < n; ++v) a[v] = (row >> v) & 1;
    unsigned cover = 0;
    for (const Bdd& f : funcs) cover += f.eval(a);
    best = std::max(best, cover);
  }
  const LmaxResult r = lmax(mgr, n, funcs);
  EXPECT_EQ(r.coverage, best);
  for (unsigned v = 0; v < n; ++v) a[v] = (r.z_mask >> v) & 1;
  unsigned cover = 0;
  for (const Bdd& f : funcs) cover += f.eval(a);
  EXPECT_EQ(cover, best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddSumProperty, ::testing::Range(0, 10));

/// χs built before the guard is attached, so that only lmax can trip it.
std::vector<Bdd> governance_chis(Manager& mgr) {
  const Bdd z0 = Bdd::var(mgr, 0), z1 = Bdd::var(mgr, 1), z2 = Bdd::var(mgr, 2);
  return {z0 & ~z1, z1 | z2, ~z0 & z2};
}

TEST(Lmax, CancelledGuardStopsTheSearch) {
  Manager mgr(3);
  const std::vector<Bdd> chis = governance_chis(mgr);
  util::ResourceGuard guard;
  guard.cancel();
  mgr.set_resource_guard(&guard);
  try {
    lmax(mgr, 3, chis);
    ADD_FAILURE() << "lmax ignored a cancelled guard";
  } catch (const util::ResourceExhausted& e) {
    EXPECT_EQ(e.kind(), util::ResourceKind::cancelled);
  }
  mgr.set_resource_guard(nullptr);
}

TEST(Lmax, ExpiredDeadlineStopsTheSearch) {
  Manager mgr(3);
  const std::vector<Bdd> chis = governance_chis(mgr);
  util::ResourceGuard guard;
  guard.set_deadline_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  mgr.set_resource_guard(&guard);
  EXPECT_THROW(lmax(mgr, 3, chis), util::Timeout);
  mgr.set_resource_guard(nullptr);
}

TEST(Lmax, CountsVisitedTuplesOnlyWhenObsIsOn) {
  Manager mgr(3);
  const std::vector<Bdd> chis = governance_chis(mgr);
  const bool was_enabled = obs::enabled();
  obs::Counter& visits =
      obs::Registry::instance().counter("engine.lmax_visits");
  obs::set_enabled(false);
  const std::uint64_t before = visits.value();
  lmax(mgr, 3, chis);
  EXPECT_EQ(visits.value(), before);
  obs::set_enabled(true);
  const LmaxResult r = lmax(mgr, 3, chis);
  obs::set_enabled(was_enabled);
  EXPECT_EQ(r.coverage, 2u);
  EXPECT_GE(visits.value() - before, 1u);
}

}  // namespace
}  // namespace imodec
