#pragma once
// Shared fixtures: the worked example of the paper (functions f1 and f2 of
// Fig. 2 with bound set {x1,x2,x3} and free set {y1,y2}).
//
// Variable numbering: x1,x2,x3,y1,y2 = table variables 0..4. A bound-set
// vertex written "x1x2x3" in the paper maps to index x1*1 + x2*2 + x3*4.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "decomp/types.hpp"
#include "logic/truthtable.hpp"
#include "util/rng.hpp"

namespace imodec::testfix {

/// Build a 5-variable function from its decomposition chart: rows[y] is the
/// 8-character column string for free-set vertex y (y1*1 + y2*2), column
/// order 000..111 in paper order (x1 the leftmost character's first bit).
inline TruthTable from_chart(const char* r00, const char* r01, const char* r10,
                             const char* r11) {
  const char* rows[4] = {r00, r01, r10, r11};
  TruthTable f(5);
  for (unsigned y = 0; y < 4; ++y) {
    for (unsigned col = 0; col < 8; ++col) {
      // Paper column label "x1 x2 x3" counts x1 as the most significant
      // printed digit but enumerates 000,001,010,... i.e. x3 is the LSB of
      // the printed label.
      const unsigned x1 = (col >> 2) & 1, x2 = (col >> 1) & 1, x3 = col & 1;
      const std::uint64_t input = x1 | (x2 << 1) | (x3 << 2) |
                                  ((y & 1) << 3) |
                                  (static_cast<std::uint64_t>(y >> 1) << 4);
      f.set(input, rows[y][col] == '1');
    }
  }
  return f;
}

/// f1 of Fig. 2 a).
inline TruthTable paper_f1() {
  return from_chart("00010111", "11111110", "11111110", "00010110");
}

/// f2 of Fig. 2 b).
inline TruthTable paper_f2() {
  return from_chart("00010101", "01111110", "01111110", "11101010");
}

/// Bound set {x1,x2,x3}, free set {y1,y2}.
inline VarPartition paper_vp() {
  VarPartition vp;
  vp.bound = {0, 1, 2};
  vp.free_set = {3, 4};
  return vp;
}

/// A random function and a split of its variables into a free set of size
/// nf (0..12) and a scattered bound set of 1..5 variables, each in random
/// order, with n <= 14 variables in all. Used to reach chart columns below,
/// at and above one 64-bit word.
struct RandomShape {
  TruthTable f;
  VarPartition vp;
};
inline RandomShape random_shape(Rng& rng, unsigned nf) {
  const unsigned n =
      nf + 1 + static_cast<unsigned>(rng.below(std::min(5u, 14 - nf)));
  RandomShape s{TruthTable(n), {}};
  for (std::uint64_t row = 0; row < s.f.num_rows(); ++row)
    s.f.set(row, rng.coin());
  std::vector<unsigned> vars(n);
  for (unsigned v = 0; v < n; ++v) vars[v] = v;
  for (unsigned i = 0; i + 1 < n; ++i)
    std::swap(vars[i], vars[i + rng.below(n - i)]);
  s.vp.free_set.assign(vars.begin(), vars.begin() + nf);
  s.vp.bound.assign(vars.begin() + nf, vars.end());
  return s;
}

/// Map a paper vertex string "x1x2x3" to our vertex index.
inline std::uint32_t vx(const char* bits) {
  return static_cast<std::uint32_t>((bits[0] - '0') | ((bits[1] - '0') << 1) |
                                    ((bits[2] - '0') << 2));
}

}  // namespace imodec::testfix
