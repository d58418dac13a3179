#include "logic/truthtable.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace imodec {

TruthTable::TruthTable(unsigned num_vars, bool value)
    : num_vars_(num_vars), bits_(std::uint64_t{1} << num_vars, value) {
  assert(num_vars <= kMaxVars);
}

TruthTable TruthTable::var(unsigned num_vars, unsigned v) {
  assert(v < num_vars);
  TruthTable t(num_vars);
  for (std::uint64_t row = 0; row < t.num_rows(); ++row)
    if ((row >> v) & 1) t.bits_.set(row, true);
  return t;
}

TruthTable TruthTable::from_string(const std::string& bits) {
  std::uint64_t n = bits.size();
  assert(n > 0 && (n & (n - 1)) == 0);
  unsigned vars = 0;
  while ((std::uint64_t{1} << vars) < n) ++vars;
  TruthTable t(vars);
  for (std::uint64_t i = 0; i < n; ++i) {
    assert(bits[i] == '0' || bits[i] == '1');
    t.bits_.set(i, bits[i] == '1');
  }
  return t;
}

TruthTable& TruthTable::operator&=(const TruthTable& o) {
  assert(num_vars_ == o.num_vars_);
  bits_ &= o.bits_;
  return *this;
}

TruthTable& TruthTable::operator|=(const TruthTable& o) {
  assert(num_vars_ == o.num_vars_);
  bits_ |= o.bits_;
  return *this;
}

TruthTable& TruthTable::operator^=(const TruthTable& o) {
  assert(num_vars_ == o.num_vars_);
  bits_ ^= o.bits_;
  return *this;
}

TruthTable TruthTable::operator~() const {
  TruthTable t = *this;
  t.bits_.complement();
  return t;
}

TruthTable TruthTable::cofactor(unsigned v, bool value) const {
  assert(v < num_vars_);
  TruthTable t(num_vars_);
  const std::uint64_t bit = std::uint64_t{1} << v;
  for (std::uint64_t row = 0; row < num_rows(); ++row) {
    const std::uint64_t src = value ? (row | bit) : (row & ~bit);
    t.bits_.set(row, bits_.get(src));
  }
  return t;
}

TruthTable TruthTable::tie(unsigned keep, unsigned drop) const {
  const TruthTable x = var(num_vars_, keep);
  return (x & cofactor(keep, true).cofactor(drop, true)) |
         (~x & cofactor(keep, false).cofactor(drop, false));
}

bool TruthTable::is_dont_care(unsigned v) const {
  const std::uint64_t bit = std::uint64_t{1} << v;
  for (std::uint64_t row = 0; row < num_rows(); ++row) {
    if ((row & bit) == 0 && bits_.get(row) != bits_.get(row | bit))
      return false;
  }
  return true;
}

std::vector<unsigned> TruthTable::support() const {
  std::vector<unsigned> s;
  for (unsigned v = 0; v < num_vars_; ++v)
    if (!is_dont_care(v)) s.push_back(v);
  return s;
}

TruthTable TruthTable::permute(const std::vector<unsigned>& perm) const {
  // Old row of new row r = lo[low bits of r] | hi[high bits of r]. Each table
  // is built in O(2^k): entry v extends the entry without v's lowest set bit
  // by that bit's old variable.
  constexpr unsigned kLoBits = (kMaxVars + 1) / 2;
  const unsigned n = static_cast<unsigned>(perm.size());
  const unsigned lo_bits = std::min(n, kLoBits);
  std::uint64_t lo[std::uint64_t{1} << kLoBits];
  std::uint64_t hi[std::uint64_t{1} << (kMaxVars - kLoBits)];
  const auto fill = [&](std::uint64_t* map, unsigned first, unsigned bits) {
    map[0] = 0;
    for (std::uint64_t v = 1; v < (std::uint64_t{1} << bits); ++v) {
      const unsigned old = perm[first + std::countr_zero(v)];
      assert(old == kNoVar || old < num_vars_);
      map[v] = map[v & (v - 1)] | (old == kNoVar ? 0 : std::uint64_t{1} << old);
    }
  };
  fill(lo, 0, lo_bits);
  fill(hi, lo_bits, n - lo_bits);

  TruthTable t(n);
  const std::uint64_t lo_mask = (std::uint64_t{1} << lo_bits) - 1;
  for (std::uint64_t row = 0; row < t.num_rows(); ++row)
    t.set(row, get(lo[row & lo_mask] | hi[row >> lo_bits]));
#ifndef NDEBUG
  // Every support variable of *this must be covered by perm.
  for (unsigned v : support())
    assert(std::find(perm.begin(), perm.end(), v) != perm.end() &&
           "permute dropped a support variable");
#endif
  return t;
}

}  // namespace imodec
