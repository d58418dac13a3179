#pragma once
// Truth tables: completely-specified single-output Boolean functions over a
// fixed number of variables, stored as 2^n packed bits.
//
// Truth tables are the carrier representation for node functions in the
// logic network and for the explicit (non-implicit) reference algorithms that
// the tests cross-check the implicit engine against. n is capped at
// kMaxVars = 22 (4 Mbit): the parsers reject wider nodes, and for a wider
// network collapse_network returns nullopt and the driver restructures the
// multi-level network instead.

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvec.hpp"

namespace imodec {

class TruthTable {
 public:
  static constexpr unsigned kMaxVars = 22;

  TruthTable() = default;
  /// Constant-`value` function of `num_vars` variables.
  explicit TruthTable(unsigned num_vars, bool value = false);

  /// Projection function of variable v.
  static TruthTable var(unsigned num_vars, unsigned v);
  /// Parse "0110..."-style bit string, bit i = f(i), LSB of i = variable 0.
  /// Length must be a power of two.
  static TruthTable from_string(const std::string& bits);

  unsigned num_vars() const { return num_vars_; }
  std::uint64_t num_rows() const { return std::uint64_t{1} << num_vars_; }

  bool get(std::uint64_t row) const { return bits_.get(row); }
  void set(std::uint64_t row, bool v) { bits_.set(row, v); }

  /// f(assignment): bit i of `input` is the value of variable i.
  bool eval(std::uint64_t input) const { return bits_.get(input); }

  std::uint64_t count_ones() const { return bits_.count(); }
  bool is_constant() const { return bits_.none() || bits_.all(); }
  bool is_zero() const { return bits_.none(); }

  TruthTable& operator&=(const TruthTable& o);
  TruthTable& operator|=(const TruthTable& o);
  TruthTable& operator^=(const TruthTable& o);
  friend TruthTable operator&(TruthTable a, const TruthTable& b) {
    return a &= b;
  }
  friend TruthTable operator|(TruthTable a, const TruthTable& b) {
    return a |= b;
  }
  friend TruthTable operator^(TruthTable a, const TruthTable& b) {
    return a ^= b;
  }
  TruthTable operator~() const;

  bool operator==(const TruthTable& o) const = default;

  /// Shannon cofactor with variable v fixed (result keeps num_vars variables;
  /// v becomes a don't-care input).
  TruthTable cofactor(unsigned v, bool value) const;
  /// f with variable `drop` reading variable `keep` (the result keeps
  /// num_vars variables; `drop` becomes a don't-care input).
  TruthTable tie(unsigned keep, unsigned drop) const;
  /// True iff f does not depend on variable v.
  bool is_dont_care(unsigned v) const;
  /// Variables the function actually depends on.
  std::vector<unsigned> support() const;

  /// `perm` entry for a new variable that no old variable maps to.
  static constexpr unsigned kNoVar = ~0u;

  /// Re-express over a new variable set: new variable `i` is old variable
  /// `perm[i]`, or a variable the function ignores if perm[i] == kNoVar.
  /// perm.size() becomes the new num_vars; every old support variable must
  /// appear in perm. This is the one routine that places variables at row
  /// index bits; every other layout change goes through it.
  TruthTable permute(const std::vector<unsigned>& perm) const;

  std::size_t hash() const { return bits_.hash(); }
  /// Bit string, row 0 first.
  std::string to_string() const { return bits_.to_string(); }

  const BitVec& bits() const { return bits_; }
  BitVec& bits() { return bits_; }

 private:
  unsigned num_vars_ = 0;
  BitVec bits_;
};

struct TruthTableHash {
  std::size_t operator()(const TruthTable& t) const { return t.hash(); }
};

}  // namespace imodec
