#pragma once
// Dynamic bit vector used for truth tables and vertex sets.
//
// A BitVec of size n stores bits 0..n-1 packed into 64-bit words. It is the
// workhorse behind TruthTable and the explicit class/partition machinery in
// src/decomp. Word-level access is exposed so truth-table operators can work
// 64 bits at a time.

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace imodec {

class BitVec {
 public:
  BitVec() = default;
  /// Construct with `size` bits, all initialized to `value`.
  explicit BitVec(std::size_t size, bool value = false);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i, bool v) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  void flip(std::size_t i) { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  /// Resize to `size` bits; new bits are zero.
  void resize(std::size_t size);
  /// Set all bits to `value`.
  void fill(bool value);

  /// Number of set bits.
  std::size_t count() const;
  /// True iff no bit is set.
  bool none() const;
  /// True iff all bits are set.
  bool all() const;
  /// Index of the lowest set bit, or size() if none.
  std::size_t first_set() const;

  BitVec& operator&=(const BitVec& o);
  BitVec& operator|=(const BitVec& o);
  BitVec& operator^=(const BitVec& o);
  /// Complement within the vector's size (tail bits stay normalized).
  void complement();

  friend BitVec operator&(BitVec a, const BitVec& b) { return a &= b; }
  friend BitVec operator|(BitVec a, const BitVec& b) { return a |= b; }
  friend BitVec operator^(BitVec a, const BitVec& b) { return a ^= b; }
  BitVec operator~() const;

  bool operator==(const BitVec& o) const = default;

  /// True iff every set bit of *this is also set in `o`.
  bool is_subset_of(const BitVec& o) const;
  /// True iff no bit is set in both.
  bool disjoint_with(const BitVec& o) const;

  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  /// The word_count() words, bit i at word i / 64, bit i % 64.
  const std::uint64_t* data() const { return words_.data(); }
  void set_word(std::size_t w, std::uint64_t v) {
    words_[w] = v;
    normalize_tail();
  }

  /// Stable hash of contents (for unordered_map keys).
  std::size_t hash() const;

  /// "0"/"1" characters, bit 0 first.
  std::string to_string() const;

 private:
  void normalize_tail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

struct BitVecHash {
  std::size_t operator()(const BitVec& v) const { return v.hash(); }
};

}  // namespace imodec
