//===- support/BitVector.h - Dense dynamic bitset ---------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense dynamically-sized bitset for dataflow sets (ROADMAP O3): one
/// bit per universe element packed into 64-bit words, with the word-wise
/// bulk operations iterative dataflow spends its time in (|=, &=, andNot,
/// equality), plus raw word access for analyses with their own mask
/// pools. All set-algebra operations require operands of the same size();
/// the analysis that owns the universe numbering sizes every vector once
/// up front.
///
/// Thread-safety: const operations are safe concurrently; mutation
/// requires external synchronization (same contract as std::vector).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_BITVECTOR_H
#define SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cpr {

class BitVector {
public:
  BitVector() = default;
  /// A vector of \p N bits, all clear.
  explicit BitVector(size_t N)
      : NumBits(N), Words((N + WordBits - 1) / WordBits, 0) {}

  /// Number of bits in the universe (not the number set).
  size_t size() const { return NumBits; }

  /// Grows (or shrinks) to \p N bits; new bits are clear.
  void resize(size_t N) {
    Words.resize((N + WordBits - 1) / WordBits, 0);
    NumBits = N;
    clearTail();
  }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I / WordBits] >> (I % WordBits)) & 1;
  }

  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Words[I / WordBits] |= uint64_t(1) << (I % WordBits);
  }

  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Words[I / WordBits] &= ~(uint64_t(1) << (I % WordBits));
  }

  /// Clears every bit.
  void reset() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Number of set bits.
  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  bool none() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }
  bool any() const { return !none(); }

  /// Index of the first set bit at or after \p From, or npos.
  static constexpr size_t npos = ~size_t(0);
  size_t findNext(size_t From) const {
    if (From >= NumBits)
      return npos;
    size_t WI = From / WordBits;
    uint64_t W = Words[WI] & (~uint64_t(0) << (From % WordBits));
    while (true) {
      if (W)
        return WI * WordBits + static_cast<size_t>(__builtin_ctzll(W));
      if (++WI >= Words.size())
        return npos;
      W = Words[WI];
    }
  }
  size_t findFirst() const { return findNext(0); }

  /// Set union; returns true if this vector changed.
  bool orWith(const BitVector &O) {
    assert(NumBits == O.NumBits && "universe size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t New = Words[I] | O.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// Set intersection; returns true if this vector changed.
  bool andWith(const BitVector &O) {
    assert(NumBits == O.NumBits && "universe size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t New = Words[I] & O.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// Set difference (this &= ~O); returns true if this vector changed.
  bool andNot(const BitVector &O) {
    assert(NumBits == O.NumBits && "universe size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t New = Words[I] & ~O.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// Raw word access for analyses that keep masks in their own word
  /// pools. Bits past size() in the last word must stay clear.
  size_t numWords() const { return Words.size(); }
  const uint64_t *words() const { return Words.data(); }
  uint64_t *words() { return Words.data(); }

  bool operator==(const BitVector &O) const {
    return NumBits == O.NumBits && Words == O.Words;
  }
  bool operator!=(const BitVector &O) const { return !(*this == O); }

private:
  static constexpr size_t WordBits = 64;

  /// Bits past NumBits in the last word must stay clear so that count()
  /// and operator== see a canonical representation.
  void clearTail() {
    size_t Tail = NumBits % WordBits;
    if (Tail && !Words.empty())
      Words.back() &= (uint64_t(1) << Tail) - 1;
  }

  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace cpr

#endif // SUPPORT_BITVECTOR_H
