//===- analysis/Liveness.h - Register liveness ------------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two liveness analyses:
///
///  - Function-level set liveness (iterative dataflow over blocks), used by
///    every ICBM phase, the scheduler's speculation legality check and
///    dead-code elimination. Predicated definitions under a non-true guard
///    do not kill (conservative); FRP-positional guards and cmpp UN/UC
///    targets do, wired cmpp targets do not.
///
///    Block summaries: each solve first walks every block once, top-down,
///    and reduces it to word masks over the dense register numbering
///    (analysis/Dataflow.h): Gen (registers read before any sure write),
///    KillAll (every register some op surely writes) and, per interior
///    exit j, KillAt_j (sure writes at or above the exit op). The
///    fixed-point transfer is then pure word arithmetic,
///
///      In = Gen | (Out - KillAll) | U_j (In(target_j) - KillAt_j),
///
///    with halt/trap exits folding in the observable set. This is exactly
///    the op-by-op backward walk with interior exits folded at their
///    positions, composed once instead of re-walked every iteration.
///
///    Results are read through LiveSet, a non-owning view of one solved
///    bit set: contains() is a table lookup and iteration visits
///    registers in ascending order. Views stay valid while the Liveness
///    they came from lives; nothing is materialized per query.
///
///  - Predicated (expression-valued) intra-block liveness, following the
///    predicate-aware dataflow of [JS96] that the paper's predicate
///    speculation phase depends on: the liveness of each register at each
///    point is a boolean expression (BDD) over the region's predicate
///    atoms, so "would promoting this operation's guard overwrite a live
///    value" is an exact query.
///
/// Thread-safety: Liveness is immutable after construction (no lazy
/// state) and may be shared across threads, as may its views.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_LIVENESS_H
#define ANALYSIS_LIVENESS_H

#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "analysis/PQS.h"
#include "ir/Function.h"
#include "support/BitVector.h"

#include <iterator>
#include <unordered_map>
#include <vector>

namespace cpr {

/// A read-only view of one solved live set. Default-constructed, it is
/// the empty set.
class LiveSet {
public:
  LiveSet() = default;
  LiveSet(const BitVector &Bits, const RegNumbering &N)
      : Bits(&Bits), N(&N) {}

  bool contains(Reg R) const {
    if (!Bits)
      return false;
    int I = N->indexOf(R);
    return I >= 0 && Bits->test(static_cast<size_t>(I));
  }
  size_t size() const { return Bits ? Bits->count() : 0; }

  /// ORs this set into \p V, a vector over the same numbering.
  void addTo(BitVector &V) const {
    if (Bits)
      V.orWith(*Bits);
  }

  /// Forward iteration in ascending register order.
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Reg;
    using difference_type = std::ptrdiff_t;
    using pointer = const Reg *;
    using reference = Reg;

    iterator() = default;
    iterator(const BitVector *Bits, const RegNumbering *N, size_t I)
        : Bits(Bits), N(N), I(I) {}
    Reg operator*() const { return N->regOf(I); }
    iterator &operator++() {
      I = Bits->findNext(I + 1);
      return *this;
    }
    bool operator==(const iterator &O) const { return I == O.I; }
    bool operator!=(const iterator &O) const { return I != O.I; }

  private:
    const BitVector *Bits = nullptr;
    const RegNumbering *N = nullptr;
    size_t I = BitVector::npos;
  };
  iterator begin() const {
    return iterator(Bits, N, Bits ? Bits->findFirst() : BitVector::npos);
  }
  iterator end() const { return iterator(Bits, N, BitVector::npos); }

private:
  const BitVector *Bits = nullptr;
  const RegNumbering *N = nullptr;
};

/// Function-level set liveness. Not copyable or movable: views point into
/// it.
class Liveness {
public:
  explicit Liveness(const Function &F);
  Liveness(const Liveness &) = delete;
  Liveness &operator=(const Liveness &) = delete;

  /// Registers live on entry to / exit from block \p B (empty for an
  /// unknown block).
  LiveSet liveIn(BlockId B) const;
  LiveSet liveOut(BlockId B) const;

  /// Registers live when the branch/halt at op \p OpIdx of block \p B
  /// leaves the block (the live-in of its target, or the observable set
  /// for halt). \p B need not be a block of the analyzed function: the
  /// target is resolved from B's own pbr.
  LiveSet liveAtExit(const Function &F, const Block &B, size_t OpIdx) const;

  /// The function's observable registers, live wherever it halts.
  LiveSet observable() const { return LiveSet(Observable, N); }

  /// The register universe of every set this analysis hands out.
  const RegNumbering &numbering() const { return N; }

private:
  RegNumbering N;
  LayoutMap Layout;
  BitVector Observable;
  DataflowSolver Solution;
};

/// Predicated intra-block liveness: per operation index, a map from
/// register to the BDD condition under which it is live *before* the
/// operation executes.
class PredicatedLiveness {
public:
  /// \param F the function; \p B the analyzed block; \p PQS expressions
  /// for \p B; \p L function-level liveness (for exit live sets).
  PredicatedLiveness(const Function &F, const Block &B, RegionPQS &PQS,
                     const Liveness &L);

  /// The condition under which \p R is live immediately after op \p OpIdx.
  /// Returns BDD::False when \p R is dead there.
  BDD::NodeRef liveAfter(size_t OpIdx, Reg R) const;

  /// The condition under which \p R is live immediately before op \p OpIdx.
  BDD::NodeRef liveBefore(size_t OpIdx, Reg R) const;

private:
  using LiveMap = std::unordered_map<Reg, BDD::NodeRef>;
  static BDD::NodeRef get(const LiveMap &M, Reg R);

  // LiveBeforeOp[I] = liveness map at the program point before op I.
  // An extra trailing entry holds the block-end (fall-through) map.
  std::vector<LiveMap> LiveBeforeOp;
};

} // namespace cpr

#endif // ANALYSIS_LIVENESS_H
