//===- analysis/Dataflow.h - Generic dense dataflow solver ------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic forward/backward iterative dataflow solver over dense
/// bitsets (support/BitVector.h), the analysis substrate ROADMAP O3 calls
/// for. A DataflowProblem names the direction, the meet (union or
/// intersection), a dense universe, and an in-place per-block transfer;
/// the solver owns the block ordering, the meet over CFG edges, and the
/// fixed-point loop.
///
/// Predicate partitioning: transfers that depend on guard predicates
/// consult PQS/BDD through predicatedWriteKind() — a definition kills a
/// fact only when its write condition is provably True, generates it
/// unless provably False, and on BDD node-budget exhaustion (Invalid)
/// both answers degrade to Maybe, which every client must treat
/// conservatively (no kill, possible gen). The exact BDD-valued
/// refinement of the same partition lives in PredicatedLiveness
/// (analysis/Liveness.h); this layer is its dense block-level companion.
///
/// Clients in this file:
///  - RegNumbering       dense Reg <-> index mapping for one function
///  - ReachingDefBlocks  "some def of R in another block reaches this
///                       block's entry" (forward/union), the framework
///                       host for lint's defReachesEntry exemption
///  - DefiniteAssignment "R is surely written on every path to this
///                       block's entry" (forward/intersection), used by
///                       the uninit-read check to prune proven-safe reads
///
/// Function-level liveness (analysis/Liveness.cpp) runs on the same
/// solver with a backward/union problem.
///
/// Thread-safety: all classes are immutable after construction and may be
/// shared across threads.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_DATAFLOW_H
#define ANALYSIS_DATAFLOW_H

#include "analysis/CFG.h"
#include "ir/Function.h"
#include "support/BitVector.h"

#include <vector>

namespace cpr {

class RegionPQS;

/// Dense numbering of every register mentioned by one function (guards,
/// sources, definitions, observables) in ascending register order (class,
/// then id), so iterating a set's bits in index order visits registers in
/// ascending order. The numbering is the bit universe of every dataflow
/// problem below.
///
/// No hashing: a per-class table, sized by the function's register-id
/// allocator, maps ids straight to indices. Each table is capped at a
/// multiple of the function's operation count, so memory is bounded by
/// the function's size and never by an id read from input; the rare ids
/// beyond a table are found by binary search.
class RegNumbering {
public:
  explicit RegNumbering(const Function &F);

  size_t size() const { return Regs.size(); }
  /// Dense index of \p R, or -1 when \p R does not appear in the function.
  int indexOf(Reg R) const {
    unsigned C = static_cast<unsigned>(R.getClass());
    if (R.getId() < TableBegin[C + 1] - TableBegin[C])
      return static_cast<int>(Table[TableBegin[C] + R.getId()]) - 1;
    return searchSparse(R);
  }
  Reg regOf(size_t I) const { return Regs[I]; }

private:
  int searchSparse(Reg R) const;

  /// Every numbered register, ascending; index = position.
  std::vector<Reg> Regs;
  /// Table[TableBegin[C] + Id] = index + 1 of register (C, Id), or 0
  /// when absent, for Id below the class's table size.
  std::vector<uint32_t> Table;
  size_t TableBegin[NumRegClasses + 1] = {};
  /// Per class: Regs[ClassBegin[C], ClassBegin[C + 1]) holds class C.
  uint32_t ClassBegin[NumRegClasses + 1] = {};
};

/// How a definition slot behaves for dataflow purposes once its guard
/// predicate is taken into account.
enum class WriteKind {
  Always, ///< writes whenever control reaches the op (kills + gens)
  Maybe,  ///< may or may not write (gens, never kills)
  Never,  ///< provably never writes (neither kills nor gens)
};

/// Classifies definition slot \p D of op \p OpIdx of the block \p PQS was
/// built over. Consults the PQS/BDD guard expression when one is
/// available: a guard equal to BDD::True upgrades a predicated write to
/// Always, a guard equal to BDD::False (an unsatisfiable predicate)
/// downgrades it to Never, and BDD::Invalid (node-budget exhaustion)
/// yields the conservative Maybe. Passing null \p PQS uses the purely
/// syntactic classification (unguarded / FRP-positional => Always).
WriteKind predicatedWriteKind(const Operation &Op, const DefSlot &D,
                              const RegionPQS *PQS, size_t OpIdx);

/// One dataflow problem instance. The same object may be handed to many
/// solvers; it must not alias the solver's state.
class DataflowProblem {
public:
  enum class Direction { Forward, Backward };
  enum class Meet { Union, Intersection };

  virtual ~DataflowProblem() = default;

  virtual Direction direction() const = 0;
  virtual Meet meet() const = 0;
  /// Number of bits in every set.
  virtual size_t universeSize() const = 0;

  /// Value at the boundary: the entry block's in-set (Forward) or the
  /// contribution of function-leaving exits (Backward). Defaults to the
  /// empty set. \p V arrives sized and cleared.
  virtual void boundary(BitVector &V) const { (void)V; }

  /// In-place transfer through block \p LayoutIdx: \p V arrives holding
  /// the merged in-set (Forward) or merged out-set (Backward) and must
  /// leave holding the out-set (Forward) or in-set (Backward). The
  /// current global solution is readable through \p InSets (per-block
  /// in-sets, indexed by layout), which backward problems use to fold
  /// interior-exit contributions at their op positions.
  virtual void transfer(size_t LayoutIdx, BitVector &V,
                        const std::vector<BitVector> &InSets) const = 0;
};

/// Runs \p P over \p F to a fixed point. Results are per layout index.
class DataflowSolver {
public:
  DataflowSolver(const Function &F, const DataflowProblem &P);
  /// Same, reusing an exit enumeration of \p F the caller already built.
  DataflowSolver(const Function &F, const DataflowProblem &P,
                 const ExitTable &Exits);

  const BitVector &in(size_t LayoutIdx) const { return InSets[LayoutIdx]; }
  const BitVector &out(size_t LayoutIdx) const { return OutSets[LayoutIdx]; }
  /// Number of full passes over the block list until the fixed point.
  unsigned iterations() const { return Iterations; }

private:
  std::vector<BitVector> InSets;
  std::vector<BitVector> OutSets;
  unsigned Iterations = 0;
};

/// Forward/union client: bit (L, R) set iff some block other than the
/// program point itself holds a definition of R with a control-flow path
/// of at least one edge to the entry of block L — the exemption
/// use-before-def and compensation-completeness apply to registers that
/// "arrive from elsewhere" (including around loops). Unreachable blocks
/// participate exactly like the reachability closure it replaces: any
/// def-holding block seeds its successors.
class ReachingDefBlocks {
public:
  ReachingDefBlocks(const Function &F, const RegNumbering &N);

  /// True when a definition of \p R in some block can reach the entry of
  /// block \p LayoutIdx.
  bool reachesEntry(Reg R, size_t LayoutIdx) const;
  /// True when \p R has at least one definition anywhere in the function.
  bool hasAnyDef(Reg R) const;

  const RegNumbering &numbering() const { return N; }

private:
  const RegNumbering &N;
  std::vector<BitVector> ReachIn;
  BitVector AnyDef;
};

/// Forward/intersection client: bit (L, R) set iff every path from the
/// function entry to the entry of block L passes a definition that
/// surely writes R (predicate-aware: guarded writes under a non-True,
/// non-FRP predicate do not count). Blocks unreachable from the entry
/// keep the vacuous top value (everything assigned): no path from the
/// entry reaches them, so the universally-quantified claim holds — and
/// clients only use this analysis to *prune* candidate violations, never
/// to report them.
class DefiniteAssignment {
public:
  DefiniteAssignment(const Function &F, const RegNumbering &N);

  /// True when \p R is surely written on every entry path of block
  /// \p LayoutIdx.
  bool assignedAtEntry(Reg R, size_t LayoutIdx) const;

private:
  const RegNumbering &N;
  std::vector<BitVector> AssignedIn;
};

} // namespace cpr

#endif // ANALYSIS_DATAFLOW_H
