//===- analysis/Dataflow.cpp - Generic dense dataflow solver --------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

#include "analysis/CFG.h"
#include "analysis/PQS.h"
#include "ir/CmppAction.h"

#include <algorithm>

using namespace cpr;

//===----------------------------------------------------------------------===//
// RegNumbering
//===----------------------------------------------------------------------===//

RegNumbering::RegNumbering(const Function &F) {
  // The register allocator's counters bound the ids a function hands out;
  // the cap keeps an id read from input from sizing the tables.
  const size_t Cap = 8 * (F.totalOps() + F.observableRegs().size()) + 64;
  AllocatorState Alloc = F.allocatorState();
  for (unsigned C = 0; C < NumRegClasses; ++C)
    TableBegin[C + 1] =
        TableBegin[C] + std::min<size_t>(Alloc.NextRegId[C], Cap);
  Table.assign(TableBegin[NumRegClasses], 0);

  // Mark every register slot: observables, guards, register sources and
  // definitions. The always-true predicate is never defined and never
  // tracked by any client (every transfer skips it as a guard), so it
  // earns no bit. Ids past a class's table are collected apart.
  std::vector<Reg> Sparse;
  auto Mark = [&](Reg R) {
    if (!R.isValid() || R.isTruePred())
      return;
    unsigned C = static_cast<unsigned>(R.getClass());
    if (R.getId() < TableBegin[C + 1] - TableBegin[C])
      Table[TableBegin[C] + R.getId()] = 1;
    else
      Sparse.push_back(R);
  };
  for (Reg R : F.observableRegs())
    Mark(R);
  for (size_t L = 0, E = F.numBlocks(); L != E; ++L)
    for (const Operation &Op : F.block(L).ops()) {
      Mark(Op.getGuard());
      for (const Operand &S : Op.srcs())
        if (S.isReg())
          Mark(S.getReg());
      for (const DefSlot &D : Op.defs())
        Mark(D.R);
    }
  std::sort(Sparse.begin(), Sparse.end());
  Sparse.erase(std::unique(Sparse.begin(), Sparse.end()), Sparse.end());

  // Ascending indices: per class, the table's ids, then the sparse ones.
  auto SparseIt = Sparse.begin();
  for (unsigned C = 0; C < NumRegClasses; ++C) {
    ClassBegin[C] = static_cast<uint32_t>(Regs.size());
    RegClass RC = static_cast<RegClass>(C);
    for (size_t Slot = TableBegin[C]; Slot != TableBegin[C + 1]; ++Slot)
      if (Table[Slot]) {
        Regs.push_back(Reg(RC, static_cast<uint32_t>(Slot - TableBegin[C])));
        Table[Slot] = static_cast<uint32_t>(Regs.size());
      }
    for (; SparseIt != Sparse.end() && SparseIt->getClass() == RC; ++SparseIt)
      Regs.push_back(*SparseIt);
  }
  ClassBegin[NumRegClasses] = static_cast<uint32_t>(Regs.size());
}

int RegNumbering::searchSparse(Reg R) const {
  unsigned C = static_cast<unsigned>(R.getClass());
  auto Begin = Regs.begin() + ClassBegin[C];
  auto End = Regs.begin() + ClassBegin[C + 1];
  auto It = std::lower_bound(Begin, End, R);
  if (It == End || *It != R)
    return -1;
  return static_cast<int>(It - Regs.begin());
}

//===----------------------------------------------------------------------===//
// Predicate-partitioned write classification
//===----------------------------------------------------------------------===//

WriteKind cpr::predicatedWriteKind(const Operation &Op, const DefSlot &D,
                                   const RegionPQS *PQS, size_t OpIdx) {
  if (Op.isCmpp()) {
    // UN/UC targets write even under a false guard (Table 1); wired
    // targets write only when guard and condition agree, which a False
    // guard rules out entirely.
    if (D.Act == CmppAction::UN || D.Act == CmppAction::UC)
      return WriteKind::Always;
    if (PQS && PQS->guardExpr(OpIdx) == BDD::False)
      return WriteKind::Never;
    return WriteKind::Maybe;
  }
  if (Op.getGuard().isTruePred() || Op.isFrpGuard())
    return WriteKind::Always;
  if (PQS) {
    BDD::NodeRef G = PQS->guardExpr(OpIdx);
    if (G == BDD::True)
      return WriteKind::Always;
    if (G == BDD::False)
      return WriteKind::Never;
    // BDD::Invalid (budget exhaustion) falls through to Maybe.
  }
  return WriteKind::Maybe;
}

//===----------------------------------------------------------------------===//
// DataflowSolver
//===----------------------------------------------------------------------===//

DataflowSolver::DataflowSolver(const Function &F, const DataflowProblem &P)
    : DataflowSolver(F, P, ExitTable(F, LayoutMap(F))) {}

DataflowSolver::DataflowSolver(const Function &F, const DataflowProblem &P,
                               const ExitTable &Exits) {
  const size_t NBlocks = F.numBlocks();
  const size_t Universe = P.universeSize();
  const bool Forward = P.direction() == DataflowProblem::Direction::Forward;
  const bool Union = P.meet() == DataflowProblem::Meet::Union;

  BitVector Boundary(Universe);
  P.boundary(Boundary);
  BitVector Full(Universe);
  if (!Union)
    for (size_t I = 0; I < Universe; ++I)
      Full.set(I);

  // Merge inputs per block: predecessors (forward) or exits (backward,
  // with function-leaving exits -- halt/trap/fall-off-end, or a target
  // that no longer exists -- contributing the boundary value).
  std::vector<std::vector<size_t>> Preds(Forward ? NBlocks : 0);
  if (Forward)
    for (size_t L = 0; L < NBlocks; ++L)
      for (const ExitTable::Exit &E : Exits.of(L))
        if (E.TargetIdx >= 0)
          Preds[static_cast<size_t>(E.TargetIdx)].push_back(L);

  // Intersection problems start interior blocks at top (full) so the meet
  // can only descend; union problems start empty. A no-predecessor,
  // non-entry block keeps its initial value (vacuous: it never executes).
  InSets.assign(NBlocks, Union ? BitVector(Universe) : Full);
  OutSets.assign(NBlocks, Union ? BitVector(Universe) : Full);
  if (NBlocks > 0 && Forward)
    InSets[0] = Boundary;

  BitVector Merged(Universe);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Iterations;
    for (size_t Step = 0; Step < NBlocks; ++Step) {
      size_t L = Forward ? Step : NBlocks - 1 - Step;
      if (Forward) {
        // In = meet over predecessors' out (entry adds the boundary).
        if (L == 0 || !Preds[L].empty()) {
          bool First = true;
          if (L == 0) {
            Merged = Boundary;
            First = false;
          }
          for (size_t Pr : Preds[L]) {
            if (First) {
              Merged = OutSets[Pr];
              First = false;
            } else if (Union) {
              Merged.orWith(OutSets[Pr]);
            } else {
              Merged.andWith(OutSets[Pr]);
            }
          }
          if (Merged != InSets[L]) {
            InSets[L] = Merged;
            Changed = true;
          }
        }
        Merged = InSets[L];
        P.transfer(L, Merged, InSets);
        if (Merged != OutSets[L]) {
          std::swap(OutSets[L], Merged);
          Changed = true;
        }
      } else {
        // Out = meet over exits' in (function-leaving exits contribute
        // the boundary).
        bool First = true;
        for (const ExitTable::Exit &E : Exits.of(L)) {
          const BitVector &V = E.TargetIdx < 0
                                   ? Boundary
                                   : InSets[static_cast<size_t>(E.TargetIdx)];
          if (First) {
            Merged = V;
            First = false;
          } else if (Union) {
            Merged.orWith(V);
          } else {
            Merged.andWith(V);
          }
        }
        if (First)
          Merged.reset(); // no exits at all: empty contribution
        if (Merged != OutSets[L]) {
          OutSets[L] = Merged;
          Changed = true;
        }
        Merged = OutSets[L];
        P.transfer(L, Merged, InSets);
        if (Merged != InSets[L]) {
          std::swap(InSets[L], Merged);
          Changed = true;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// ReachingDefBlocks
//===----------------------------------------------------------------------===//

namespace {

/// Forward/union: In[L] = U over preds P of (In[P] | Gen[P]) — the set of
/// registers some other-position definition can reach. Gen is every
/// definition in the block, guarded or not, matching the reachability
/// closure semantics this replaces.
class ReachingDefProblem : public DataflowProblem {
public:
  ReachingDefProblem(const Function &F, const RegNumbering &N)
      : Universe(N.size()), Gen(F.numBlocks(), BitVector(N.size())) {
    for (size_t L = 0, E = F.numBlocks(); L != E; ++L)
      for (const Operation &Op : F.block(L).ops())
        for (const DefSlot &D : Op.defs()) {
          int I = N.indexOf(D.R);
          if (I >= 0)
            Gen[L].set(static_cast<size_t>(I));
        }
  }

  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::Union; }
  size_t universeSize() const override { return Universe; }
  void transfer(size_t LayoutIdx, BitVector &V,
                const std::vector<BitVector> &) const override {
    V.orWith(Gen[LayoutIdx]);
  }

  const std::vector<BitVector> &gen() const { return Gen; }

private:
  size_t Universe;
  std::vector<BitVector> Gen;
};

} // namespace

ReachingDefBlocks::ReachingDefBlocks(const Function &F, const RegNumbering &N)
    : N(N), AnyDef(N.size()) {
  ReachingDefProblem P(F, N);
  DataflowSolver S(F, P);
  ReachIn.reserve(F.numBlocks());
  for (size_t L = 0, E = F.numBlocks(); L != E; ++L) {
    ReachIn.push_back(S.in(L));
    AnyDef.orWith(P.gen()[L]);
  }
}

bool ReachingDefBlocks::reachesEntry(Reg R, size_t LayoutIdx) const {
  int I = N.indexOf(R);
  if (I < 0 || LayoutIdx >= ReachIn.size())
    return false;
  return ReachIn[LayoutIdx].test(static_cast<size_t>(I));
}

bool ReachingDefBlocks::hasAnyDef(Reg R) const {
  int I = N.indexOf(R);
  return I >= 0 && AnyDef.test(static_cast<size_t>(I));
}

//===----------------------------------------------------------------------===//
// DefiniteAssignment
//===----------------------------------------------------------------------===//

namespace {

/// Forward/intersection: In[L] = meet over preds of (In[P] | SureGen[P]),
/// where SureGen holds only definitions that write whenever control
/// reaches them (unguarded, FRP-positional, or cmpp UN/UC).
class DefiniteAssignmentProblem : public DataflowProblem {
public:
  DefiniteAssignmentProblem(const Function &F, const RegNumbering &N)
      : Universe(N.size()), SureGen(F.numBlocks(), BitVector(N.size())) {
    for (size_t L = 0, E = F.numBlocks(); L != E; ++L)
      for (const Operation &Op : F.block(L).ops())
        for (const DefSlot &D : Op.defs())
          if (predicatedWriteKind(Op, D, nullptr, 0) == WriteKind::Always) {
            int I = N.indexOf(D.R);
            if (I >= 0)
              SureGen[L].set(static_cast<size_t>(I));
          }
  }

  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::Intersection; }
  size_t universeSize() const override { return Universe; }
  void transfer(size_t LayoutIdx, BitVector &V,
                const std::vector<BitVector> &) const override {
    V.orWith(SureGen[LayoutIdx]);
  }

private:
  size_t Universe;
  std::vector<BitVector> SureGen;
};

} // namespace

DefiniteAssignment::DefiniteAssignment(const Function &F,
                                       const RegNumbering &N)
    : N(N) {
  DefiniteAssignmentProblem P(F, N);
  DataflowSolver S(F, P);
  AssignedIn.reserve(F.numBlocks());
  for (size_t L = 0, E = F.numBlocks(); L != E; ++L)
    AssignedIn.push_back(S.in(L));
}

bool DefiniteAssignment::assignedAtEntry(Reg R, size_t LayoutIdx) const {
  int I = N.indexOf(R);
  if (I < 0 || LayoutIdx >= AssignedIn.size())
    return false;
  return AssignedIn[LayoutIdx].test(static_cast<size_t>(I));
}
