//===- analysis/Liveness.cpp - Register liveness ---------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "support/Error.h"

#include <algorithm>

using namespace cpr;

namespace {

/// Returns true if \p Op always writes destination slot \p D when control
/// reaches it (so the definition kills liveness even in set analysis).
/// FRP-positional guards (isFrpGuard) are true whenever control reaches
/// the operation in program order, so such definitions kill as well.
bool defAlwaysWrites(const Operation &Op, const DefSlot &D) {
  if (Op.isCmpp())
    // UN/UC targets always write (Table 1); wired targets may not.
    return D.Act == CmppAction::UN || D.Act == CmppAction::UC;
  return Op.getGuard().isTruePred() || Op.isFrpGuard();
}

/// Backward/union liveness over the dense dataflow solver
/// (analysis/Dataflow.h), on block transfer summaries (see the file
/// comment of analysis/Liveness.h). Every mask lives in one word pool, so
/// summarizing a function costs a handful of allocations.
class LivenessProblem : public DataflowProblem {
public:
  LivenessProblem(const Function &F, const RegNumbering &N,
                  const ExitTable &Exits, const BitVector &Observable)
      : Observable(Observable), W(Observable.numWords()) {
    const size_t NBlocks = F.numBlocks();
    Blocks.reserve(NBlocks);
    for (size_t L = 0; L != NBlocks; ++L) {
      const Block &B = F.block(L);
      Summary S;
      S.Gen = Pool.size();
      S.KillAll = S.Gen + W;
      S.FirstExit = static_cast<uint32_t>(ExitList.size());
      Pool.resize(S.KillAll + W, 0);
      ExitTable::Range BlockExits = Exits.of(L);
      const ExitTable::Exit *NextExit = BlockExits.begin();
      // Top-down: a read survives to the block entry unless an op above
      // surely writes the register; an exit's live set survives unless an
      // op at or above the exit does.
      for (size_t OI = 0, OE = B.size(); OI != OE; ++OI) {
        const Operation &Op = B.ops()[OI];
        auto Gen = [&](Reg R) {
          int I = N.indexOf(R);
          if (I >= 0 && !test(S.KillAll, static_cast<size_t>(I)))
            set(S.Gen, static_cast<size_t>(I));
        };
        if (!Op.getGuard().isTruePred())
          Gen(Op.getGuard());
        for (const Operand &Src : Op.srcs())
          if (Src.isReg())
            Gen(Src.getReg());
        // The op's own reads precede its writes, so its kills go in last.
        for (const DefSlot &D : Op.defs())
          if (defAlwaysWrites(Op, D)) {
            int I = N.indexOf(D.R);
            if (I >= 0)
              set(S.KillAll, static_cast<size_t>(I));
          }
        for (; NextExit != BlockExits.end() &&
               NextExit->OpIdx == static_cast<int>(OI);
             ++NextExit) {
          if (NextExit->Target != InvalidBlockId && NextExit->TargetIdx < 0)
            continue; // a vanished target contributes nothing
          size_t KillAt = Pool.size();
          Pool.resize(KillAt + W);
          std::copy_n(Pool.begin() + static_cast<ptrdiff_t>(S.KillAll), W,
                      Pool.begin() + static_cast<ptrdiff_t>(KillAt));
          ExitList.push_back(ExitSummary{NextExit->Target == InvalidBlockId
                                             ? ObservableSource
                                             : NextExit->TargetIdx,
                                         KillAt});
        }
      }
      S.EndExit = static_cast<uint32_t>(ExitList.size());
      Blocks.push_back(S);
    }
  }

  Direction direction() const override { return Direction::Backward; }
  Meet meet() const override { return Meet::Union; }
  size_t universeSize() const override { return Observable.size(); }
  void boundary(BitVector &V) const override { V.orWith(Observable); }

  /// In = Gen | (Out - KillAll) | U_j (In(target_j) - KillAt_j).
  void transfer(size_t LayoutIdx, BitVector &V,
                const std::vector<BitVector> &InSets) const override {
    const Summary &S = Blocks[LayoutIdx];
    uint64_t *Out = V.words();
    const uint64_t *Gen = Pool.data() + S.Gen;
    const uint64_t *Kill = Pool.data() + S.KillAll;
    for (size_t I = 0; I != W; ++I)
      Out[I] = (Out[I] & ~Kill[I]) | Gen[I];
    for (uint32_t X = S.FirstExit; X != S.EndExit; ++X) {
      const ExitSummary &E = ExitList[X];
      const uint64_t *Live =
          (E.Source == ObservableSource ? Observable
                                        : InSets[static_cast<size_t>(E.Source)])
              .words();
      const uint64_t *KillAt = Pool.data() + E.KillAt;
      for (size_t I = 0; I != W; ++I)
        Out[I] |= Live[I] & ~KillAt[I];
    }
  }

private:
  static constexpr int ObservableSource = -1;

  /// One interior exit: whose live-in it folds in (a layout index, or
  /// ObservableSource for halt/trap/unresolved targets) and the pool
  /// offset of the sure writes at or above it.
  struct ExitSummary {
    int Source;
    size_t KillAt;
  };
  /// Pool offsets of a block's Gen and KillAll rows, and its exits'
  /// range in ExitList.
  struct Summary {
    size_t Gen = 0, KillAll = 0;
    uint32_t FirstExit = 0, EndExit = 0;
  };

  bool test(size_t Row, size_t I) const {
    return (Pool[Row + I / 64] >> (I % 64)) & 1;
  }
  void set(size_t Row, size_t I) { Pool[Row + I / 64] |= uint64_t(1) << (I % 64); }

  const BitVector &Observable;
  const size_t W; ///< words per mask
  std::vector<uint64_t> Pool;
  std::vector<Summary> Blocks;
  std::vector<ExitSummary> ExitList;
};

BitVector observableBits(const Function &F, const RegNumbering &N) {
  BitVector V(N.size());
  for (Reg R : F.observableRegs()) {
    int I = N.indexOf(R);
    if (I >= 0)
      V.set(static_cast<size_t>(I));
  }
  return V;
}

DataflowSolver solve(const Function &F, const RegNumbering &N,
                     const LayoutMap &Layout, const BitVector &Observable) {
  ExitTable Exits(F, Layout);
  return DataflowSolver(F, LivenessProblem(F, N, Exits, Observable), Exits);
}

} // namespace

Liveness::Liveness(const Function &F)
    : N(F), Layout(F), Observable(observableBits(F, N)),
      Solution(solve(F, N, Layout, Observable)) {}

LiveSet Liveness::liveIn(BlockId B) const {
  int L = Layout.indexOf(B);
  return L < 0 ? LiveSet() : LiveSet(Solution.in(static_cast<size_t>(L)), N);
}

LiveSet Liveness::liveOut(BlockId B) const {
  int L = Layout.indexOf(B);
  return L < 0 ? LiveSet()
               : LiveSet(Solution.out(static_cast<size_t>(L)), N);
}

LiveSet Liveness::liveAtExit(const Function &F, const Block &B,
                             size_t OpIdx) const {
  (void)F;
  const Operation &Op = B.ops()[OpIdx];
  assert(Op.isControl() && "liveAtExit requires a control operation");
  if (Op.isBranch()) {
    BlockId Target = resolveBranchTarget(B, OpIdx);
    if (Target != InvalidBlockId)
      return liveIn(Target);
  }
  return observable(); // halt/trap observe the observable registers
}

//===----------------------------------------------------------------------===//
// PredicatedLiveness
//===----------------------------------------------------------------------===//

BDD::NodeRef PredicatedLiveness::get(const LiveMap &M, Reg R) {
  auto It = M.find(R);
  return It == M.end() ? BDD::False : It->second;
}

PredicatedLiveness::PredicatedLiveness(const Function &F, const Block &B,
                                       RegionPQS &PQS, const Liveness &L) {
  BDD &Mgr = PQS.bdd();
  const std::vector<Operation> &Ops = B.ops();
  LiveBeforeOp.resize(Ops.size() + 1);

  // Block-end map: the layout successor's live-in, but only when control
  // can actually reach the end of the block (an unguarded halt/trap makes
  // the fall-through point unreachable).
  LiveMap Cur;
  int LayoutIdx = F.layoutIndex(B.getId());
  bool FallsThrough = false;
  if (LayoutIdx >= 0) {
    for (const BlockExit &E : blockExits(F, static_cast<size_t>(LayoutIdx)))
      if (E.isFallThrough())
        FallsThrough = true;
  }
  if (FallsThrough && LayoutIdx >= 0 &&
      static_cast<size_t>(LayoutIdx) + 1 < F.numBlocks()) {
    for (Reg R : L.liveIn(F.block(static_cast<size_t>(LayoutIdx) + 1).getId()))
      Cur[R] = BDD::True;
  } else if (FallsThrough) {
    for (Reg R : F.observableRegs())
      Cur[R] = BDD::True;
  }
  LiveBeforeOp[Ops.size()] = Cur;

  auto OrInto = [&](LiveMap &M, Reg R, BDD::NodeRef Cond) {
    BDD::NodeRef Old = get(M, R);
    BDD::NodeRef New = Mgr.mkOr(Old, Cond);
    if (New == BDD::Invalid)
      New = BDD::True; // conservative: live
    M[R] = New;
  };

  for (size_t I = Ops.size(); I-- > 0;) {
    const Operation &Op = Ops[I];
    BDD::NodeRef G = PQS.guardExpr(I);

    // Exits merge in their target's live set under the exit condition.
    if (Op.isBranch()) {
      BDD::NodeRef Taken = PQS.takenExpr(I);
      for (Reg R : L.liveAtExit(F, B, I))
        OrInto(Cur, R, Taken);
    } else if (Op.getOpcode() == Opcode::Halt ||
               Op.getOpcode() == Opcode::Trap) {
      for (Reg R : F.observableRegs())
        OrInto(Cur, R, G);
    }

    // Kill definitions under their write conditions.
    for (const DefSlot &D : Op.defs()) {
      BDD::NodeRef WriteCond = BDD::False;
      if (Op.isCmpp()) {
        switch (D.Act) {
        case CmppAction::UN:
        case CmppAction::UC:
          WriteCond = BDD::True; // unconditional targets always write
          break;
        default:
          WriteCond = BDD::False; // wired writes: conservative no-kill
          break;
        }
      } else {
        // Positional (FRP) guards are true whenever the op is reached.
        WriteCond = Op.isFrpGuard() ? BDD::True : G;
      }
      if (WriteCond != BDD::False) {
        BDD::NodeRef Old = get(Cur, D.R);
        BDD::NodeRef New = Mgr.mkAnd(Old, Mgr.mkNot(WriteCond));
        if (New == BDD::Invalid)
          New = Old; // conservative: keep live
        if (New == BDD::False)
          Cur.erase(D.R);
        else
          Cur[D.R] = New;
      }
    }

    // Uses become live under the guard condition (even a cmpp's
    // unconditional targets write a value independent of the sources when
    // the guard is false); the guard register itself is read
    // unconditionally to decide nullification.
    if (!Op.getGuard().isTruePred())
      OrInto(Cur, Op.getGuard(), BDD::True);
    if (Op.isBranch()) {
      // The predicate decides whether the branch takes (read whenever the
      // branch issues); the target register matters only when it takes.
      OrInto(Cur, Op.branchPred(), BDD::True);
      OrInto(Cur, Op.branchTargetReg(), PQS.takenExpr(I));
    } else {
      for (const Operand &S : Op.srcs())
        if (S.isReg())
          OrInto(Cur, S.getReg(), G);
    }

    LiveBeforeOp[I] = Cur;
  }
}

BDD::NodeRef PredicatedLiveness::liveAfter(size_t OpIdx, Reg R) const {
  assert(OpIdx + 1 < LiveBeforeOp.size() + 1);
  return get(LiveBeforeOp[OpIdx + 1], R);
}

BDD::NodeRef PredicatedLiveness::liveBefore(size_t OpIdx, Reg R) const {
  assert(OpIdx < LiveBeforeOp.size());
  return get(LiveBeforeOp[OpIdx], R);
}
