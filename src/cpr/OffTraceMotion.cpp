//===- cpr/OffTraceMotion.cpp - ICBM phase 4 -------------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "cpr/OffTraceMotion.h"

#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "support/FaultInjector.h"
#include "support/TestHooks.h"

#include <unordered_map>
#include <unordered_set>

using namespace cpr;

namespace {

/// A motion-phase TransformFault diagnostic.
Diagnostic motionFault(std::string Msg) {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Code = DiagCode::TransformFault;
  D.Message = std::move(Msg);
  D.Site = "cpr.offtrace.move";
  return D;
}

Diagnostic motionLostTrack(OpId Id) {
  return motionFault("off-trace motion lost track of operation id " +
                     std::to_string(Id));
}

} // namespace

Expected<MotionStats> cpr::moveOffTrace(Function &F,
                                        const RestructurePlan &Plan) {
  if (fault::shouldFail("cpr.offtrace.move"))
    return motionFault("injected fault");

  MotionStats Stats;
  Block *RegionPtr = F.blockById(Plan.Region);
  if (!RegionPtr)
    return motionFault("region block " + std::to_string(Plan.Region) +
                       " disappeared");
  Block &B = *RegionPtr;

  // Fresh analyses on the restructured code.
  RegionPQS PQS(F, B);
  Liveness LV(F);
  MachineDesc MD = MachineDesc::medium();
  DepGraph DG(F, B, MD, PQS, LV);

  int BypassIdxSigned = B.indexOfOp(Plan.BypassBranchId);
  if (BypassIdxSigned < 0)
    return motionLostTrack(Plan.BypassBranchId);
  size_t BypassIdx = static_cast<size_t>(BypassIdxSigned);

  // --- Pass 1: set 1 = compares + branches + data-dependence successors --
  std::unordered_set<uint32_t> MoveSet;
  auto AddWithSuccessors = [&](size_t Idx) {
    MoveSet.insert(static_cast<uint32_t>(Idx));
    for (uint32_t S : DG.transitiveSuccessors(static_cast<uint32_t>(Idx),
                                              /*IncludeMem=*/true,
                                              /*IncludeControl=*/false)) {
      // Never move the bypass branch or the lookahead/FRP machinery; their
      // presence in the successor closure would indicate a separability
      // bug, which the checks below catch.
      MoveSet.insert(S);
    }
  };
  for (OpId Id : Plan.CmppIds) {
    int I = B.indexOfOp(Id);
    if (I < 0)
      return motionLostTrack(Id);
    AddWithSuccessors(static_cast<size_t>(I));
  }
  for (OpId Id : Plan.BranchIds) {
    if (Id == Plan.BypassBranchId)
      continue; // taken variation: the final branch stays as the bypass
    int I = B.indexOfOp(Id);
    if (I < 0)
      return motionLostTrack(Id);
    MoveSet.insert(static_cast<uint32_t>(I));
  }

  // The region's terminator and the bypass machinery must never move.
  for (OpId Id : Plan.LookaheadIds) {
    int I = B.indexOfOp(Id);
    if (I < 0)
      return motionLostTrack(Id);
    if (MoveSet.count(static_cast<uint32_t>(I)))
      return motionFault("separability violation: lookahead compare in the "
                         "off-trace move set");
  }
  if (MoveSet.count(static_cast<uint32_t>(BypassIdx)))
    return motionFault("separability violation: bypass branch in the "
                       "off-trace move set");
  // Nothing at or beyond the bypass point may be in the move set for the
  // taken variation (that region *is* the off-trace path already), and for
  // the fall-through variation re-wiring removed such dependences. Filter
  // defensively: later ops are already off-trace or re-wired.
  for (auto It = MoveSet.begin(); It != MoveSet.end();) {
    if (*It > BypassIdx)
      It = MoveSet.erase(It);
    else
      ++It;
  }

  // --- Pass 2: set 2 = moved ops whose value is also needed on-trace ----
  // A moved operation needs an on-trace copy when (a) it is a store whose
  // guard can be true on the surviving path, or (b) it defines a register
  // read by a non-moved operation later in the region or live out of it.
  BDD::NodeRef OnTraceE = BDD::Invalid;
  {
    // Expression of the on-trace FRP after the final lookahead.
    int LastLook = B.indexOfOp(Plan.LookaheadIds.back());
    if (LastLook < 0)
      return motionLostTrack(Plan.LookaheadIds.back());
    OnTraceE = PQS.predValueAfter(static_cast<size_t>(LastLook),
                                  Plan.OnTracePred);
  }
  std::unordered_set<uint32_t> SplitSet;
  LiveSet FallLive;
  {
    int LI = F.layoutIndex(B.getId());
    if (LI >= 0 && static_cast<size_t>(LI) + 1 < F.numBlocks())
      FallLive = LV.liveIn(F.block(static_cast<size_t>(LI) + 1).getId());
  }

  // Indices of the CPR block's controlling compares: their predicates are
  // re-wired to the on-trace FRP, so they never need on-trace copies.
  std::unordered_set<uint32_t> ControllingCmpps;
  for (OpId Id : Plan.CmppIds) {
    int I = B.indexOfOp(Id);
    if (I < 0)
      return motionLostTrack(Id);
    ControllingCmpps.insert(static_cast<uint32_t>(I));
  }

  for (uint32_t Idx : MoveSet) {
    const Operation &Op = B.ops()[Idx];
    if (Op.isBranch() || ControllingCmpps.count(Idx))
      continue; // replaced by the FRP machinery
    // An operation whose guard cannot be true on the surviving path (e.g.
    // an if-converted update guarded by a *taken* predicate) never
    // executes on-trace: no copy.
    {
      BDD::NodeRef G = PQS.guardExpr(Idx);
      if (OnTraceE != BDD::Invalid && PQS.disjoint(G, OnTraceE))
        continue;
    }
    if (Op.isStore()) {
      SplitSet.insert(Idx);
      continue;
    }
    // Register results needed by a non-moved op or live past the block.
    bool Needed = false;
    for (const DefSlot &D : Op.defs()) {
      for (size_t J = Idx + 1; J < B.size() && !Needed; ++J) {
        if (MoveSet.count(static_cast<uint32_t>(J)))
          continue;
        if (B.ops()[J].readsReg(D.R))
          Needed = true;
        if (B.ops()[J].definesReg(D.R) && !B.ops()[J].isCmpp() &&
            B.ops()[J].getGuard().isTruePred())
          break; // killed before any further use
      }
      if (FallLive.contains(D.R))
        Needed = true;
      for (Reg R : F.observableRegs())
        if (R == D.R)
          Needed = true;
    }
    if (Needed)
      SplitSet.insert(Idx);
  }

  // --- Pass 3: set 3 = ops used only by moved ops ------------------------
  // Iterate to a fixed point: an operation whose every result use lies in
  // the move set (and which is not live past the region) moves as well.
  // Uses by *split* operations count as on-trace uses: their copies stay.
  bool Grew = true;
  while (Grew) {
    Grew = false;
    for (uint32_t Idx = 0; Idx < BypassIdx; ++Idx) {
      if (MoveSet.count(Idx))
        continue;
      const Operation &Op = B.ops()[Idx];
      if (Op.hasSideEffects() || Op.isControl() || Op.defs().empty())
        continue;
      if (Op.isCmpp())
        continue; // FRP machinery stays
      bool OnlyMovedUses = true;
      bool AnyUse = false;
      for (const DefSlot &D : Op.defs()) {
        if (FallLive.contains(D.R)) {
          OnlyMovedUses = false;
          break;
        }
        for (size_t J = Idx + 1; J < B.size(); ++J) {
          if (B.ops()[J].readsReg(D.R)) {
            AnyUse = true;
            if (!MoveSet.count(static_cast<uint32_t>(J)) ||
                SplitSet.count(static_cast<uint32_t>(J))) {
              OnlyMovedUses = false;
              break;
            }
          }
          if (B.ops()[J].definesReg(D.R) && !B.ops()[J].isCmpp() &&
              B.ops()[J].getGuard().isTruePred())
            break;
        }
        if (!OnlyMovedUses)
          break;
      }
      if (OnlyMovedUses && AnyUse) {
        MoveSet.insert(Idx);
        Grew = true;
      }
    }
  }

  // A moved branch must carry its preparing pbr into the compensation
  // block (the verifier requires a dominating pbr in the same block). A
  // pbr that set 1/3 did not already move is *split*: the original goes
  // off-trace with its branch and a copy stays on-trace to satisfy any
  // remaining (conservatively computed) liveness; dead copies fall to DCE.
  for (uint32_t Idx : std::vector<uint32_t>(MoveSet.begin(), MoveSet.end())) {
    const Operation &Op = B.ops()[Idx];
    if (!Op.isBranch())
      continue;
    int PbrIdx = B.lastDefBefore(Op.branchTargetReg(), Idx);
    if (PbrIdx < 0)
      return motionFault("moved branch has no preparing pbr");
    uint32_t P = static_cast<uint32_t>(PbrIdx);
    if (!MoveSet.count(P)) {
      MoveSet.insert(P);
      SplitSet.insert(P);
    }
  }

  // Guards written by the moved compares: uses in on-trace copies are
  // re-wired to the on-trace FRP.
  std::unordered_set<Reg> OriginalPreds;
  for (OpId Id : Plan.CmppIds) {
    int I = B.indexOfOp(Id);
    if (I < 0)
      return motionLostTrack(Id);
    for (const DefSlot &D : B.ops()[static_cast<size_t>(I)].defs())
      OriginalPreds.insert(D.R);
  }

  // --- Closure: split moved operations that feed split copies ------------
  // An on-trace copy must find its operand values on-trace: when a split
  // operation reads a register defined by another moved operation, that
  // definition is split as well (the paper's P_i sets are replicated
  // wholesale, which this closure reconstructs bottom-up).
  Grew = true;
  while (Grew) {
    Grew = false;
    for (uint32_t SIdx : std::vector<uint32_t>(SplitSet.begin(),
                                               SplitSet.end())) {
      const Operation &SOp = B.ops()[SIdx];
      auto NeedOnTrace = [&](Reg R) {
        int DIdx = B.lastDefBefore(R, SIdx);
        if (DIdx < 0)
          return;
        uint32_t D = static_cast<uint32_t>(DIdx);
        if (!MoveSet.count(D) || SplitSet.count(D))
          return;
        const Operation &DOp = B.ops()[D];
        if (DOp.isBranch() || ControllingCmpps.count(D))
          return; // controlling predicates are re-wired to the on-trace FRP
        // A definition that cannot fire on the surviving path contributes
        // nothing on-trace: the consumer's copy correctly sees the prior
        // value of the register.
        if (OnTraceE != BDD::Invalid &&
            PQS.disjoint(PQS.guardExpr(D), OnTraceE))
          return;
        SplitSet.insert(D);
        Grew = true;
      };
      for (const Operand &S : SOp.srcs())
        if (S.isReg() && !S.getReg().isPred())
          NeedOnTrace(S.getReg());
      if (!SOp.getGuard().isTruePred() &&
          !OriginalPreds.count(SOp.getGuard()))
        NeedOnTrace(SOp.getGuard());
    }
  }

  // --- Final step: split and move ---------------------------------------
  // Guards of on-trace copies: a guard written by one of the moved
  // compares is replaced by the on-trace FRP (its value on the surviving
  // path); other guards are kept.

  // Build on-trace copies in original program order.
  std::vector<Operation> Copies;
  {
    std::vector<uint32_t> Order(SplitSet.begin(), SplitSet.end());
    std::sort(Order.begin(), Order.end());
    Copies.reserve(Order.size());
    for (uint32_t Idx : Order) {
      Operation Copy = B.ops()[Idx];
      Copy.setId(F.newOpId());
      if (OriginalPreds.count(Copy.getGuard()))
        Copy.setGuard(Plan.OnTracePred);
      // The copy's position differs from the original's, so a positional
      // (FRP) guard marker no longer applies.
      Copy.setFrpGuard(false);
      Copies.push_back(std::move(Copy));
    }
    Stats.Split = static_cast<unsigned>(Copies.size());
  }

  // Collect moved operations in program order.
  std::vector<uint32_t> MovedOrder(MoveSet.begin(), MoveSet.end());
  std::sort(MovedOrder.begin(), MovedOrder.end());
  std::vector<Operation> Moved;
  Moved.reserve(MovedOrder.size());
  for (uint32_t Idx : MovedOrder)
    Moved.push_back(B.ops()[Idx]);
  Stats.Moved = static_cast<unsigned>(Moved.size());

  // Remove moved ops from the region (descending index order).
  for (size_t K = MovedOrder.size(); K-- > 0;)
    B.ops().erase(B.ops().begin() + static_cast<ptrdiff_t>(MovedOrder[K]));

  // Insert on-trace copies just after the bypass branch (fall-through
  // variation) or just before it (taken variation, where the on-trace path
  // continues at the branch's target).
  int NewBypassIdx = B.indexOfOp(Plan.BypassBranchId);
  if (NewBypassIdx < 0)
    return motionLostTrack(Plan.BypassBranchId);
  size_t CopyPos = Plan.TakenVariation
                       ? static_cast<size_t>(NewBypassIdx)
                       : static_cast<size_t>(NewBypassIdx) + 1;
  B.ops().insert(B.ops().begin() + static_cast<ptrdiff_t>(CopyPos),
                 Copies.begin(), Copies.end());

  // Place the moved operations.
  if (!Plan.TakenVariation) {
    Block *Comp = F.blockById(Plan.CompBlock);
    if (!Comp)
      return motionFault("compensation block disappeared");
    // Fault injection (site "cpr.restructure.compensation" and the legacy
    // test-hook bool, support/TestHooks.h): drop the moved operations
    // instead of compensating -- a planted miscompile the differential
    // oracle must catch, and the region equivalence re-check must roll
    // back (docs/ROBUSTNESS.md).
    if (test_hooks::SkipCompensationInsertion ||
        fault::shouldFail("cpr.restructure.compensation"))
      return Stats;
    // Before the trailing trap.
    if (Comp->ops().empty() ||
        Comp->ops().back().getOpcode() != Opcode::Trap)
      return motionFault("compensation block lost its trailing trap");
    Comp->ops().insert(Comp->ops().end() - 1, Moved.begin(), Moved.end());
  } else {
    // Start of the region tail, right after the final (bypass) branch.
    int TailIdx = B.indexOfOp(Plan.BypassBranchId);
    if (TailIdx < 0)
      return motionLostTrack(Plan.BypassBranchId);
    B.ops().insert(B.ops().begin() + TailIdx + 1, Moved.begin(),
                   Moved.end());
  }
  return Stats;
}
