//===- regions/DeadCodeElim.cpp - Dead code elimination --------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "regions/DeadCodeElim.h"

#include "analysis/CFG.h"
#include "analysis/Liveness.h"

using namespace cpr;

namespace {

/// One DCE sweep. Returns true if anything changed.
bool sweepOnce(Function &F, DCEStats &Stats) {
  Liveness LV(F);
  // Every register of F has an index; the always-true predicate has
  // none and is never defined, so reads of it need no bit.
  const RegNumbering &N = LV.numbering();
  bool Changed = false;
  BitVector Live(N.size());

  for (size_t BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
    Block &B = F.block(BI);

    // Intra-block backward liveness over bits, seeded precisely with the
    // fall-through component (liveOut unions all exits), folding in
    // interior exit contributions at their positions.
    Live.reset();
    if (BI + 1 < F.numBlocks())
      LV.liveIn(F.block(BI + 1).getId()).addTo(Live);
    LV.observable().addTo(Live);

    // Walk backward, marking dead defs.
    std::vector<bool> RemoveOp(B.size(), false);
    std::vector<std::vector<bool>> RemoveDef(B.size());
    for (size_t OI = B.size(); OI-- > 0;) {
      Operation &Op = B.ops()[OI];
      if (Op.isBranch())
        LV.liveAtExit(F, B, OI).addTo(Live);
      else if (Op.getOpcode() == Opcode::Halt ||
               Op.getOpcode() == Opcode::Trap)
        LV.observable().addTo(Live);

      auto IsLive = [&](Reg R) {
        int I = N.indexOf(R);
        return I >= 0 && Live.test(static_cast<size_t>(I));
      };
      RemoveDef[OI].assign(Op.defs().size(), false);
      bool AnyLiveDef = false;
      for (size_t DI = 0; DI < Op.defs().size(); ++DI) {
        if (IsLive(Op.defs()[DI].R))
          AnyLiveDef = true;
        else
          RemoveDef[OI][DI] = true;
      }

      bool MustKeep = Op.hasSideEffects() || Op.getOpcode() == Opcode::Pbr;
      // Pbr results feed branches; keep them only if some branch uses the
      // BTR (covered by liveness: if the branch exists, the BTR is live).
      if (Op.getOpcode() == Opcode::Pbr && !AnyLiveDef &&
          !IsLive(Op.defs()[0].R))
        MustKeep = false;

      if (!MustKeep && !AnyLiveDef && !Op.defs().empty()) {
        RemoveOp[OI] = true;
        continue; // a removed op contributes no uses or kills
      }
      if (Op.getOpcode() == Opcode::Nop) {
        RemoveOp[OI] = true;
        continue;
      }

      // Standard backward transfer.
      for (size_t DI = 0; DI < Op.defs().size(); ++DI) {
        const DefSlot &D = Op.defs()[DI];
        bool AlwaysWrites =
            Op.isCmpp()
                ? (D.Act == CmppAction::UN || D.Act == CmppAction::UC)
                : (Op.getGuard().isTruePred() || Op.isFrpGuard());
        int I = N.indexOf(D.R);
        if (AlwaysWrites && !RemoveDef[OI][DI] && I >= 0)
          Live.reset(static_cast<size_t>(I));
      }
      auto Use = [&](Reg R) {
        int I = N.indexOf(R);
        if (I >= 0)
          Live.set(static_cast<size_t>(I));
      };
      if (!Op.getGuard().isTruePred())
        Use(Op.getGuard());
      for (const Operand &S : Op.srcs())
        if (S.isReg())
          Use(S.getReg());
    }

    // Apply removals (backward so indices stay valid).
    for (size_t OI = B.size(); OI-- > 0;) {
      if (RemoveOp[OI]) {
        B.ops().erase(B.ops().begin() + static_cast<ptrdiff_t>(OI));
        ++Stats.OpsRemoved;
        Changed = true;
        continue;
      }
      Operation &Op = B.ops()[OI];
      if (!Op.isCmpp() || Op.defs().size() < 2)
        continue;
      for (size_t DI = Op.defs().size(); DI-- > 0;) {
        if (RemoveDef[OI][DI] && Op.defs().size() > 1) {
          Op.defs().erase(Op.defs().begin() + static_cast<ptrdiff_t>(DI));
          ++Stats.DestsRemoved;
          Changed = true;
        }
      }
    }
  }
  return Changed;
}

} // namespace

DCEStats cpr::eliminateDeadCode(Function &F) {
  DCEStats Stats;
  while (sweepOnce(F, Stats)) {
  }
  return Stats;
}
