//===- analysis/RegPressure.cpp - Register pressure analysis ---------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/RegPressure.h"

#include "analysis/CFG.h"


using namespace cpr;

namespace {

PressureReport snapshot(const BitVector &Live, const RegNumbering &N) {
  PressureReport R;
  for (size_t I = Live.findFirst(); I != BitVector::npos;
       I = Live.findNext(I + 1))
    ++R.Peak[static_cast<unsigned>(N.regOf(I).getClass())];
  return R;
}

} // namespace

PressureReport cpr::measureBlockPressure(const Function &F, const Block &B,
                                         const Liveness &LV) {
  PressureReport Peak;
  const RegNumbering &N = LV.numbering();

  // Backward walk mirroring the liveness transfer, taking a pressure
  // snapshot at every program point. The hardwired true predicate has no
  // bit: it never occupies an allocatable register.
  BitVector Live(N.size());
  LV.liveOut(B.getId()).addTo(Live);
  Peak.mergeMax(snapshot(Live, N));

  int LayoutIdx = F.layoutIndex(B.getId());
  std::vector<BlockExit> Exits =
      LayoutIdx >= 0 ? blockExits(F, static_cast<size_t>(LayoutIdx))
                     : std::vector<BlockExit>();

  for (size_t OI = B.size(); OI-- > 0;) {
    const Operation &Op = B.ops()[OI];
    if (Op.isControl()) {
      for (const BlockExit &E : Exits)
        if (E.OpIdx == static_cast<int>(OI) && E.Target != InvalidBlockId)
          LV.liveIn(E.Target).addTo(Live);
      if (Op.getOpcode() == Opcode::Halt || Op.getOpcode() == Opcode::Trap)
        LV.observable().addTo(Live);
    }
    for (const DefSlot &D : Op.defs()) {
      bool AlwaysWrites =
          Op.isCmpp() ? (D.Act == CmppAction::UN || D.Act == CmppAction::UC)
                      : (Op.getGuard().isTruePred() || Op.isFrpGuard());
      int I = N.indexOf(D.R);
      if (AlwaysWrites && I >= 0)
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
    Peak.mergeMax(snapshot(Live, N));
  }
  return Peak;
}

PressureReport cpr::measureFunctionPressure(const Function &F) {
  Liveness LV(F);
  PressureReport Peak;
  for (size_t I = 0, E = F.numBlocks(); I != E; ++I)
    Peak.mergeMax(measureBlockPressure(F, F.block(I), LV));
  return Peak;
}
