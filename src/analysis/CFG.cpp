//===- analysis/CFG.cpp - Control-flow queries over superblocks -----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"

#include "support/Error.h"

#include <algorithm>

using namespace cpr;

BlockId cpr::resolveBranchTarget(const Block &B, size_t OpIdx) {
  const Operation &Br = B.ops()[OpIdx];
  assert(Br.isBranch() && "not a branch");
  int PbrIdx = B.lastDefBefore(Br.branchTargetReg(), OpIdx);
  if (PbrIdx < 0)
    return InvalidBlockId;
  const Operation &Pbr = B.ops()[static_cast<size_t>(PbrIdx)];
  if (Pbr.getOpcode() != Opcode::Pbr)
    return InvalidBlockId;
  return Pbr.pbrTarget();
}

namespace {

/// Appends the exits of block \p LayoutIdx to \p Out (see blockExits).
void appendBlockExits(const Function &F, size_t LayoutIdx,
                      std::vector<BlockExit> &Out) {
  const Block &B = F.block(LayoutIdx);
  bool FallsThrough = true;
  for (size_t I = 0, E = B.size(); I != E; ++I) {
    const Operation &Op = B.ops()[I];
    if (Op.isBranch()) {
      Out.push_back(BlockExit{static_cast<int>(I), resolveBranchTarget(B, I)});
      continue;
    }
    if (Op.getOpcode() == Opcode::Halt || Op.getOpcode() == Opcode::Trap) {
      Out.push_back(BlockExit{static_cast<int>(I), InvalidBlockId});
      // Operations after an unguarded halt/trap are unreachable.
      if (Op.getGuard().isTruePred()) {
        FallsThrough = false;
        break;
      }
    }
  }
  if (FallsThrough) {
    BlockId Next = LayoutIdx + 1 < F.numBlocks()
                       ? F.block(LayoutIdx + 1).getId()
                       : InvalidBlockId;
    Out.push_back(BlockExit{-1, Next});
  }
}

} // namespace

std::vector<BlockExit> cpr::blockExits(const Function &F, size_t LayoutIdx) {
  std::vector<BlockExit> Exits;
  appendBlockExits(F, LayoutIdx, Exits);
  return Exits;
}

std::vector<BlockId> cpr::blockSuccessors(const Function &F,
                                          size_t LayoutIdx) {
  std::vector<BlockId> Succs;
  for (const BlockExit &E : blockExits(F, LayoutIdx)) {
    if (E.Target == InvalidBlockId)
      continue;
    if (std::find(Succs.begin(), Succs.end(), E.Target) == Succs.end())
      Succs.push_back(E.Target);
  }
  return Succs;
}

LayoutMap::LayoutMap(const Function &F) {
  const size_t NBlocks = F.numBlocks();
  const size_t Cap = 4 * NBlocks + 64;
  Dense.assign(std::min<size_t>(F.allocatorState().NextBlockId, Cap), -1);
  for (size_t L = 0; L < NBlocks; ++L) {
    BlockId Id = F.block(L).getId();
    if (Id < Dense.size())
      Dense[Id] = static_cast<int>(L);
    else
      Overflow.emplace_back(Id, static_cast<int>(L));
  }
  std::sort(Overflow.begin(), Overflow.end());
}

int LayoutMap::searchOverflow(BlockId Id) const {
  auto It = std::lower_bound(
      Overflow.begin(), Overflow.end(), Id,
      [](const std::pair<BlockId, int> &P, BlockId V) { return P.first < V; });
  return It != Overflow.end() && It->first == Id ? It->second : -1;
}

ExitTable::ExitTable(const Function &F, const LayoutMap &Layout) {
  const size_t NBlocks = F.numBlocks();
  std::vector<BlockExit> Exits;
  Begin.reserve(NBlocks + 1);
  for (size_t L = 0; L < NBlocks; ++L) {
    Begin.push_back(static_cast<uint32_t>(All.size()));
    Exits.clear();
    appendBlockExits(F, L, Exits);
    for (const BlockExit &E : Exits)
      All.push_back(Exit{E.OpIdx, E.Target,
                         E.Target == InvalidBlockId ? -1
                                                    : Layout.indexOf(E.Target)});
  }
  Begin.push_back(static_cast<uint32_t>(All.size()));
}
