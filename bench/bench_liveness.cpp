//===- bench/bench_liveness.cpp - Dense vs set-based liveness -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Before/after microbenchmark for function-level liveness: the original
// per-register hash-set fixed point (reproduced here verbatim as the
// baseline) against analysis/Liveness.cpp, the dense solver over block
// transfer summaries (Gen / KillAll / per-exit KillAt word masks, results
// read through zero-copy LiveSet views). Inputs are fuzz-generated regions
// of increasing block count, so the numbers reflect the CFG shapes the
// pipeline actually analyzes rather than a hand-picked best case. The two
// implementations are cross-checked for equal live-in/live-out sets on
// every input before timing starts.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/Liveness.h"
#include "fuzz/Generator.h"
#include "ir/Function.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace cpr;

namespace {

//===----------------------------------------------------------------------===//
// Baseline: the pre-rewrite hash-set implementation
//===----------------------------------------------------------------------===//

using RegSet = std::unordered_set<Reg>;

bool defAlwaysWritesLegacy(const Operation &Op, const DefSlot &D) {
  if (Op.isCmpp())
    return D.Act == CmppAction::UN || D.Act == CmppAction::UC;
  return Op.getGuard().isTruePred() || Op.isFrpGuard();
}

void transferSetLegacy(const Operation &Op, RegSet &Live) {
  for (const DefSlot &D : Op.defs())
    if (defAlwaysWritesLegacy(Op, D))
      Live.erase(D.R);
  if (!Op.getGuard().isTruePred())
    Live.insert(Op.getGuard());
  for (const Operand &S : Op.srcs())
    if (S.isReg())
      Live.insert(S.getReg());
}

/// The per-register std::unordered_set fixed point exactly as it shipped
/// before the dense rewrite.
struct LegacyLiveness {
  std::unordered_map<BlockId, RegSet> LiveInMap;
  std::unordered_map<BlockId, RegSet> LiveOutMap;
  RegSet ObservableSet;

  explicit LegacyLiveness(const Function &F) {
    for (Reg R : F.observableRegs())
      ObservableSet.insert(R);
    for (size_t I = 0, E = F.numBlocks(); I != E; ++I) {
      LiveInMap[F.block(I).getId()] = {};
      LiveOutMap[F.block(I).getId()] = {};
    }
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t BI = F.numBlocks(); BI-- > 0;) {
        const Block &B = F.block(BI);
        RegSet Out;
        for (const BlockExit &E : blockExits(F, BI)) {
          if (E.Target == InvalidBlockId) {
            Out.insert(ObservableSet.begin(), ObservableSet.end());
            continue;
          }
          const RegSet &SuccIn = LiveInMap[E.Target];
          Out.insert(SuccIn.begin(), SuccIn.end());
        }
        RegSet Live = Out;
        std::vector<BlockExit> Exits = blockExits(F, BI);
        for (size_t OI = B.size(); OI-- > 0;) {
          const Operation &Op = B.ops()[OI];
          if (Op.isControl()) {
            for (const BlockExit &E : Exits) {
              if (E.OpIdx != static_cast<int>(OI))
                continue;
              if (E.Target == InvalidBlockId)
                Live.insert(ObservableSet.begin(), ObservableSet.end());
              else {
                const RegSet &SuccIn = LiveInMap[E.Target];
                Live.insert(SuccIn.begin(), SuccIn.end());
              }
            }
          }
          transferSetLegacy(Op, Live);
        }
        if (Live != LiveInMap[B.getId()]) {
          LiveInMap[B.getId()] = Live;
          Changed = true;
        }
        LiveOutMap[B.getId()] = std::move(Out);
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// Deterministic fuzz-generated inputs, a handful per size class so a
/// single lucky CFG cannot skew the comparison.
std::vector<std::unique_ptr<Function>> makeInputs(unsigned MaxBlocks) {
  GeneratorConfig Cfg;
  Cfg.MaxBlocks = MaxBlocks;
  Cfg.MaxLoopDepth = 3;
  Cfg.MaxItemsPerRegion = 8;
  Cfg.SyntheticFrac = 0.0; // region grammar only: branchy CFGs
  std::vector<std::unique_ptr<Function>> Out;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed)
    Out.push_back(std::move(generateProgram(Seed * 7919, Cfg).Func));
  return Out;
}

/// Equal as sets, except that the legacy walk also tracks reads of the
/// hardwired true predicate, which the dense numbering gives no bit.
bool sameSet(const RegSet &Legacy, const LiveSet &Dense) {
  size_t N = 0;
  for (Reg R : Legacy) {
    if (R.isTruePred())
      continue;
    if (!Dense.contains(R))
      return false;
    ++N;
  }
  return N == Dense.size();
}

bool sameSets(const Function &F, const LegacyLiveness &A, const Liveness &B) {
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    BlockId Id = F.block(L).getId();
    if (!sameSet(A.LiveInMap.at(Id), B.liveIn(Id)) ||
        !sameSet(A.LiveOutMap.at(Id), B.liveOut(Id)))
      return false;
  }
  return true;
}

/// One-time agreement check over every benchmarked input.
bool crossCheck() {
  for (unsigned MaxBlocks : {40u, 120u, 240u})
    for (const auto &F : makeInputs(MaxBlocks)) {
      LegacyLiveness A(*F);
      Liveness B(*F);
      if (!sameSets(*F, A, B))
        return false;
    }
  return true;
}

void BM_LivenessLegacySets(benchmark::State &State) {
  auto Inputs = makeInputs(static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    for (const auto &F : Inputs) {
      LegacyLiveness L(*F);
      benchmark::DoNotOptimize(L.LiveInMap.size());
    }
}
BENCHMARK(BM_LivenessLegacySets)
    ->Arg(40)
    ->Arg(120)
    ->Arg(240)
    ->Unit(benchmark::kMicrosecond);

void BM_LivenessDenseBitVector(benchmark::State &State) {
  auto Inputs = makeInputs(static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    for (const auto &F : Inputs) {
      Liveness L(*F);
      benchmark::DoNotOptimize(&L);
    }
}
BENCHMARK(BM_LivenessDenseBitVector)
    ->Arg(40)
    ->Arg(120)
    ->Arg(240)
    ->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  if (!crossCheck()) {
    std::fprintf(stderr, "bench_liveness: legacy and dense liveness "
                         "disagree; benchmark numbers would be "
                         "meaningless\n");
    return 1;
  }
  std::printf("bench_liveness: legacy and dense agree on all inputs\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
