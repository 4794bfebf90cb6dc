//===- tests/analysis/LivenessTest.cpp - Liveness analysis tests ----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "analysis/CFG.h"
#include "analysis/PQS.h"
#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "ir/IRParser.h"
#include "pipeline/CompilerPipeline.h"

#include <gtest/gtest.h>

#ifndef CPR_FUZZ_REGRESSION_DIR
#error "build must define CPR_FUZZ_REGRESSION_DIR"
#endif

using namespace cpr;

namespace {

TEST(LivenessTest, StraightLineUseDef) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  r1 = mov(5)
  r2 = add(r1, 1)
  r9 = add(r2, 1)
  halt
}
)");
  Liveness LV(*F);
  // Nothing is live into the entry (r1/r2 defined before use, r9 is the
  // observable computed inside).
  EXPECT_FALSE(LV.liveIn(F->block(0).getId()).contains(Reg::gpr(1)));
  EXPECT_FALSE(LV.liveIn(F->block(0).getId()).contains(Reg::gpr(2)));
}

TEST(LivenessTest, UseBeforeDefIsLiveIn) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r2 = add(r1, 1)
  r1 = mov(0)
  halt
}
)");
  Liveness LV(*F);
  EXPECT_TRUE(LV.liveIn(F->block(0).getId()).contains(Reg::gpr(1)));
}

TEST(LivenessTest, PredicatedDefDoesNotKill) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r1
block @A:
  r1 = mov(7) if p1
  halt
}
)");
  Liveness LV(*F);
  // The guarded mov may not execute; the incoming r1 can survive to the
  // observable read at halt.
  EXPECT_TRUE(LV.liveIn(F->block(0).getId()).contains(Reg::gpr(1)));
}

TEST(LivenessTest, FrpGuardedDefKills) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r1
block @A:
  r1 = mov(7) if p1 frp
  halt
}
)");
  Liveness LV(*F);
  // A positional (FRP) guard is true whenever the op is reached, so the
  // definition kills.
  EXPECT_FALSE(LV.liveIn(F->block(0).getId()).contains(Reg::gpr(1)));
}

TEST(LivenessTest, BranchTargetContributesLiveness) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  p1:un = cmpp.lt(r1, 5)
  b1 = pbr(@X)
  branch(p1, b1)
  r9 = mov(0)
  halt
block @X:
  r9 = add(r7, 1)
  halt
}
)");
  Liveness LV(*F);
  // r7 is read in @X, so it is live at A's exit branch and into A.
  EXPECT_TRUE(LV.liveIn(F->block(0).getId()).contains(Reg::gpr(7)));
  const Block &A = F->block(0);
  LiveSet AtExit = LV.liveAtExit(*F, A, 2);
  EXPECT_TRUE(AtExit.contains(Reg::gpr(7)));
  EXPECT_FALSE(AtExit.contains(Reg::gpr(9)));
}

TEST(LivenessTest, LoopCarriedValue) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r1
block @Loop:
  r1 = add(r1, 1)
  p1:un = cmpp.lt(r1, 100)
  b1 = pbr(@Loop)
  branch(p1, b1)
  halt
}
)");
  Liveness LV(*F);
  EXPECT_TRUE(LV.liveIn(F->block(0).getId()).contains(Reg::gpr(1)));
}

//===----------------------------------------------------------------------===//
// Summary solver vs. the op-by-op reference
//===----------------------------------------------------------------------===//

/// The op-by-op backward transfer Liveness used before block summaries,
/// kept verbatim as the reference: every iteration re-walks each block,
/// folding interior exits in at their op positions.
bool defAlwaysWritesRef(const Operation &Op, const DefSlot &D) {
  if (Op.isCmpp())
    return D.Act == CmppAction::UN || D.Act == CmppAction::UC;
  return Op.getGuard().isTruePred() || Op.isFrpGuard();
}

class ReferenceLivenessProblem : public DataflowProblem {
public:
  ReferenceLivenessProblem(const Function &F, const RegNumbering &N)
      : F(F), N(N), Observable(N.size()) {
    for (Reg R : F.observableRegs()) {
      int I = N.indexOf(R);
      if (I >= 0)
        Observable.set(static_cast<size_t>(I));
    }
  }

  Direction direction() const override { return Direction::Backward; }
  Meet meet() const override { return Meet::Union; }
  size_t universeSize() const override { return N.size(); }
  void boundary(BitVector &V) const override { V.orWith(Observable); }

  void transfer(size_t LayoutIdx, BitVector &V,
                const std::vector<BitVector> &InSets) const override {
    const Block &B = F.block(LayoutIdx);
    std::vector<BlockExit> Exits = blockExits(F, LayoutIdx);
    for (size_t OI = B.size(); OI-- > 0;) {
      const Operation &Op = B.ops()[OI];
      // Interior exits add their targets' live-ins at the exit point.
      if (Op.isControl()) {
        for (const BlockExit &E : Exits) {
          if (E.OpIdx != static_cast<int>(OI))
            continue;
          if (E.Target == InvalidBlockId) {
            V.orWith(Observable);
          } else {
            int T = F.layoutIndex(E.Target);
            if (T >= 0)
              V.orWith(InSets[static_cast<size_t>(T)]);
          }
        }
      }
      // Backward transfer: kill sure definitions, then gen reads.
      for (const DefSlot &D : Op.defs())
        if (defAlwaysWritesRef(Op, D)) {
          int I = N.indexOf(D.R);
          if (I >= 0)
            V.reset(static_cast<size_t>(I));
        }
      if (!Op.getGuard().isTruePred()) {
        int I = N.indexOf(Op.getGuard());
        if (I >= 0)
          V.set(static_cast<size_t>(I));
      }
      for (const Operand &S : Op.srcs())
        if (S.isReg()) {
          int I = N.indexOf(S.getReg());
          if (I >= 0)
            V.set(static_cast<size_t>(I));
        }
    }
  }

  const BitVector &observable() const { return Observable; }

private:
  const Function &F;
  const RegNumbering &N;
  BitVector Observable;
};

std::vector<Reg> regsOf(const BitVector &V, const RegNumbering &N) {
  std::vector<Reg> Out;
  for (size_t I = V.findFirst(); I != BitVector::npos; I = V.findNext(I + 1))
    Out.push_back(N.regOf(I));
  return Out;
}

std::vector<Reg> regsOf(const LiveSet &S) {
  return std::vector<Reg>(S.begin(), S.end());
}

/// Compares every liveIn/liveOut and every control op's liveAtExit of
/// \p F against the reference; returns the number of sets compared.
size_t expectMatchesReference(const Function &F, const std::string &What) {
  RegNumbering N(F);
  ReferenceLivenessProblem P(F, N);
  DataflowSolver Ref(F, P);
  Liveness LV(F);
  size_t Compared = 0;
  for (size_t L = 0; L < F.numBlocks(); ++L) {
    const Block &B = F.block(L);
    EXPECT_EQ(regsOf(LV.liveIn(B.getId())), regsOf(Ref.in(L), N))
        << What << " liveIn @" << B.getName();
    EXPECT_EQ(regsOf(LV.liveOut(B.getId())), regsOf(Ref.out(L), N))
        << What << " liveOut @" << B.getName();
    Compared += 2;
    for (size_t OI = 0; OI < B.size(); ++OI) {
      const Operation &Op = B.ops()[OI];
      if (!Op.isControl())
        continue;
      const BitVector *Expected = &P.observable();
      BitVector Empty(N.size());
      if (Op.isBranch()) {
        BlockId T = resolveBranchTarget(B, OI);
        if (T != InvalidBlockId) {
          int TL = F.layoutIndex(T);
          Expected = TL >= 0 ? &Ref.in(static_cast<size_t>(TL)) : &Empty;
        }
      }
      LiveSet AtExit = LV.liveAtExit(F, B, OI);
      EXPECT_EQ(regsOf(AtExit), regsOf(*Expected, N))
          << What << " liveAtExit @" << B.getName() << " op " << OI;
      for (size_t I = 0; I < N.size(); ++I)
        EXPECT_EQ(AtExit.contains(N.regOf(I)), Expected->test(I));
      ++Compared;
    }
  }
  return Compared;
}

TEST(LivenessPropertyTest, GeneratedProgramsMatchReference) {
  GeneratorConfig Cfg;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    KernelProgram P = generateProgram(Seed, Cfg);
    std::string What = "seed " + std::to_string(Seed);
    EXPECT_GT(expectMatchesReference(*P.Func, What), 0u) << What;
    // Treated code adds FRP guards, wired lookahead compares and
    // compensation blocks; check a slice of it too.
    if (Seed % 8 == 0) {
      PipelineOptions Opts;
      Opts.Machines.clear();
      Opts.CheckEquivalence = false;
      PipelineResult R = runPipeline(P, Opts);
      expectMatchesReference(*R.Treated, What + " treated");
    }
    if (HasFailure())
      return;
  }
}

TEST(LivenessPropertyTest, RegressionCorpusMatchesReference) {
  std::vector<std::string> Files = listCorpusFiles(CPR_FUZZ_REGRESSION_DIR);
  ASSERT_FALSE(Files.empty());
  for (const std::string &Path : Files) {
    FuzzParseResult FR = loadFuzzProgramFile(Path);
    ASSERT_TRUE(FR) << Path << ": " << FR.Error;
    expectMatchesReference(*FR.Program.Func, Path);
  }
}

TEST(LivenessPropertyTest, SelfLoopRegion) {
  // The region's branch targets its own entry: the loop-carried r1 is
  // live into the block and at the back-edge exit; r2 is dead at the
  // exit (redefined before any read on the loop path).
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r3
block @L:
  r2 = mov(r1)
  r1 = add(r1, 1)
  p1:un = cmpp.lt(r1, 100)
  b1 = pbr(@L)
  branch(p1, b1)
  r3 = add(r2, 1)
  halt
}
)");
  expectMatchesReference(*F, "self loop");
  Liveness LV(*F);
  const Block &L = F->block(0);
  EXPECT_TRUE(LV.liveIn(L.getId()).contains(Reg::gpr(1)));
  LiveSet AtExit = LV.liveAtExit(*F, L, 4);
  EXPECT_TRUE(AtExit.contains(Reg::gpr(1)));
  EXPECT_FALSE(AtExit.contains(Reg::gpr(2)));
}

TEST(LivenessPropertyTest, InteriorHalt) {
  // A guarded halt leaves mid-block: the observable r3 is read there
  // before the unguarded mov below kills it, so it is live in.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r3
block @A:
  p1:un = cmpp.eq(r1, 0)
  halt if p1
  r3 = mov(1)
  halt
}
)");
  expectMatchesReference(*F, "interior halt");
  Liveness LV(*F);
  const Block &A = F->block(0);
  EXPECT_TRUE(LV.liveIn(A.getId()).contains(Reg::gpr(3)));
  EXPECT_TRUE(LV.liveAtExit(*F, A, 1).contains(Reg::gpr(3)));
}

TEST(LivenessPropertyTest, FrpGuardedKillAboveExit) {
  // The FRP-guarded def sits above the interior exit whose target reads
  // r1: r1 is live at the exit but killed before the block entry.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r9
block @A:
  r1 = mov(7) if p1 frp
  p2:un = cmpp.lt(r4, 5)
  b1 = pbr(@X)
  branch(p2, b1)
  r9 = mov(0)
  halt
block @X:
  r9 = add(r1, 1)
  halt
}
)");
  expectMatchesReference(*F, "frp kill");
  Liveness LV(*F);
  const Block &A = F->block(0);
  EXPECT_FALSE(LV.liveIn(A.getId()).contains(Reg::gpr(1)));
  EXPECT_TRUE(LV.liveAtExit(*F, A, 3).contains(Reg::gpr(1)));
}

TEST(LivenessPropertyTest, WiredCmppDestinationDoesNotKill) {
  // p2:on only writes when its condition holds, so the incoming p2 can
  // reach the guarded store: live in. The un target p3 does kill.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p2:on, p3:un = cmpp.eq(r1, 0)
  store(r5, 1) if p2
  store(r5, 2) if p3
  halt
}
)");
  expectMatchesReference(*F, "wired cmpp");
  Liveness LV(*F);
  LiveSet In = LV.liveIn(F->block(0).getId());
  EXPECT_TRUE(In.contains(Reg::pred(2)));
  EXPECT_FALSE(In.contains(Reg::pred(3)));
  // Ascending iteration: GPRs before predicates, ids in order.
  EXPECT_EQ(regsOf(In),
            (std::vector<Reg>{Reg::gpr(1), Reg::gpr(5), Reg::pred(2)}));
}

TEST(PredicatedLivenessTest, LivenessUnderExitCondition) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  b1 = pbr(@X)
  branch(p1, b1)
  r7 = mov(1)
  halt
block @X:
  r9 = add(r7, 1)
  store(r9, r9)
  halt
}
)");
  const Block &A = F->block(0);
  RegionPQS PQS(*F, A);
  Liveness LV(*F);
  PredicatedLiveness PLV(*F, A, PQS, LV);

  // Before the branch, r7 is live only under the taken condition (the
  // fall-through path kills it with an unguarded mov).
  BDD::NodeRef LiveR7 = PLV.liveBefore(2, Reg::gpr(7));
  BDD::NodeRef Taken = PQS.takenExpr(2);
  EXPECT_EQ(LiveR7, Taken);
  // After the kill point it is dead.
  EXPECT_EQ(PLV.liveAfter(3, Reg::gpr(7)), BDD::False);
}

TEST(PredicatedLivenessTest, PromotionQueryPattern) {
  // The exact query predicate speculation issues: dest live anywhere the
  // op would not have executed?
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un, p2:uc = cmpp.eq(r1, 0)
  r5 = add(r1, 1) if p2
  r6 = add(r5, 1) if p2
  store(r6, r6) if p2
  halt
}
)");
  const Block &A = F->block(0);
  RegionPQS PQS(*F, A);
  Liveness LV(*F);
  PredicatedLiveness PLV(*F, A, PQS, LV);
  BDD &M = PQS.bdd();

  // r5 after op 1 is live only under p2 (read by op 2 guarded p2), which
  // is disjoint from !p2: promotion of op 1 is safe.
  BDD::NodeRef LiveR5 = PLV.liveAfter(1, Reg::gpr(5));
  BDD::NodeRef NotGuard = M.mkNot(PQS.guardExpr(1));
  EXPECT_TRUE(M.disjoint(LiveR5, NotGuard));
}

TEST(PredicatedLivenessTest, BranchTargetRegLiveOnlyWhenTaken) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  b1 = pbr(@X)
  p1:un = cmpp.eq(r1, 0)
  branch(p1, b1)
  halt
block @X:
  halt
}
)");
  const Block &A = F->block(0);
  RegionPQS PQS(*F, A);
  Liveness LV(*F);
  PredicatedLiveness PLV(*F, A, PQS, LV);
  // The BTR is live before the branch only under the taken condition.
  BDD::NodeRef LiveB = PLV.liveBefore(2, Reg::btr(1));
  EXPECT_EQ(LiveB, PQS.takenExpr(2));
}

} // namespace
