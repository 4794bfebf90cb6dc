//===- tests/analysis/DataflowTest.cpp - Dense dataflow solver units ------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// The generic solver of analysis/Dataflow.h and its three in-tree
// clients: the dense register numbering, the forward/union reaching-def
// block analysis (including propagation around loop back edges), the
// forward/intersection definite-assignment analysis, and the
// predicate-partitioned write classification that feeds both.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

#include "analysis/PQS.h"
#include "ir/IRParser.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

size_t layoutOf(const Function &F, const char *Name) {
  for (size_t L = 0; L < F.numBlocks(); ++L)
    if (F.block(L).getName() == Name)
      return L;
  ADD_FAILURE() << "no block named " << Name;
  return 0;
}

TEST(RegNumberingTest, DenseAscendingOrder) {
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  r3 = add(r1, 1)
  r3 = sub(r3, r2)
  halt
}
)");
  RegNumbering N(*F);
  // Ascending register order, no duplicates, and no bit for the
  // always-true predicate guard.
  EXPECT_EQ(N.size(), 3u);
  EXPECT_EQ(N.indexOf(Reg::gpr(1)), 0);
  EXPECT_EQ(N.indexOf(Reg::gpr(2)), 1);
  EXPECT_EQ(N.indexOf(Reg::gpr(3)), 2);
  EXPECT_EQ(N.indexOf(Reg::truePred()), -1);
  EXPECT_EQ(N.indexOf(Reg::gpr(9)), -1);
  for (size_t I = 0; I < N.size(); ++I)
    EXPECT_EQ(N.indexOf(N.regOf(I)), static_cast<int>(I));
}

TEST(RegNumberingTest, HugeIdsNeedNoHugeTable) {
  // Ids far beyond the function's size (legal in cprd input) are numbered
  // through the sparse path: same ascending order, same lookups.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
  observable r4000000000
block @A:
  r4000000000 = add(r7, r3000000000)
  p2000000000:un = cmpp.eq(r7, 0)
  store(r7, 1) if p2000000000
  halt
}
)");
  RegNumbering N(*F);
  ASSERT_EQ(N.size(), 4u);
  EXPECT_EQ(N.regOf(0), Reg::gpr(7));
  EXPECT_EQ(N.regOf(1), Reg::gpr(3000000000u));
  EXPECT_EQ(N.regOf(2), Reg::gpr(4000000000u));
  EXPECT_EQ(N.regOf(3), Reg::pred(2000000000u));
  for (size_t I = 0; I < N.size(); ++I)
    EXPECT_EQ(N.indexOf(N.regOf(I)), static_cast<int>(I));
  EXPECT_EQ(N.indexOf(Reg::gpr(3999999999u)), -1);
  EXPECT_EQ(N.indexOf(Reg::pred(1)), -1);
  EXPECT_EQ(N.indexOf(Reg()), -1);
}

TEST(ReachingDefBlocksTest, PropagatesAroundLoopBackEdge) {
  // @Loop defines r5 and branches back to itself: the def reaches
  // @Loop's own entry around the back edge, and @Exit's entry by fall
  // through. Nothing reaches the entry of @Loop from @Exit.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @Loop:
  r5 = add(r5, 1)
  p1:un = cmpp.lt(r5, 10)
  b1 = pbr(@Loop)
  branch(p1, b1)
block @Exit:
  r7 = mov(2)
  halt
}
)");
  RegNumbering N(*F);
  ReachingDefBlocks Reach(*F, N);
  size_t Loop = layoutOf(*F, "Loop"), Exit = layoutOf(*F, "Exit");
  EXPECT_TRUE(Reach.reachesEntry(Reg::gpr(5), Loop));
  EXPECT_TRUE(Reach.reachesEntry(Reg::gpr(5), Exit));
  // r7's only def is in @Exit, which nothing follows.
  EXPECT_FALSE(Reach.reachesEntry(Reg::gpr(7), Loop));
  EXPECT_FALSE(Reach.reachesEntry(Reg::gpr(7), Exit));
  // r1 is never defined at all.
  EXPECT_TRUE(Reach.hasAnyDef(Reg::gpr(5)));
  EXPECT_FALSE(Reach.hasAnyDef(Reg::gpr(1)));
}

TEST(DefiniteAssignmentTest, IntersectionOverDiamondPaths) {
  // Diamond: the left arm writes r3 and r4, the right arm only r4. At
  // the join only r4 is assigned on every path.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @E:
  p1:un = cmpp.lt(r1, 5)
  b1 = pbr(@Right)
  branch(p1, b1)
block @Left:
  r3 = mov(1)
  r4 = mov(1)
  p2 = mov(1)
  b2 = pbr(@Join)
  branch(p2, b2)
block @Right:
  r4 = mov(2)
block @Join:
  r6 = add(r4, 0)
  halt
}
)");
  RegNumbering N(*F);
  DefiniteAssignment DA(*F, N);
  size_t Join = layoutOf(*F, "Join");
  EXPECT_TRUE(DA.assignedAtEntry(Reg::gpr(4), Join));
  EXPECT_FALSE(DA.assignedAtEntry(Reg::gpr(3), Join));
  // Nothing is assigned at the function entry.
  EXPECT_FALSE(DA.assignedAtEntry(Reg::gpr(4), layoutOf(*F, "E")));
}

TEST(DefiniteAssignmentTest, GuardedWriteDoesNotCount) {
  // The write of r3 is guarded by a predicate that is not provably
  // true, so the read block cannot treat r3 as assigned.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1:un = cmpp.lt(r1, 5)
  r3 = mov(1) if p1
  r4 = mov(2)
block @B:
  r6 = add(r4, 0)
  halt
}
)");
  RegNumbering N(*F);
  DefiniteAssignment DA(*F, N);
  size_t B = layoutOf(*F, "B");
  EXPECT_FALSE(DA.assignedAtEntry(Reg::gpr(3), B));
  EXPECT_TRUE(DA.assignedAtEntry(Reg::gpr(4), B));
}

TEST(PredicatedWriteKindTest, PQSPartitionsGuardedWrites) {
  // p1 is constant-false (mov(0), never accumulated): a write under it
  // is Never. p2 comes from a compare: Maybe. Unguarded writes are
  // Always regardless of PQS.
  std::unique_ptr<Function> F = parseFunctionOrDie(R"(
func @f {
block @A:
  p1 = mov(0)
  p2:un = cmpp.lt(r1, 5)
  r3 = mov(1) if p1
  r4 = mov(2) if p2
  r5 = mov(3)
  halt
}
)");
  const Block &B = F->block(0);
  RegionPQS PQS(*F, B);
  auto KindAt = [&](size_t OpIdx) {
    const Operation &Op = B.ops()[OpIdx];
    return predicatedWriteKind(Op, Op.defs()[0], &PQS, OpIdx);
  };
  EXPECT_EQ(KindAt(2), WriteKind::Never);
  EXPECT_EQ(KindAt(3), WriteKind::Maybe);
  EXPECT_EQ(KindAt(4), WriteKind::Always);
  // Without PQS the classification is purely syntactic: any computed
  // guard is Maybe.
  const Operation &DeadMov = B.ops()[2];
  EXPECT_EQ(predicatedWriteKind(DeadMov, DeadMov.defs()[0], nullptr, 2),
            WriteKind::Maybe);
}

} // namespace
