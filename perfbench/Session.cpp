//===- perfbench/Session.cpp - One staged pipeline session ----------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "Session.h"
#include "CpuClock.h"

#include "analysis/DepGraph.h"
#include "analysis/Liveness.h"
#include "analysis/PQS.h"
#include "cpr/Match.h"
#include "cpr/OffTraceMotion.h"
#include "cpr/PredicateSpeculation.h"
#include "cpr/RegionTransaction.h"
#include "cpr/Restructure.h"
#include "fuzz/Corpus.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "pipeline/PipelineRun.h"
#include "regions/DeadCodeElim.h"
#include "regions/FRPConversion.h"
#include "support/Error.h"
#include "support/Hash.h"

#include <chrono>
#include <cstdio>

using namespace cpr;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Adds the time since the previous lap to a slot; free when tracing is
/// off, so both runs execute the same calls.
class Lap {
public:
  explicit Lap(bool On) : On(On), T0(On ? Clock::now() : Clock::time_point()) {}
  void to(double &Slot) {
    if (!On)
      return;
    Clock::time_point T1 = Clock::now();
    Slot += std::chrono::duration<double, std::milli>(T1 - T0).count();
    T0 = T1;
  }

private:
  bool On;
  Clock::time_point T0;
};

/// The ICBM region loop of runControlCPR in its fail-safe form without a
/// memo store, budget, lint or oracle -- the configuration every session
/// here uses -- rebuilt from the public phase functions with a lap per
/// phase. Its output must print identically to the session's transform.
CPRResult replayICBM(Function &F, const ProfileData &Profile,
                     const CPROptions &Opts, LayerTimes &T) {
  CPRResult Result;
  std::vector<BlockId> Regions;
  for (size_t I = 0, E = F.numBlocks(); I != E; ++I)
    if (!F.block(I).isCompensation())
      Regions.push_back(F.block(I).getId());

  for (BlockId RId : Regions) {
    Block &B = *F.blockById(RId);
    if (B.empty())
      continue;
    ++Result.RegionsProcessed;
    std::vector<Operation> Snapshot = B.ops();

    Lap L(true);
    convertToFRP(F, B);
    L.to(T[FRP]);
    SpeculationStats SS;
    if (Opts.EnablePredicateSpeculation)
      SS = speculatePredicates(F, B);
    L.to(T[Speculate]);
    std::vector<CPRBlockInfo> Blocks = matchCPRBlocks(F, B, Profile, Opts);
    L.to(T[Match]);

    bool AnyTransformable = false;
    for (const CPRBlockInfo &Info : Blocks)
      AnyTransformable |= Info.Transformable;
    Result.CPRBlocksFormed += static_cast<unsigned>(Blocks.size());
    for (const CPRBlockInfo &Info : Blocks)
      ++Result.StopReasons[static_cast<unsigned>(Info.StopReason)];
    if (!AnyTransformable) {
      B.ops() = std::move(Snapshot);
      continue;
    }
    Result.Promoted += SS.Promoted;
    Result.Demoted += SS.Demoted;

    unsigned TransformedHere = 0;
    bool RolledBackHere = false;
    for (const CPRBlockInfo &Info : Blocks) {
      if (!Info.Transformable)
        continue;
      Lap BL(true);
      RegionTransaction Txn(F, B.getId());
      BL.to(T[TxnVerify]);
      auto Fail = [&] {
        Txn.rollback();
        ++Result.BlocksRolledBack;
        RolledBackHere = true;
        BL.to(T[TxnVerify]);
      };
      Expected<RestructurePlan> Plan = restructureCPRBlock(F, B, Info);
      BL.to(T[Restructure]);
      if (!Plan) {
        Plan.takeDiagnostic();
        Fail();
        continue;
      }
      Expected<MotionStats> MS = moveOffTrace(F, *Plan);
      BL.to(T[OffTrace]);
      if (!MS) {
        MS.takeDiagnostic();
        Fail();
        continue;
      }
      Status V = Txn.verify("after control CPR block transform");
      BL.to(T[TxnVerify]);
      if (!V) {
        V.takeDiagnostic();
        Fail();
        continue;
      }
      ++TransformedHere;
      ++Result.CPRBlocksTransformed;
      if (Info.TakenVariation)
        ++Result.TakenVariants;
      Result.BranchesCovered += static_cast<unsigned>(Info.size());
      Result.LookaheadsInserted +=
          static_cast<unsigned>(Plan->LookaheadIds.size());
      Result.OpsMovedOffTrace += MS->Moved;
      Result.OpsSplit += MS->Split;
    }
    if (RolledBackHere)
      ++Result.RegionsRolledBack;
    if (TransformedHere == 0)
      B.ops() = std::move(Snapshot);
  }

  Lap L(true);
  Result.DCE = eliminateDeadCode(F);
  L.to(T[DCE]);
  verifyOrDie(F, "after control CPR replay");
  L.to(T[TxnVerify]);
  return Result;
}

/// The counters runControlCPR reports, as text, for the replay check.
std::string cprCounters(const CPRResult &R) {
  std::string S;
  for (unsigned V :
       {R.RegionsProcessed, R.CPRBlocksFormed, R.CPRBlocksTransformed,
        R.TakenVariants, R.BranchesCovered, R.Promoted, R.Demoted,
        R.LookaheadsInserted, R.OpsMovedOffTrace, R.OpsSplit,
        R.BlocksRolledBack, R.RegionsRolledBack, R.RegionsSkippedBudget})
    S += std::to_string(V) + ",";
  for (unsigned V : R.StopReasons)
    S += std::to_string(V) + ",";
  return S;
}

/// One RegionPQS and one medium DepGraph per baseline region.
void buildAnalyses(const Function &F, LayerTimes &T) {
  const MachineDesc Medium = MachineDesc::medium();
  Liveness LV(F);
  for (size_t I = 0, E = F.numBlocks(); I != E; ++I) {
    const Block &B = F.block(I);
    if (B.isCompensation() || B.empty())
      continue;
    Lap L(true);
    RegionPQS PQS(F, B);
    L.to(T[PQSBuild]);
    DepGraph G(F, B, Medium, PQS, LV);
    L.to(T[DepGraphBuild]);
  }
}

/// Prints the treated program in the corpus format and parses it back;
/// false when the reparsed program prints differently.
bool roundTripIR(const Function &Treated, const KernelProgram &P,
                 LayerTimes &T) {
  KernelProgram TP;
  TP.Func = Treated.clone();
  TP.InitRegs = P.InitRegs;
  TP.InitMem = P.InitMem;
  Lap L(true);
  std::string Text = serializeFuzzProgram(TP);
  L.to(T[Print]);
  FuzzParseResult Parsed = parseFuzzProgram(Text);
  L.to(T[Parse]);
  return Parsed && serializeFuzzProgram(Parsed.Program) == Text;
}

/// Deep copy of a program (PipelineRun consumes and mutates its input).
KernelProgram cloneProgram(const KernelProgram &P) {
  KernelProgram C;
  C.Func = P.Func->clone();
  C.InitRegs = P.InitRegs;
  C.InitMem = P.InitMem;
  C.Description = P.Description;
  return C;
}

void fail(SessionOutput &Out, std::string Why) {
  if (!Out.Failed)
    Out.FailReason = std::move(Why);
  Out.Failed = true;
}

} // namespace

const char *const perfbench::LayerMetricNames[NumLayers] = {
    "pipeline.prepare_ms",     "pipeline.profile_baseline_ms",
    "pipeline.transform_ms",   "pipeline.equivalence_ms",
    "pipeline.profile_treated_ms", "pipeline.analyses_ms",
    "pipeline.estimate_ms",    "pipeline.simulate_ms",
    "regions.frp_ms",          "cpr.speculate_ms",
    "cpr.match_ms",            "cpr.restructure_ms",
    "cpr.offtrace_ms",         "cpr.txn_verify_ms",
    "regions.dce_ms",          "analysis.pqs_build_ms",
    "analysis.depgraph_build_ms", "ir.print_ms",
    "ir.parse_ms"};

std::string SessionOutput::signature() const {
  std::string S = Failed ? "failed:" + FailReason : "ok";
  char Buf[64];
  auto Num = [&](double V) {
    std::snprintf(Buf, sizeof(Buf), ",%.17g", V);
    S += Buf;
  };
  for (size_t I = 0; I < BaselineCycles.size(); ++I) {
    Num(BaselineCycles[I]);
    Num(TreatedCycles[I]);
  }
  for (double V : {SimBaselineCycles, SimTreatedCycles,
                   static_cast<double>(SimBranches),
                   static_cast<double>(SimMispredictsTreated),
                   static_cast<double>(SimOpsTreated),
                   static_cast<double>(StaticOpsBaseline),
                   static_cast<double>(StaticOpsTreated),
                   static_cast<double>(InterpSteps)})
    Num(V);
  return S + "," + std::to_string(TreatedIRHash) + "," + cprCounters(CPR);
}

SessionOutput perfbench::runSession(const KernelProgram &P,
                                    const std::vector<MachineDesc> &Machines,
                                    LayerTimes *Trace,
                                    std::unique_ptr<Function> Treated) {
  SessionOutput Out;
  PipelineOptions Opts;
  Opts.Machines = Machines;
  Opts.Simulate = true;
  Opts.Predictors = {PredictorKind::TageScL};
  Opts.FailSafe = true;
  Opts.Threads = 1;

  LayerTimes T{};
  ScopedFatalErrorTrap Trap;
  try {
    KernelProgram Input = cloneProgram(P);
    Clock::time_point Start = Clock::now();
    const double StartCpu = processCpuMs();
    PipelineRun Run(std::move(Input), Opts);
    if (Treated)
      Run.setTreated(std::move(Treated));
    Lap L(Trace != nullptr);
    const Function &Base = Run.baseline();
    L.to(T[Prepare]);
    Run.baselineProfile();
    L.to(T[ProfileBaseline]);
    const Function &TreatedF = Run.treated();
    L.to(T[Transform]);
    bool Equivalent = Run.checkEquivalenceResult().Equivalent;
    L.to(T[Equivalence]);
    Run.treatedProfile();
    L.to(T[ProfileTreated]);
    Run.baselineAnalyses();
    Run.treatedAnalyses();
    L.to(T[Analyses]);
    for (const MachineDesc &MD : Machines) {
      MachineComparison MC = Run.estimateMachine(MD);
      Out.BaselineCycles.push_back(MC.BaselineCycles);
      Out.TreatedCycles.push_back(MC.TreatedCycles);
    }
    L.to(T[Estimate]);
    SimComparison SC =
        Run.simulate(MachineDesc::medium(), PredictorKind::TageScL);
    L.to(T[Simulate]);
    Out.CpuMs = processCpuMs() - StartCpu;
    Out.WallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - Start).count();

    if (!Equivalent)
      fail(Out, "equivalence oracle mismatch");
    if (Run.fellBack())
      fail(Out, "fell back to the baseline");
    Out.SimBaselineCycles = SC.Baseline.TotalCycles;
    Out.SimTreatedCycles = SC.Treated.TotalCycles;
    Out.SimBranches = SC.Baseline.Branches + SC.Treated.Branches;
    Out.SimMispredictsTreated = SC.Treated.Mispredicts;
    Out.SimOpsTreated = SC.Treated.OpsDispatched;
    Out.StaticOpsBaseline = Base.totalOps();
    Out.StaticOpsTreated = TreatedF.totalOps();
    Out.InterpSteps = 2 * (Run.baselineDynStats().OpsDispatched +
                           Run.treatedDynStats().OpsDispatched);
    Out.CPR = Run.cprResult();
    const std::string TreatedText = printFunction(TreatedF);
    Out.TreatedIRHash = hashString(TreatedText);

    if (Trace) {
      std::unique_ptr<Function> Replay = Base.clone();
      CPRResult R = replayICBM(*Replay, Run.baselineProfile(),
                               Opts.CPR, T);
      if (printFunction(*Replay) != TreatedText ||
          cprCounters(R) != cprCounters(Out.CPR))
        fail(Out, "ICBM phase replay differs from runControlCPR");
      buildAnalyses(Base, T);
      if (!roundTripIR(TreatedF, P, T))
        fail(Out, "corpus print/parse round trip changed the program");
      for (unsigned I = 0; I < NumLayers; ++I)
        (*Trace)[I] += T[I];
    }
  } catch (const FatalError &E) {
    fail(Out, std::string("fatal error: ") + E.what());
  }
  return Out;
}
