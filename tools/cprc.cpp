//===- tools/cprc.cpp - Command-line control CPR driver -------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// A command-line driver over the library: reads a program in the textual
// IR, runs the requested phases, and prints the result. Initial register
// values and memory cells come from flags, so small experiments need no
// C++ at all.
//
//   cprc input.cpr [options]     (see --help; the option list below is
//                                 generated from one declarative table)
//
// The measurement paths (--estimate, --simulate, --check-equivalence,
// --trace-out) are built on the staged pipeline session API
// (pipeline/PipelineRun.h): one PipelineRun owns the baseline program,
// profiles it once, and shares that artifact across every machine and
// predictor estimate; --threads fans the independent estimates out on a
// work-queue thread pool, and --stats-json dumps the per-stage counters
// and wall times the session records. cprc is the exemplar caller of the
// staged API -- see docs/PIPELINE.md.
//
// --fail-safe switches the compile from strict (first failure is fatal)
// to the recoverable model of docs/ROBUSTNESS.md: failing regions roll
// back, budgets degrade to the baseline, and diagnostics print at exit.
//
// Exit codes (support/Diagnostic.h): 0 success, 1 failure (I/O,
// recovered-but-degraded fail-safe compile), 2 usage error, 3 input IR
// parse error, 4 input IR verification error.
//
//===----------------------------------------------------------------------===//

#include "analysis/ProfileIO.h"
#include "cpr/ControlCPR.h"
#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "cpr/PredicateSpeculation.h"
#include "lint/Lint.h"
#include "pipeline/PipelineRun.h"
#include "fuzz/Corpus.h"
#include "regions/FRPConversion.h"
#include "regions/DeadCodeElim.h"
#include "regions/IfConversion.h"
#include "regions/LoopUnroller.h"
#include "regions/Simplify.h"
#include "sched/ListScheduler.h"
#include "serve/Client.h"
#include "sim/TraceSimulator.h"
#include "support/Budget.h"
#include "support/Diagnostic.h"
#include "support/OptionParser.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace cpr;

namespace {

/// Everything the option table fills in.
struct Config {
  std::string InputPath;
  std::string Server;
  std::string Phase = "all";
  std::string ScheduleFor;
  std::string ProfileOut, ProfileIn, TraceOut, StatsJSON;
  unsigned UnrollFactor = 1;
  unsigned Threads = 1;
  bool Simplify = false, IfConvert = false;
  bool Run = false, Estimate = false, Simulate = false;
  bool CheckEquiv = false;
  bool FailSafe = false, RegionEquiv = false;
  bool Lint = false, Werror = false;
  unsigned InterpMaxSteps = 0;
  unsigned TransformSteps = 0, TransformMs = 0;
  unsigned Retries = 3;
  unsigned DeadlineMs = 0;
  bool Help = false;
  int MispredictPenalty = -1;
  std::vector<PredictorKind> Predictors;
  /// First unrecognized --predictor= name; reported after parsing so the
  /// message can list the registered predictors (a recoverable usage
  /// diagnostic, not a generic option error).
  std::string BadPredictor;
  FrontendOptions Frontend;
  PrintOptions PO;
  CPROptions CPR;
  std::vector<RegBinding> InitRegs;
  Memory InitMem;
};

bool parseReg(const std::string &Spec, RegBinding &Out) {
  size_t Eq = Spec.find('=');
  if (Eq == std::string::npos || Eq < 2)
    return false;
  std::string Name = Spec.substr(0, Eq);
  RegClass RC;
  switch (Name[0]) {
  case 'r':
    RC = RegClass::GPR;
    break;
  case 'f':
    RC = RegClass::FPR;
    break;
  case 'p':
    RC = RegClass::PR;
    break;
  default:
    return false;
  }
  Out.R = Reg(RC, static_cast<uint32_t>(std::strtoul(Name.c_str() + 1,
                                                     nullptr, 10)));
  Out.Value = std::strtoll(Spec.c_str() + Eq + 1, nullptr, 10);
  return true;
}

/// The declarative option table; --help output is generated from it.
OptionTable buildOptions(Config &C) {
  OptionTable T;
  T.addString("--phase", "<frp|speculate|cpr|all|none>",
              "stop after the named phase (default all)", C.Phase);
  T.addFlag("--run", "interpret the (final) program", C.Run);
  T.add({"--reg", OptArg::Separate, "rN=V",
         "initial register value, repeatable; runs need enough inputs to "
         "halt",
         [&C](const std::string &V) {
           RegBinding B;
           if (!parseReg(V, B))
             return false;
           C.InitRegs.push_back(B);
           return true;
         }});
  T.add({"--mem", OptArg::Separate, "A=V",
         "initial memory cell, repeatable",
         [&C](const std::string &V) {
           size_t Eq = V.find('=');
           if (Eq == std::string::npos)
             return false;
           C.InitMem.store(std::strtoll(V.c_str(), nullptr, 10),
                           std::strtoll(V.c_str() + Eq + 1, nullptr, 10));
           return true;
         }});
  T.addString("--schedule", "<machine>",
              "print the schedule for one machine", C.ScheduleFor);
  T.addFlag("--estimate",
            "per-machine cycle estimates (needs a profileable program)",
            C.Estimate);
  T.addDouble("--exit-weight", "<f>", "CPR exit-weight threshold",
              C.CPR.ExitWeightThreshold);
  T.addDouble("--predict-taken", "<f>", "CPR predict-taken threshold",
              C.CPR.PredictTakenThreshold);
  T.addUnsigned("--max-branches", "<n>", "CPR branches-per-block cap",
                C.CPR.MaxBranchesPerBlock);
  T.addFlag("--no-speculation", "disable predicate speculation",
            C.CPR.EnablePredicateSpeculation, /*Value=*/false);
  T.addFlag("--no-taken-variation", "disable the taken-variation schema",
            C.CPR.EnableTakenVariation, /*Value=*/false);
  T.addFlag("--simplify", "run simplify + DCE before the phases",
            C.Simplify);
  T.addFlag("--if-convert", "if-convert before the phases", C.IfConvert);
  T.addUnsigned("--unroll", "<n>", "unroll self-loop blocks by this factor",
                C.UnrollFactor);
  T.addFlag("--show-ids", "print stable operation ids", C.PO.ShowOpIds);
  T.addString("--profile-out", "<file>", "save the baseline profile",
              C.ProfileOut);
  T.addString("--profile-in", "<file>", "load a profile instead of running",
              C.ProfileIn);
  T.addFlag("--check-equivalence",
            "run the baseline/transformed equivalence oracle", C.CheckEquiv);
  T.addFlag("--fail-safe",
            "recoverable compile: roll failing regions back instead of "
            "aborting; diagnostics print at exit",
            C.FailSafe);
  T.addFlag("--region-equivalence",
            "fail-safe: re-check equivalence after each region and roll "
            "back on mismatch (expensive)",
            C.RegionEquiv);
  T.addFlag("--lint",
            "run the static semantic checks before and after the phases; "
            "with --fail-safe, regions whose transform introduces a "
            "finding roll back",
            C.Lint);
  T.addFlag("--werror",
            "exit nonzero when any warning-severity diagnostic was "
            "reported (budget exhaustion, lint warnings, ...)",
            C.Werror);
  T.addUnsigned("--interp-max-steps", "<n>",
                "step budget for profiling/oracle runs (0 = unlimited)",
                C.InterpMaxSteps);
  T.addUnsigned("--transform-steps", "<n>",
                "transform budget: max CPR block transforms "
                "(0 = unlimited)",
                C.TransformSteps);
  T.addUnsigned("--transform-ms", "<n>",
                "transform budget: wall-clock cap in ms (0 = unlimited)",
                C.TransformMs);
  T.addFlag("--simulate",
            "trace-driven dynamic estimates for baseline and transformed "
            "code",
            C.Simulate);
  std::string PredMeta = "<";
  for (const PredictorInfo &PI : predictorRegistry())
    PredMeta += std::string(PI.Name) + "|";
  PredMeta += "all>";
  T.add({"--predictor", OptArg::Joined, PredMeta,
         "predictor(s) to simulate, repeatable (default all)",
         [&C](const std::string &V) {
           if (V == "all") {
             C.Predictors = allPredictorKinds();
             return true;
           }
           PredictorKind K;
           if (!parsePredictorKind(V, K)) {
             // Defer: report one rich diagnostic naming the registered
             // predictors instead of the table's generic option error.
             if (C.BadPredictor.empty())
               C.BadPredictor = V;
             return true;
           }
           C.Predictors.push_back(K);
           return true;
         }});
  T.add({"--btb", OptArg::Joined, "<SETSxWAYS|off>",
         "model a set-associative BTB in --simulate (e.g. 64x4); taken "
         "branches whose target misses pay a redirect penalty",
         [&C](const std::string &V) {
           if (V == "off") {
             C.Frontend.UseBTB = false;
             return true;
           }
           BTBConfig B;
           if (!parseBTBConfig(V, B))
             return false;
           C.Frontend.UseBTB = true;
           C.Frontend.BTB = B;
           return true;
         }});
  T.add({"--btb-miss-penalty", OptArg::Joined, "<n>",
         "redirect cycles for a BTB miss (default: per machine)",
         [&C](const std::string &V) {
           char *End = nullptr;
           long N = std::strtol(V.c_str(), &End, 10);
           if (V.empty() || *End != '\0' || N < 0)
             return false;
           C.Frontend.BTBMissPenalty = static_cast<int>(N);
           return true;
         }});
  T.add({"--fetch-width", OptArg::Joined, "<n>",
         "decoupled-frontend fetch model in --simulate: ops fetched per "
         "cycle, taken branches end the packet (0 = machine fetch width)",
         [&C](const std::string &V) {
           char *End = nullptr;
           long N = std::strtol(V.c_str(), &End, 10);
           if (V.empty() || *End != '\0' || N < 0)
             return false;
           C.Frontend.Decoupled = true;
           C.Frontend.FetchWidth = static_cast<int>(N);
           return true;
         }});
  T.add({"--mispredict-penalty", OptArg::Joined, "<n>",
         "penalty cycles (default: per machine)",
         [&C](const std::string &V) {
           char *End = nullptr;
           long N = std::strtol(V.c_str(), &End, 10);
           if (V.empty() || *End != '\0' || N < 0)
             return false;
           C.MispredictPenalty = static_cast<int>(N);
           return true;
         }});
  T.addString("--trace-out", "<file>", "save the baseline branch trace",
              C.TraceOut);
  T.addUnsigned("--threads", "<n>",
                "worker threads for estimates/simulations (0 = all cores)",
                C.Threads);
  T.addString("--stats-json", "<file>",
              "write per-stage counters and wall times as JSON", C.StatsJSON);
  T.addString("--server", "<socket>",
              "compile on the cprd daemon at this socket instead of "
              "in-process (docs/SERVICE.md); CPR/budget flags travel "
              "with the request",
              C.Server);
  T.addUnsigned("--retries", "<n>",
                "with --server: retries on \"busy\" and transient IO "
                "failures (exponential backoff, default 3)",
                C.Retries);
  T.addUnsigned("--deadline-ms", "<n>",
                "with --server: whole-request deadline; bounds both the "
                "client's retry loop and the daemon's compile "
                "(0 = none)",
                C.DeadlineMs);
  T.addFlag("--help", "print this help", C.Help);
  T.addFlag("-h", "print this help", C.Help);
  return T;
}

/// The first set flag a --server= compile cannot forward (the cprd-v1
/// request has no field for it), or null. Such a flag is rejected rather
/// than silently dropped.
const char *unforwardableServerFlag(const Config &C) {
  if (C.IfConvert)
    return "--if-convert";
  if (C.Simplify)
    return "--simplify";
  if (C.Phase != "all")
    return "--phase";
  return nullptr;
}

/// --server=: ship the compile to a cprd daemon and render its response
/// the way a local compile would have. The file is normalized through the
/// fuzz-program serializer first so --reg/--mem flags merge with any
/// `; reg`/`; mem` directives the file already carries, and so the frame
/// is deterministic (docs/SERVICE.md: equal frames hit the region cache).
int runServerMode(const Config &C, const std::string &Text) {
  FuzzParseResult FP = parseFuzzProgram(Text);
  if (!FP) {
    std::fprintf(stderr, "%s: error: %s\n", C.InputPath.c_str(),
                 FP.Error.c_str());
    return exit_codes::ParseError;
  }
  for (const RegBinding &B : C.InitRegs)
    FP.Program.InitRegs.push_back(B);
  for (const auto &Cell : C.InitMem.cells())
    FP.Program.InitMem.store(Cell.first, Cell.second);

  serve::CompileRequest Req;
  Req.Id = "cprc";
  Req.IR = serializeFuzzProgram(FP.Program);
  Req.CPR = C.CPR;
  Req.UnrollFactor = C.UnrollFactor;
  Req.Lint = C.Lint;
  Req.RegionEquivalence = C.RegionEquiv;
  Req.InterpMaxSteps = C.InterpMaxSteps;
  Req.TransformBudget.MaxSteps = C.TransformSteps;
  Req.TransformBudget.MaxWallMs = C.TransformMs;
  // The daemon gets the full deadline, not the remainder after retries:
  // the frame must stay byte-identical across attempts so every retry
  // lands on the same cache entries.
  Req.DeadlineMs = C.DeadlineMs;

  serve::RetryPolicy Policy;
  Policy.MaxRetries = C.Retries;
  Policy.DeadlineMs = C.DeadlineMs;
  Expected<serve::CompileResponse> Res =
      serve::Client::callWithRetry(C.Server, Req, Policy);
  if (!Res) {
    std::fprintf(stderr, "cprc: error: %s\n",
                 Res.diagnostic().str().c_str());
    return exit_codes::Failure;
  }
  if (Res->Status == "busy") {
    std::fprintf(stderr,
                 "cprc: error: daemon still busy after %u retries\n",
                 C.Retries);
    return exit_codes::Failure;
  }

  unsigned Errors = 0, Warnings = 0;
  for (const serve::WireDiagnostic &D : Res->Diagnostics) {
    std::fprintf(stderr, "cprc: %s: %s [%s] (%s)\n", D.Severity.c_str(),
                 D.Message.c_str(), D.Code.c_str(), D.Site.c_str());
    if (D.Severity == "error" || D.Severity == "fatal")
      ++Errors;
    else if (D.Severity == "warning")
      ++Warnings;
  }

  if (!Res->ok()) {
    std::fprintf(stderr, "cprc: error: daemon answered status \"%s\"\n",
                 Res->Status.c_str());
    // Map the first error code onto the local exit-code convention so
    // scripts see the same exits either way.
    for (const serve::WireDiagnostic &D : Res->Diagnostics) {
      if (D.Code == "parse-error")
        return exit_codes::ParseError;
      if (D.Code == "verify-failed")
        return exit_codes::VerifyError;
    }
    return exit_codes::Failure;
  }

  std::fprintf(stderr,
               "cpr: %u region(s), %u CPR block(s) formed, %u "
               "transformed; cache: %llu hit(s), %llu miss(es)\n",
               Res->CPR.RegionsProcessed, Res->CPR.CPRBlocksFormed,
               Res->CPR.CPRBlocksTransformed,
               static_cast<unsigned long long>(Res->CacheHits),
               static_cast<unsigned long long>(Res->CacheMisses));
  std::printf("%s", Res->IR.c_str());
  if (Errors > 0)
    return exit_codes::Failure;
  if (C.Werror && Warnings > 0)
    return exit_codes::Failure;
  return exit_codes::Success;
}

const MachineDesc *findMachine(const std::vector<MachineDesc> &Machines,
                               const std::string &Name) {
  for (const MachineDesc &M : Machines)
    if (M.getName() == Name)
      return &M;
  return nullptr;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  OptionTable Options = buildOptions(C);
  const std::string Usage = "usage: cprc <input.cpr> [options]";

  std::string ParseError;
  std::vector<std::string> Positional;
  if (!Options.parse(argc, argv, ParseError, &Positional)) {
    std::fprintf(stderr, "cprc: %s\n%s", ParseError.c_str(),
                 Options.help(Usage).c_str());
    return exit_codes::UsageError;
  }
  if (C.Help) {
    std::printf("%s", Options.help(Usage).c_str());
    return exit_codes::Success;
  }
  if (!C.BadPredictor.empty()) {
    Diagnostic D{DiagSeverity::Error, DiagCode::UsageError,
                 "unknown predictor '" + C.BadPredictor +
                     "'; registered predictors: " + predictorNamesList() +
                     " (or 'all')",
                 "cprc.options", 0};
    std::fprintf(stderr, "cprc: %s\n", D.str().c_str());
    return exit_codes::UsageError;
  }
  if (Positional.size() != 1) {
    std::fprintf(stderr, "%s", Options.help(Usage).c_str());
    return exit_codes::UsageError;
  }
  C.InputPath = Positional[0];
  if (!C.Server.empty())
    if (const char *Flag = unforwardableServerFlag(C)) {
      std::fprintf(stderr,
                   "cprc: %s cannot be sent to a --server= daemon; "
                   "compile locally instead\n",
                   Flag);
      return exit_codes::UsageError;
    }

  std::ifstream In(C.InputPath);
  if (!In) {
    std::fprintf(stderr, "cprc: error: cannot open '%s'\n",
                 C.InputPath.c_str());
    return exit_codes::Failure;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();

  if (!C.Server.empty())
    return runServerMode(C, Buf.str());

  ParseResult PR = parseFunction(Buf.str());
  if (!PR) {
    std::fprintf(stderr, "%s:%u: error: %s\n", C.InputPath.c_str(), PR.Line,
                 PR.Error.c_str());
    return exit_codes::ParseError;
  }
  std::unique_ptr<Function> F = std::move(PR.Func);
  std::vector<std::string> Errors = verifyFunction(*F);
  if (!Errors.empty()) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "%s: error: verifier: %s\n", C.InputPath.c_str(),
                   E.c_str());
    return exit_codes::VerifyError;
  }

  // Optional preparation passes (applied to the shared baseline, as the
  // paper's IMPACT preprocessing was).
  if (C.IfConvert) {
    IfConversionStats IS = ifConvert(*F);
    verifyOrDie(*F, "after if-conversion");
    std::fprintf(stderr, "if-convert: %u branch(es) folded, %u ops "
                 "predicated\n",
                 IS.BranchesConverted, IS.OpsPredicated);
  }
  if (C.UnrollFactor >= 2) {
    unsigned Unrolled = 0;
    for (size_t I = 0; I < F->numBlocks(); ++I)
      if (unrollLoop(*F, F->block(I), C.UnrollFactor).Unrolled)
        ++Unrolled;
    verifyOrDie(*F, "after unrolling");
    std::fprintf(stderr, "unroll: %u loop(s) unrolled x%u\n", Unrolled,
                 C.UnrollFactor);
  }
  if (C.Simplify || C.UnrollFactor >= 2) {
    SimplifyStats SS = simplifyFunction(*F);
    eliminateDeadCode(*F);
    verifyOrDie(*F, "after simplify");
    std::fprintf(stderr,
                 "simplify: %u folded, %u copies propagated, %u CSE\n",
                 SS.ConstantsFolded, SS.CopiesPropagated,
                 SS.ExpressionsReused);
  }

  // One staged session over the prepared baseline. Phase transformation
  // happens outside the session (cprc's --phase selection is finer than
  // the pipeline's transform stage) and is injected via setTreated; the
  // session then reuses one baseline profile/trace across equivalence,
  // every machine estimate, and every predictor simulation.
  const bool NeedTrace = C.Simulate || !C.TraceOut.empty();
  StatsRegistry Stats;
  StatsRegistry *StatsPtr = C.StatsJSON.empty() ? nullptr : &Stats;
  DiagnosticEngine Diags(StatsPtr, F->getName() + "/");
  PipelineOptions SessionOpts;
  SessionOpts.CPR = C.CPR;
  SessionOpts.Simulate = NeedTrace;
  SessionOpts.MispredictPenalty = C.MispredictPenalty;
  SessionOpts.Frontend = C.Frontend;
  SessionOpts.CheckEquivalence = false; // driven explicitly below
  SessionOpts.FailSafe = C.FailSafe;
  SessionOpts.RegionEquivalence = C.RegionEquiv;
  SessionOpts.InterpMaxSteps = C.InterpMaxSteps;
  SessionOpts.TransformBudget.MaxSteps = C.TransformSteps;
  SessionOpts.TransformBudget.MaxWallMs = C.TransformMs;
  SessionOpts.Diags = &Diags;

  KernelProgram Program;
  Program.Func = F->clone();
  Program.InitRegs = C.InitRegs;
  Program.InitMem = C.InitMem;
  PipelineRun Session(std::move(Program), SessionOpts, StatsPtr,
                      F->getName() + "/");

  // A profile is required for the ICBM phase; load one or obtain it from
  // the session's baseline profiling run. A loaded profile is injected
  // into the session only when no branch trace is needed -- traces only
  // exist for profiling runs the session performs itself.
  ProfileData LoadedProfile;
  bool HaveLoaded = false;
  if (!C.ProfileIn.empty()) {
    std::ifstream PIn(C.ProfileIn);
    if (!PIn) {
      std::fprintf(stderr, "cprc: error: cannot open profile '%s'\n",
                   C.ProfileIn.c_str());
      return exit_codes::Failure;
    }
    std::stringstream PBuf;
    PBuf << PIn.rdbuf();
    ProfileParseResult PP = parseProfile(PBuf.str());
    if (!PP) {
      std::fprintf(stderr, "%s: error: %s\n", C.ProfileIn.c_str(),
                   PP.Error.c_str());
      return exit_codes::ParseError;
    }
    LoadedProfile = std::move(PP.Profile);
    HaveLoaded = true;
    if (!NeedTrace)
      Session.setBaselineProfile(LoadedProfile);
  }

  const bool NeedProfile = C.Phase == "cpr" || C.Phase == "all" ||
                           C.Estimate || !C.ProfileOut.empty();
  const ProfileData *PhaseProfile = nullptr;
  if (HaveLoaded)
    PhaseProfile = &LoadedProfile;
  else if (NeedProfile)
    PhaseProfile = &Session.baselineProfile();

  if (!C.ProfileOut.empty()) {
    std::ofstream POut(C.ProfileOut);
    if (!POut) {
      std::fprintf(stderr, "cprc: error: cannot write profile '%s'\n",
                   C.ProfileOut.c_str());
      return exit_codes::Failure;
    }
    POut << serializeProfile(*PhaseProfile, *F);
  }

  // Static semantic checks (docs/LINT.md), differential around the
  // phases: pre-phase findings belong to the input and only downgrade
  // the post-phase policy; new post-phase findings are the transform's.
  LintDriver Linter = LintDriver::withBuiltinPasses();
  bool BaselineLintClean = true;
  if (C.Lint) {
    LintResult LR = Linter.run(*F, nullptr, &C.InitRegs);
    reportLintFindings(LR, Diags);
    BaselineLintClean = LR.errorCount() == 0;
    std::fprintf(stderr, "lint: input: %zu finding(s)\n",
                 LR.Findings.size());
  }

  // Phases.
  if (C.Phase == "frp" || C.Phase == "speculate") {
    for (size_t I = 0; I < F->numBlocks(); ++I)
      if (!F->block(I).isCompensation())
        convertToFRP(*F, F->block(I));
    if (C.Phase == "speculate")
      for (size_t I = 0; I < F->numBlocks(); ++I)
        if (!F->block(I).isCompensation())
          speculatePredicates(*F, F->block(I));
  } else if (C.Phase == "cpr" || C.Phase == "all") {
    // Strict by default (legacy fatal-on-failure); --fail-safe swaps in
    // the transactional context: rollback on faults, optional per-region
    // equivalence re-check against the prepared baseline, and budgets.
    CPRContext Ctx;
    Ctx.FailSafe = C.FailSafe;
    Ctx.Diags = &Diags;
    Budget TransformLimit;
    TransformLimit.MaxSteps = C.TransformSteps;
    TransformLimit.MaxWallMs = C.TransformMs;
    BudgetTracker TransformBudget(TransformLimit);
    if (!TransformLimit.unlimited())
      Ctx.Budget = &TransformBudget;
    if (C.FailSafe && C.Lint && BaselineLintClean)
      Ctx.RegionLint = [&Linter, &C](const Function &Candidate) -> Status {
        return lintStatus(Linter.run(Candidate, nullptr, &C.InitRegs));
      };
    std::unique_ptr<Function> OracleBaseline;
    if (C.FailSafe && C.RegionEquiv) {
      OracleBaseline = F->clone();
      Ctx.RegionOracle = [&](const Function &Candidate) -> Status {
        EquivResult E = checkEquivalence(*OracleBaseline, Candidate,
                                         C.InitMem, C.InitRegs);
        if (!E.Equivalent)
          return Status::error(DiagCode::OracleMismatch,
                               "region equivalence re-check failed [" +
                                   std::string(divergenceName(E.Kind)) +
                                   "]: " + E.Detail,
                               "interp.oracle");
        return Status::success();
      };
    }
    CPRResult CR = runControlCPR(*F, *PhaseProfile, C.CPR, Ctx);
    std::fprintf(stderr,
                 "cpr: %u region(s), %u CPR block(s) formed, %u "
                 "transformed (%u taken variation), %u ops moved "
                 "off-trace, %u split\n",
                 CR.RegionsProcessed, CR.CPRBlocksFormed,
                 CR.CPRBlocksTransformed, CR.TakenVariants,
                 CR.OpsMovedOffTrace, CR.OpsSplit);
    if (CR.BlocksRolledBack > 0 || CR.RegionsSkippedBudget > 0)
      std::fprintf(stderr,
                   "cpr: fail-safe: %u block(s) rolled back in %u "
                   "region(s), %u region(s) skipped on budget\n",
                   CR.BlocksRolledBack, CR.RegionsRolledBack,
                   CR.RegionsSkippedBudget);
    if (StatsPtr) {
      // The phase transform runs outside the session (it is injected via
      // setTreated below), so mirror its outcome counters into the stats
      // document by hand -- same keys the pipeline's transform stage uses.
      const std::string P = F->getName() + "/";
      StatsPtr->addCount(P + "cpr/regions", CR.RegionsProcessed);
      StatsPtr->addCount(P + "cpr/blocks_formed", CR.CPRBlocksFormed);
      StatsPtr->addCount(P + "cpr/blocks_transformed",
                         CR.CPRBlocksTransformed);
      StatsPtr->addCount(P + "cpr/branches_merged", CR.BranchesCovered);
      StatsPtr->addCount(P + "cpr/ops_moved_off_trace", CR.OpsMovedOffTrace);
      StatsPtr->addCount(P + "cpr/ops_split", CR.OpsSplit);
      StatsPtr->addCount(P + "cpr/blocks_rolled_back", CR.BlocksRolledBack);
      StatsPtr->addCount(P + "cpr/regions_rolled_back",
                         CR.RegionsRolledBack);
      StatsPtr->addCount(P + "cpr/regions_skipped_budget",
                         CR.RegionsSkippedBudget);
      StatsPtr->addCount(P + "budget/transform_exhausted",
                         CR.BudgetExhausted ? 1 : 0);
    }
  } else if (C.Phase != "none") {
    std::fprintf(stderr, "unknown phase '%s'\n", C.Phase.c_str());
    return exit_codes::UsageError;
  }
  verifyOrDie(*F, "cprc output");

  if (C.Lint) {
    LintResult LR = Linter.run(*F, nullptr, &C.InitRegs);
    // Findings the input already had are not re-reported as new errors;
    // any error here on a lint-clean input is a transform regression.
    if (BaselineLintClean)
      reportLintFindings(LR, Diags);
    std::fprintf(stderr, "lint: output: %zu finding(s)\n",
                 LR.Findings.size());
  }

  std::printf("%s", printFunction(*F, C.PO).c_str());

  const bool NeedTreated = C.Estimate || C.Simulate || C.CheckEquiv;
  if (NeedTreated)
    Session.setTreated(F->clone());

  if (C.Run) {
    Memory Mem = C.InitMem;
    RunResult R = interpret(*F, Mem, C.InitRegs);
    std::printf("\n; run: %s after %llu steps",
                R.halted() ? "halted" : R.ErrorMsg.c_str(),
                static_cast<unsigned long long>(R.Steps));
    if (!R.Observed.empty()) {
      std::printf("; observables:");
      for (size_t I = 0; I < R.Observed.size(); ++I)
        std::printf(" %s=%lld", F->observableRegs()[I].str().c_str(),
                    static_cast<long long>(R.Observed[I]));
    }
    std::printf("\n");
  }

  std::vector<MachineDesc> Machines = MachineDesc::paperModels();
  if (!C.ScheduleFor.empty()) {
    const MachineDesc *MD = findMachine(Machines, C.ScheduleFor);
    if (!MD) {
      std::fprintf(stderr, "unknown machine '%s'\n", C.ScheduleFor.c_str());
      return 2;
    }
    for (size_t BI = 0; BI < F->numBlocks(); ++BI) {
      const Block &B = F->block(BI);
      if (B.empty())
        continue;
      Schedule S = scheduleBlockWithAnalyses(*F, B, *MD);
      std::printf("\n; schedule of @%s on %s (length %d):\n",
                  B.getName().c_str(), MD->getName().c_str(), S.length());
      for (size_t OI = 0; OI < B.size(); ++OI)
        std::printf(";   cycle %3d  %s\n", S.cycleOf(OI),
                    printOperation(*F, B.ops()[OI], C.PO).c_str());
    }
  }

  if (C.CheckEquiv) {
    Session.checkEquivalence(); // fatal on mismatch unless --fail-safe
    if (Session.fellBack())
      std::printf("\n; equivalence: MISMATCH; the session fell back to "
                  "the baseline (see diagnostics)\n");
    else
      std::printf("\n; equivalence: baseline and output agree on this "
                  "input\n");
  }

  ThreadPool *Pool = nullptr;
  std::unique_ptr<ThreadPool> PoolStorage;
  if (NeedTreated && C.Threads != 1) {
    PoolStorage = std::make_unique<ThreadPool>(C.Threads);
    Pool = PoolStorage.get();
  }

  if (C.Estimate) {
    Session.prepare();
    std::vector<MachineComparison> Rows(Machines.size());
    parallelFor(Pool, Machines.size(), [&](size_t I) {
      Rows[I] = Session.estimateMachine(Machines[I]);
    });
    std::printf("\n; estimated cycles (baseline -> this output):\n");
    for (const MachineComparison &MC : Rows)
      std::printf(";   %-10s %10.0f -> %10.0f   (%.2fx)\n",
                  MC.MachineName.c_str(), MC.BaselineCycles,
                  MC.TreatedCycles,
                  MC.TreatedCycles > 0
                      ? MC.BaselineCycles / MC.TreatedCycles
                      : 0.0);
  }

  if (!C.TraceOut.empty()) {
    std::ofstream TOut(C.TraceOut);
    if (!TOut) {
      std::fprintf(stderr, "cprc: error: cannot write trace '%s'\n",
                   C.TraceOut.c_str());
      return exit_codes::Failure;
    }
    TOut << serializeBranchTrace(Session.baselineTrace());
  }

  if (C.Simulate) {
    if (C.Predictors.empty())
      C.Predictors = allPredictorKinds();
    Session.prepare();

    std::printf("\n; dynamic simulation (baseline -> this output, "
                "%llu/%llu branch events):\n",
                static_cast<unsigned long long>(
                    Session.baselineTrace().size()),
                static_cast<unsigned long long>(
                    Session.treatedTrace().size()));
    const bool FE = C.Frontend.UseBTB || C.Frontend.Decoupled;
    std::printf(";   %-10s %-9s %12s %9s %6s  -> %12s %9s %6s %8s",
                "machine", "pred", "cycles", "mispred", "MPKI", "cycles",
                "mispred", "MPKI", "speedup");
    if (FE)
      std::printf(" %9s %12s", "BTB-MPKI", "stalls");
    std::printf("\n");
    size_t NumP = C.Predictors.size();
    std::vector<SimComparison> Sims(Machines.size() * NumP);
    parallelFor(Pool, Sims.size(), [&](size_t I) {
      Sims[I] = Session.simulate(Machines[I / NumP],
                                 C.Predictors[I % NumP]);
    });
    for (const SimComparison &SC : Sims) {
      std::printf(";   %-10s %-9s %12.0f %9llu %6.2f  -> %12.0f %9llu "
                  "%6.2f %7.2fx",
                  SC.MachineName.c_str(), SC.PredictorName.c_str(),
                  SC.Baseline.TotalCycles,
                  static_cast<unsigned long long>(SC.Baseline.Mispredicts),
                  SC.Baseline.mpki(), SC.Treated.TotalCycles,
                  static_cast<unsigned long long>(SC.Treated.Mispredicts),
                  SC.Treated.mpki(), SC.speedup());
      if (FE)
        // Treated-side frontend detail: target-miss rate and fetch-stall
        // cycles of the output being measured.
        std::printf(" %9.2f %12llu", SC.Treated.btbMpki(),
                    static_cast<unsigned long long>(
                        SC.Treated.FetchStallCycles));
      std::printf("\n");
    }
  }

  if (!C.StatsJSON.empty()) {
    std::string Error;
    if (!writeStatsJSONFile(Stats, C.StatsJSON, &Error)) {
      std::fprintf(stderr, "cprc: error: %s\n", Error.c_str());
      return exit_codes::Failure;
    }
  }

  // Fail-safe epilogue: every failure above was recovered, but the
  // compile may have been degraded (rollbacks, budget skips, baseline
  // fallback). Surface the collected diagnostics and report the
  // degradation through a distinct nonzero-but-clean exit.
  for (const Diagnostic &D : Diags.diagnostics())
    std::fprintf(stderr, "cprc: %s\n", D.str().c_str());
  if (Diags.errorCount() > 0)
    return exit_codes::Failure;
  if (C.Werror && Diags.count(DiagSeverity::Warning) > 0)
    return exit_codes::Failure;
  return exit_codes::Success;
}
