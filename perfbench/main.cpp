//===- perfbench/main.cpp - End-to-end benchmark entry point --------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// One command for the three workloads of README.md:
//
//   cpr-perfbench --workload paper-suite|fuzz-large|serve-repeat
//                 --seed <n> --seconds <s> --trace 0|1 [--commit <sha>]
//
// --trace 0 measures the end-to-end metrics with no timers inside a
// session. --trace 1 repeats the same timed loop untraced, then traced,
// and reports the per-layer metrics and the tracing overhead. Either way
// every output is checked (equivalence oracle, no fallback, serve
// byte-identity against a cold compile, repetition determinism, and in
// the traced run ICBM replay fidelity); any failed check prints
// "correct": false and exits 1.
//
// The last line of standard output is the result object; the line before
// it is the full result document with provenance (build, compiler, host
// cores, commit, seed, corpus fingerprint).
//
//===----------------------------------------------------------------------===//

#include "Calibration.h"
#include "CpuClock.h"
#include "Serve.h"
#include "Session.h"

#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "support/Hash.h"
#include "support/JSON.h"
#include "support/RNG.h"
#include "workloads/BenchmarkSuite.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <functional>
#include <sys/resource.h>
#include <unistd.h>

using namespace cpr;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Percentile (P in [0, 100]) with linear interpolation between ranks, so
/// it moves smoothly when the items near it trade places.
double percentile(std::vector<double> V, double P) {
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

/// Item I's time: the median of \p PerRep[rep][I] over the repetitions
/// of a run.
std::vector<double>
itemMedians(const std::vector<std::vector<double>> &PerRep) {
  std::vector<double> Out;
  for (size_t I = 0; I < PerRep[0].size(); ++I) {
    std::vector<double> V;
    for (const std::vector<double> &Rep : PerRep)
      V.push_back(Rep[I]);
    Out.push_back(median(std::move(V)));
  }
  return Out;
}

double peakRSSMB() {
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// A workload's set-up, run on scratch state to time it, and its undoing.
struct SetupStep {
  std::function<void()> Run, Undo;

  /// CPU seconds of one set-up; the undoing is not timed.
  double time() const {
    const double Cpu0 = processCpuMs();
    Run();
    const double Ms = processCpuMs() - Cpu0;
    Undo();
    return Ms / 1000.0;
  }
};

/// The times of a run that repeats the same items: every pass of a program
/// set, or every round of a request set.
struct Repetitions {
  std::vector<std::vector<double>> CpuMs, WallMs; ///< [rep][item]
  std::vector<double> CpuS;                       ///< per repetition
  double WallS = 0.0;                             ///< over all repetitions
  std::vector<double> CalibrationMs; ///< host speed samples (Calibration.h)
  std::vector<double> SetupCpuS;     ///< set-up samples
  /// Peak RSS once the first repetition is done, before the calibration
  /// job's table is resident. Later repetitions reuse the same memory; on
  /// serve-repeat they also start fresh daemons, and what earlier daemons
  /// left in the allocator varied the whole-run peak by a fifth between
  /// runs, which a single long-lived daemon would not have.
  double PeakRSSMB = 0.0;

  size_t items() const {
    return CpuMs.empty() ? 0 : CpuMs.size() * CpuMs[0].size();
  }
  /// Records a repetition. Then, as often as fits in a twenty-fifth of the
  /// repetition's wall and at least once, times one \p Setup and runs the
  /// calibration job. Set-up times vary with the host on a scale of 0.1 s,
  /// so they are sampled across the whole run like the items.
  void add(std::vector<double> ItemCpuMs, std::vector<double> ItemWallMs,
           double RepCpuS, double RepWallS, const SetupStep &Setup) {
    if (CpuMs.empty())
      PeakRSSMB = peakRSSMB();
    CpuMs.push_back(std::move(ItemCpuMs));
    WallMs.push_back(std::move(ItemWallMs));
    CpuS.push_back(RepCpuS);
    WallS += RepWallS;
    const double Jobs = RepWallS * 1000.0 / 25.0 / ReferenceCalibrationMs;
    for (unsigned I = 0; I < std::max(1u, static_cast<unsigned>(Jobs)); ++I) {
      SetupCpuS.push_back(Setup.time());
      CalibrationMs.push_back(calibrationMs());
    }
  }
};

double geomean(const std::vector<double> &V) {
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Sessions or requests an untraced run must time: below 100 a p90 has
/// fewer than ten samples beyond it.
constexpr size_t MinItemsForP90 = 100;
/// serve-repeat: requests per unique program in a round, daemon compile
/// workers, and closed-loop clients. One client and one worker keep one
/// request in flight, so the process CPU time over a request is its own.
constexpr unsigned ServeRepeats = 4, ServeWorkers = 1, ServeClients = 1;
/// Generator programs in serve-repeat's request set. They carry most of
/// its cache misses, and p90 falls inside their broad miss latencies, so
/// the set is fixed: drawn from the seed, it moved p90 by a quarter
/// between seeds. The seed orders the requests.
constexpr unsigned ServeGeneratorPrograms = 100;
/// fuzz-large programs per seed. Per-program cost varies several-fold, so
/// fewer programs make the metrics depend on which programs a seed drew.
constexpr unsigned FuzzLargePrograms = 96;

struct Options {
  std::string Workload;
  unsigned Seed = 1;
  unsigned Seconds = 10;
  unsigned Trace = 0;
  std::string Commit = "unknown";
  std::string Socket = "cprd-perfbench.sock";
};

/// serve-repeat's corpus, relative to the checkout root.
const char *const CorpusDir = "tests/fuzz/regressions";

/// Everything one run reports.
struct Report {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems; ///< failed checks, for stderr
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      Metrics;
  JSONValue Detail = JSONValue::object();
  std::string Fingerprint;

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void problem(std::string P) {
    if (Problems.size() < 20)
      Problems.push_back(std::move(P));
  }
  bool correct() const { return Problems.empty() && Failed == 0; }
};

std::string fingerprint(const std::vector<std::string> &Texts) {
  Hasher H;
  for (const std::string &T : Texts)
    H.str(T);
  return H.hex();
}

//===----------------------------------------------------------------------===//
// paper-suite and fuzz-large: one staged session per program.
//===----------------------------------------------------------------------===//

struct ProgramSet {
  std::vector<std::string> Names;
  std::vector<KernelProgram> Programs;
};

/// The 24 Table 2/3 rows, in a seeded order.
ProgramSet paperSuite(uint64_t Seed) {
  std::vector<BenchmarkSpec> Suite = paperBenchmarkSuite();
  RNG R(Seed);
  for (size_t I = Suite.size(); I > 1; --I)
    std::swap(Suite[I - 1], Suite[R.nextBelow(I)]);
  ProgramSet S;
  for (const BenchmarkSpec &B : Suite) {
    S.Names.push_back(B.Name);
    S.Programs.push_back(B.Build());
  }
  return S;
}

/// Region-grammar generator programs several times the size of a suite
/// row: transform cost per region grows with function size.
ProgramSet fuzzLarge(uint64_t Seed) {
  GeneratorConfig C;
  C.MaxBlocks = 40;
  C.MaxItemsPerRegion = 8;
  C.MaxOpsPerRun = 12;
  C.SyntheticFrac = 0.0;
  RNG R(Seed);
  ProgramSet S;
  for (unsigned I = 0; I < FuzzLargePrograms; ++I) {
    uint64_t ProgSeed = R.next();
    S.Names.push_back("gen-" + std::to_string(ProgSeed));
    S.Programs.push_back(generateProgram(ProgSeed, C));
  }
  return S;
}

/// The result of running every program once per pass.
struct Passes {
  std::vector<std::vector<SessionOutput>> Outs; ///< [pass][program]
  Repetitions Times; ///< a pass's times are sums over its sessions
};

/// Runs passes until they hold \p Seconds of session wall in all, at
/// least \p MinPasses passes and at least \p MinItems sessions; \p Count,
/// when nonzero, fixes the number of passes instead. Every pass runs every
/// program, so each program weighs the same in the metrics.
Passes runPasses(const ProgramSet &S, const std::vector<MachineDesc> &M,
                 const SetupStep &Setup, double Seconds, size_t MinItems,
                 size_t MinPasses, size_t Count, LayerTimes *Trace) {
  Passes P;
  auto More = [&] {
    if (Count)
      return P.Outs.size() < Count;
    return P.Times.WallS < Seconds || P.Outs.size() < MinPasses ||
           P.Times.items() < MinItems;
  };
  while (More()) {
    std::vector<SessionOutput> Pass;
    std::vector<double> Cpu, Wall;
    double CpuS = 0.0, WallS = 0.0;
    for (const KernelProgram &Prog : S.Programs) {
      Pass.push_back(runSession(Prog, M, Trace));
      Cpu.push_back(Pass.back().CpuMs);
      Wall.push_back(Pass.back().WallMs);
      CpuS += Pass.back().CpuMs / 1000.0;
      WallS += Pass.back().WallMs / 1000.0;
    }
    P.Outs.push_back(std::move(Pass));
    P.Times.add(std::move(Cpu), std::move(Wall), CpuS, WallS, Setup);
  }
  return P;
}

/// Counts failed sessions and signatures that differ from pass 0 of
/// \p Ref (repetitions, or the untraced run for the traced one).
void checkPasses(const ProgramSet &S, const Passes &P, const Passes &Ref,
                 const char *What, Report &R) {
  for (size_t Pass = 0; Pass < P.Outs.size(); ++Pass)
    for (size_t I = 0; I < S.Programs.size(); ++I) {
      const SessionOutput &O = P.Outs[Pass][I];
      ++R.Attempted;
      if (O.Failed) {
        ++R.Failed;
        R.problem(S.Names[I] + ": " + O.FailReason);
      } else if (O.signature() != Ref.Outs[0][I].signature()) {
        ++R.Failed;
        R.problem(S.Names[I] + ": " + What + " pass " +
                  std::to_string(Pass) + " differs from pass 0");
      }
    }
}

/// The paper's output over one pass: geomeans of per-program ratios.
void qualityMetrics(const std::vector<SessionOutput> &Outs, Report &R) {
  std::vector<double> Est, Sim, Growth;
  for (const SessionOutput &O : Outs) {
    if (O.Failed)
      continue;
    for (size_t M = 0; M < O.BaselineCycles.size(); ++M)
      Est.push_back(O.BaselineCycles[M] / O.TreatedCycles[M]);
    Sim.push_back(O.SimBaselineCycles / O.SimTreatedCycles);
    Growth.push_back(static_cast<double>(O.StaticOpsTreated) /
                     static_cast<double>(O.StaticOpsBaseline));
  }
  if (Growth.empty()) {
    R.problem("no session produced output");
    return;
  }
  R.metric("est_speedup_gmean", geomean(Est), "ratio");
  R.metric("sim_speedup_gmean", geomean(Sim), "ratio");
  R.metric("code_growth", geomean(Growth), "ratio");
}

/// The metrics every untraced run reports besides the paper's output; every
/// repetition of \p T processes \p RegionsPerRep regions. An item's
/// latency is its median CPU time over the repetitions, and the
/// percentiles are over the items; the rate divides by the median CPU time
/// of a repetition, and setup_s is the median set-up sample. Every time is
/// then scaled to the reference machine's speed by the run's calibration
/// samples. The unscaled CPU and the wall-clock figures go to the detail
/// document only.
void timedMetrics(const Repetitions &T, double RegionsPerRep, Report &R) {
  const size_t Items = T.items();
  if (Items < MinItemsForP90)
    R.problem("only " + std::to_string(Items) +
              " items; p90 needs at least 100");
  const double CalibrationMs = median(T.CalibrationMs);
  const double Scale = ReferenceCalibrationMs / CalibrationMs;
  const std::vector<double> ItemMs = itemMedians(T.CpuMs);
  const double SetupS = median(T.SetupCpuS);
  R.metric("setup_s", SetupS * Scale, "s");
  R.metric("latency_ms.p50", percentile(ItemMs, 50) * Scale, "ms");
  R.metric("latency_ms.p90", percentile(ItemMs, 90) * Scale, "ms");
  R.metric("regions_per_s", RegionsPerRep / (median(T.CpuS) * Scale), "1/s");
  R.metric("peak_rss_mb", T.PeakRSSMB, "MB");
  R.metric("ok_frac",
           1.0 - static_cast<double>(R.Failed) /
                     static_cast<double>(R.Attempted),
           "ratio");
  const std::vector<double> ItemWallMs = itemMedians(T.WallMs);
  for (const auto &[Key, Ms] : {std::pair{"cpu_latency_ms", &ItemMs},
                                {"wall_latency_ms", &ItemWallMs}}) {
    JSONValue Shape = JSONValue::object();
    for (int P : {10, 25, 50, 75, 90, 95, 99})
      Shape.set("p" + std::to_string(P),
                JSONValue::number(percentile(*Ms, P)));
    R.Detail.set(Key, std::move(Shape));
  }
  R.Detail.set("items", JSONValue::number(static_cast<double>(Items)));
  R.Detail.set("repetitions",
               JSONValue::number(static_cast<double>(T.CpuMs.size())));
  R.Detail.set("wall_s", JSONValue::number(T.WallS));
  R.Detail.set("calibration_ms", JSONValue::number(CalibrationMs));
  R.Detail.set("calibration_samples",
               JSONValue::number(static_cast<double>(T.CalibrationMs.size())));
  R.Detail.set("speed_scale", JSONValue::number(Scale));
  R.Detail.set("setup_cpu_s", JSONValue::number(SetupS));
}

/// Per-layer metrics of the traced sessions (times are means per session;
/// counts are totals over one pass of the program set).
void sessionLayerMetrics(const LayerTimes &T, size_t Sessions,
                         const std::vector<SessionOutput> &Pass,
                         size_t Machines, size_t TracedPasses, Report &R) {
  for (unsigned L = 0; L < NumLayers; ++L)
    R.metric(LayerMetricNames[L], T[L] / static_cast<double>(Sessions), "ms");
  double Regions = 0, Formed = 0, Transformed = 0, Moved = 0, Rollbacks = 0,
         Steps = 0, OpsB = 0, OpsT = 0, Branches = 0, Mispredicts = 0,
         SimOps = 0;
  for (const SessionOutput &O : Pass) {
    Regions += O.CPR.RegionsProcessed;
    Formed += O.CPR.CPRBlocksFormed;
    Transformed += O.CPR.CPRBlocksTransformed;
    Moved += O.CPR.OpsMovedOffTrace;
    Rollbacks += O.CPR.BlocksRolledBack;
    Steps += static_cast<double>(O.InterpSteps);
    OpsB += static_cast<double>(O.StaticOpsBaseline);
    OpsT += static_cast<double>(O.StaticOpsTreated);
    Branches += static_cast<double>(O.SimBranches);
    Mispredicts += static_cast<double>(O.SimMispredictsTreated);
    SimOps += static_cast<double>(O.SimOpsTreated);
  }
  const double Reps = static_cast<double>(TracedPasses);
  R.metric("cpr.regions", Regions, "count");
  R.metric("cpr.blocks_formed", Formed, "count");
  R.metric("cpr.blocks_transformed", Transformed, "count");
  R.metric("cpr.transform_ratio", Formed > 0 ? Transformed / Formed : 0.0,
           "ratio");
  R.metric("cpr.ops_moved_off_trace", Moved, "count");
  R.metric("cpr.rollbacks", Rollbacks, "count");
  R.metric("interp.steps", Steps, "count");
  R.metric("interp.steps_per_s",
           Steps * Reps * 1000.0 /
               (T[ProfileBaseline] + T[Equivalence] + T[ProfileTreated]),
           "1/s");
  double Scheduled = (OpsB + OpsT) * static_cast<double>(Machines);
  R.metric("sched.ops_scheduled", Scheduled, "count");
  R.metric("sched.ops_per_s", Scheduled * Reps * 1000.0 / T[Estimate],
           "1/s");
  R.metric("sim.branches_replayed", Branches, "count");
  R.metric("sim.branches_per_s", Branches * Reps * 1000.0 / T[Simulate],
           "1/s");
  R.metric("sim.mpki_treated", SimOps > 0 ? 1000.0 * Mispredicts / SimOps : 0,
           "mpki");
  R.metric("ir.static_ops_baseline", OpsB, "count");
  R.metric("ir.static_ops_treated", OpsT, "count");

  double Total = 0;
  for (unsigned L = Prepare; L <= Simulate; ++L)
    Total += T[L];
  JSONValue Shares = JSONValue::object();
  for (unsigned L = Prepare; L <= Simulate; ++L)
    Shares.set(LayerMetricNames[L], JSONValue::number(T[L] / Total));
  R.Detail.set("stage_shares", std::move(Shares));
}

void serveLayerMetrics(const ServeLayer &S, double Shed, Report &R) {
  auto Mean = [](double Ms, uint64_t N) {
    return N ? Ms / static_cast<double>(N) : 0.0;
  };
  R.metric("serve.decode_ms", Mean(S.DecodeMs, S.Requests), "ms");
  R.metric("serve.compile_ms", Mean(S.CompileMs, S.Requests), "ms");
  R.metric("serve.compile_hit_ms", Mean(S.HitMs, S.HitRequests), "ms");
  R.metric("serve.compile_miss_ms", Mean(S.MissMs, S.MissRequests), "ms");
  R.metric("serve.encode_ms", Mean(S.EncodeMs, S.Requests), "ms");
  R.metric("serve.cache.hits", static_cast<double>(S.Cache.Hits), "count");
  R.metric("serve.cache.misses", static_cast<double>(S.Cache.Misses),
           "count");
  uint64_t Lookups = S.Cache.Hits + S.Cache.Misses;
  R.metric("serve.cache.hit_ratio",
           Lookups ? static_cast<double>(S.Cache.Hits) /
                         static_cast<double>(Lookups)
                   : 0.0,
           "ratio");
  R.metric("serve.cache.evictions", static_cast<double>(S.Cache.Evictions),
           "count");
  R.metric("serve.shed", Shed, "count");
  if (S.Failures)
    R.problem(std::to_string(S.Failures) +
              " in-process serve requests failed");
}

void runSessionWorkload(const Options &O, bool Paper, Report &R) {
  ProgramSet S;
  auto Build = [&] { return Paper ? paperSuite(O.Seed) : fuzzLarge(O.Seed); };
  S = Build();
  ProgramSet Scratch;
  const SetupStep Setup{[&] { Scratch = Build(); },
                        [&] { Scratch = ProgramSet(); }};
  std::vector<std::string> Texts;
  for (const KernelProgram &P : S.Programs)
    Texts.push_back(serializeFuzzProgram(P));
  R.Fingerprint = fingerprint(Texts);
  const std::vector<MachineDesc> Machines =
      Paper ? MachineDesc::paperModels()
            : std::vector<MachineDesc>{MachineDesc::medium()};

  if (!O.Trace) {
    Passes P = runPasses(S, Machines, Setup, O.Seconds, MinItemsForP90, 2, 0,
                         nullptr);
    checkPasses(S, P, P, "repetition", R);
    double Regions = 0;
    for (const SessionOutput &Out : P.Outs[0])
      Regions += Out.CPR.RegionsProcessed;
    timedMetrics(P.Times, Regions, R);
    qualityMetrics(P.Outs[0], R);
    return;
  }

  // Untraced then traced over the same number of passes: the difference
  // of their walls is the tracing overhead.
  Clock::time_point T0 = Clock::now();
  Passes U = runPasses(S, Machines, Setup, O.Seconds / 2.0, 0, 1, 0, nullptr);
  double UntracedS = secondsSince(T0);
  LayerTimes T{};
  T0 = Clock::now();
  Passes Tr = runPasses(S, Machines, Setup, 0, 0, 0, U.Outs.size(), &T);
  // The serve layer on this workload's programs: each requested twice
  // (a cold compile, then a cache hit) through an in-process service.
  std::vector<ServeProgram> Set;
  for (size_t I = 0; I < Texts.size(); ++I)
    Set.push_back({S.Names[I], Texts[I]});
  ServeLayer Layer =
      traceServe(Set, 2, 1, serve::ServiceOptions().MaxInterpSteps);
  double TracedS = secondsSince(T0);

  checkPasses(S, U, U, "repetition", R);
  checkPasses(S, Tr, U, "traced", R);
  size_t Sessions = Tr.Times.items();
  sessionLayerMetrics(T, Sessions, Tr.Outs[0], Machines.size(),
                      Tr.Outs.size(), R);
  serveLayerMetrics(Layer, 0.0, R);
  R.metric("trace.overhead_ms",
           (TracedS - UntracedS) * 1000.0 / static_cast<double>(Sessions),
           "ms");
}

//===----------------------------------------------------------------------===//
// serve-repeat: a cprd daemon under a closed loop of clients.
//===----------------------------------------------------------------------===//

/// Audits every reply against the cold-compile reference frames.
void checkReplies(const std::vector<ServeProgram> &Set,
                  const std::vector<Reply> &Replies,
                  const std::vector<std::string> &Reference, Report &R) {
  for (const Reply &Rp : Replies) {
    ++R.Attempted;
    std::string Why;
    if (Rp.Status != "ok")
      Why = "status " + Rp.Status;
    else if (Rp.FellBack)
      Why = "fell back to the baseline";
    else if (Rp.Canonical != Reference[Rp.Program])
      Why = "response differs from a cold compile";
    if (!Why.empty()) {
      ++R.Failed;
      R.problem(Set[Rp.Program].Name + ": " + Why);
    }
  }
}

/// Cache hits and misses of a round, which must repeat exactly.
std::pair<uint64_t, uint64_t> cacheCounts(const std::vector<Reply> &Rs) {
  std::pair<uint64_t, uint64_t> C{0, 0};
  for (const Reply &Rp : Rs) {
    C.first += Rp.CacheHits;
    C.second += Rp.CacheMisses;
  }
  return C;
}

/// What the rounds of one run leave behind once each is audited.
struct Rounds {
  size_t Count = 0;
  Repetitions Times;
  double Regions = 0.0; ///< regions of one round
  double Shed = 0.0;
  std::pair<uint64_t, uint64_t> Cache; ///< round 0's hits and misses
};

/// Serves rounds on fresh daemons (a fresh region cache each) until
/// \p Seconds of round wall have elapsed and at least \p MinItems requests
/// were answered, auditing each round against \p Reference and timing
/// \p Setup after it. \p First, when given, serves the first round.
Rounds runRounds(const Options &O, const std::vector<ServeProgram> &Set,
                 const std::vector<std::string> &Reference,
                 const SetupStep &Setup, std::unique_ptr<Daemon> First,
                 double Seconds, size_t MinItems, Report &R) {
  Rounds Out;
  while (Out.Times.WallS < Seconds || Out.Times.items() < MinItems) {
    std::unique_ptr<Daemon> D = First ? std::move(First)
                                      : std::make_unique<Daemon>(
                                            O.Socket, ServeWorkers,
                                            ServeClients);
    if (!D->error().empty()) {
      R.problem("daemon: " + D->error());
      break;
    }
    double WallMs = 0, CpuMs = 0;
    std::vector<Reply> Replies =
        runRound(*D, Set, ServeRepeats, WallMs, CpuMs);
    Out.Shed += static_cast<double>(D->stats().Shed);
    D.reset();
    checkReplies(Set, Replies, Reference, R);
    if (Out.Count++ == 0) {
      Out.Cache = cacheCounts(Replies);
      for (const Reply &Rp : Replies)
        Out.Regions += Rp.Regions;
    } else if (cacheCounts(Replies) != Out.Cache) {
      R.problem("round cache hits/misses differ from round 0");
    }
    std::vector<double> Cpu, Wall;
    for (const Reply &Rp : Replies) {
      Cpu.push_back(Rp.CpuMs);
      Wall.push_back(Rp.LatencyMs);
    }
    Out.Times.add(std::move(Cpu), std::move(Wall), CpuMs / 1000.0,
                  WallMs / 1000.0, Setup);
  }
  return Out;
}

void runServeWorkload(const Options &O, Report &R) {
  // The set-up builds the request set and starts the daemon. Between
  // rounds no daemon runs, so a timed set-up can take the socket.
  std::vector<ServeProgram> Set, ScratchSet;
  std::unique_ptr<Daemon> D, ScratchD;
  auto Start = [&](std::vector<ServeProgram> &S, std::unique_ptr<Daemon> &Dm) {
    S = serveRequestSet(O.Seed, ServeGeneratorPrograms, CorpusDir);
    Dm = std::make_unique<Daemon>(O.Socket, ServeWorkers, ServeClients);
  };
  Start(Set, D);
  const SetupStep Setup{[&] { Start(ScratchSet, ScratchD); },
                        [&] {
                          ScratchD.reset();
                          ScratchSet.clear();
                        }};
  if (Set.empty()) {
    R.problem(std::string("no fuzz regression corpus at ") + CorpusDir);
    return;
  }
  std::vector<std::string> Texts;
  for (const ServeProgram &P : Set)
    Texts.push_back(P.Text);
  R.Fingerprint = fingerprint(Texts);
  const std::vector<std::string> Reference = coldReference(Set, 0);

  Clock::time_point T0 = Clock::now();
  Rounds U = runRounds(O, Set, Reference, Setup, std::move(D),
                       O.Trace ? O.Seconds / 2.0 : O.Seconds,
                       O.Trace ? 0 : MinItemsForP90, R);
  double UntracedS = secondsSince(T0);
  if (U.Count == 0)
    return;

  if (!O.Trace) {
    timedMetrics(U.Times, U.Regions, R);
  }

  // The paper's output for what the daemon returned: one check session
  // per program with the response as the treated function (equivalence
  // oracle, medium estimate, medium x tage-sc-l simulation).
  std::vector<SessionOutput> Quality;
  for (size_t I = 0; I < Set.size(); ++I) {
    Expected<serve::CompileResponse> Res =
        serve::decodeResponse(Reference[I]);
    FuzzParseResult Base = parseFuzzProgram(Set[I].Text);
    FuzzParseResult Treated =
        Res ? parseFuzzProgram(Res->IR) : FuzzParseResult();
    if (!Res || !Base || !Treated) {
      R.problem(Set[I].Name + ": cannot read the program or the response");
      return;
    }
    Quality.push_back(runSession(Base.Program, {MachineDesc::medium()},
                                 nullptr, std::move(Treated.Program.Func)));
    if (Quality.back().Failed)
      R.problem(Set[I].Name + ": response check: " +
                Quality.back().FailReason);
  }
  if (!O.Trace) {
    qualityMetrics(Quality, R);
    R.Detail.set("rounds", JSONValue::number(U.Count));
    return;
  }

  // Traced: as many rounds of requests through an in-process service with
  // timers, then one traced session per program for the layers beneath a
  // cache miss.
  LayerTimes T{};
  ServeLayer Layer;
  T0 = Clock::now();
  for (size_t Round = 0; Round < U.Count; ++Round) {
    Layer = traceServe(Set, ServeRepeats, ServeClients, 0);
    if (std::make_pair(Layer.Cache.Hits, Layer.Cache.Misses) != U.Cache)
      R.problem("traced cache hits/misses differ from the daemon's");
  }
  std::vector<SessionOutput> Probe;
  for (const ServeProgram &P : Set) {
    FuzzParseResult Prog = parseFuzzProgram(P.Text);
    Probe.push_back(runSession(Prog.Program, {MachineDesc::medium()}, &T));
    if (Probe.back().Failed)
      R.problem(P.Name + ": " + Probe.back().FailReason);
  }
  double TracedS = secondsSince(T0);
  for (size_t I = 0; I < Probe.size(); ++I)
    if (Probe[I].TreatedIRHash != Quality[I].TreatedIRHash)
      R.problem(Set[I].Name + ": traced session's IR differs from the "
                              "response's");
  sessionLayerMetrics(T, Probe.size(), Probe, 1, 1, R);
  serveLayerMetrics(Layer, U.Shed, R);
  R.metric("trace.overhead_ms",
           (TracedS - UntracedS) * 1000.0 /
               static_cast<double>(U.Times.items()),
           "ms");
}

JSONValue provenance(const Options &O, const Report &R) {
  JSONValue P = JSONValue::object();
  P.set("build_type", JSONValue::str(PERFBENCH_BUILD_TYPE));
  P.set("cxx_flags", JSONValue::str(PERFBENCH_CXX_FLAGS));
  P.set("compiler", JSONValue::str(PERFBENCH_COMPILER));
  P.set("compiler_version", JSONValue::str(__VERSION__));
  P.set("nproc", JSONValue::number(
                     static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
  P.set("git_commit", JSONValue::str(O.Commit));
  P.set("workload", JSONValue::str(O.Workload));
  P.set("seed", JSONValue::number(O.Seed));
  P.set("seconds", JSONValue::number(O.Seconds));
  P.set("trace", JSONValue::boolean(O.Trace != 0));
  P.set("corpus_fingerprint", JSONValue::str(R.Fingerprint));
  return P;
}

} // namespace

int main(int argc, char **argv) {
  // Options come as "--name value" pairs, the form the benchmark
  // contract uses.
  Options O;
  std::string Error;
  for (int I = 1; I < argc && Error.empty(); I += 2) {
    std::string Name = argv[I];
    if (I + 1 >= argc) {
      Error = "option '" + Name + "' needs a value";
      break;
    }
    std::string Value = argv[I + 1];
    auto Unsigned = [&](unsigned &Target) {
      char *End = nullptr;
      unsigned long V = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || *End || V > UINT32_MAX)
        Error = "option '" + Name + "' needs a number";
      Target = static_cast<unsigned>(V);
    };
    if (Name == "--workload")
      O.Workload = Value;
    else if (Name == "--seed")
      Unsigned(O.Seed);
    else if (Name == "--seconds")
      Unsigned(O.Seconds);
    else if (Name == "--trace")
      Unsigned(O.Trace);
    else if (Name == "--commit")
      O.Commit = Value;
    else if (Name == "--socket")
      O.Socket = Value;
    else
      Error = "unknown option '" + Name + "'";
  }
  if (Error.empty() && (O.Trace > 1 || O.Seconds == 0))
    Error = "--trace takes 0 or 1 and --seconds a positive number";
  if (!Error.empty()) {
    std::fprintf(stderr,
                 "cpr-perfbench: %s\nusage: cpr-perfbench --workload "
                 "paper-suite|fuzz-large|serve-repeat --seed <n> "
                 "--seconds <n> --trace 0|1 [--commit <sha>] "
                 "[--socket <path>]\n",
                 Error.c_str());
    return 2;
  }

  Report R;
  if (O.Workload == "paper-suite" || O.Workload == "fuzz-large")
    runSessionWorkload(O, O.Workload == "paper-suite", R);
  else if (O.Workload == "serve-repeat")
    runServeWorkload(O, R);
  else {
    std::fprintf(stderr, "cpr-perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  if (R.Attempted == 0)
    R.problem("no item was attempted");

  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "cpr-perfbench: check failed: %s\n", P.c_str());

  JSONValue Metrics = JSONValue::object();
  for (const auto &[Name, VU] : R.Metrics) {
    JSONValue M = JSONValue::object();
    M.set("value", JSONValue::number(VU.first));
    M.set("unit", JSONValue::str(VU.second));
    Metrics.set(Name, std::move(M));
  }
  JSONValue Doc = JSONValue::object();
  Doc.set("schema", JSONValue::str("cpr-perfbench-v1"));
  Doc.set("provenance", provenance(O, R));
  Doc.set("metrics", Metrics);
  Doc.set("detail", R.Detail);
  JSONValue Problems = JSONValue::array();
  for (const std::string &P : R.Problems)
    Problems.append(JSONValue::str(P));
  Doc.set("failed_checks", std::move(Problems));
  std::printf("%s\n", writeJSON(Doc, false).c_str());

  JSONValue Result = JSONValue::object();
  Result.set("correct", JSONValue::boolean(R.correct()));
  Result.set("attempted", JSONValue::number(static_cast<double>(R.Attempted)));
  Result.set("failed", JSONValue::number(static_cast<double>(R.Failed)));
  Result.set("metrics", std::move(Metrics));
  std::printf("%s\n", writeJSON(Result, false).c_str());
  return R.correct() ? 0 : 1;
}
