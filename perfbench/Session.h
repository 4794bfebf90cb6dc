//===- perfbench/Session.h - One staged pipeline session --------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of work of the paper-suite and fuzz-large workloads: one
/// PipelineRun session driven stage by stage through its public accessors
/// (prepare, baseline profile, transform, equivalence, treated profile,
/// analyses, per-machine estimates, one medium x tage-sc-l simulation).
///
/// The untraced and traced runs make the same accessor calls in the same
/// order. The traced run only reads the clock between them, and afterwards
/// measures the layers beneath the transform from outside the program:
/// it replays the ICBM region loop from the public phase functions (and
/// fails unless the replay prints the same IR as the session), builds one
/// RegionPQS and one medium DepGraph per baseline region, and round-trips
/// the treated program through the corpus printer and parser.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SESSION_H
#define PERFBENCH_SESSION_H

#include "cpr/ControlCPR.h"
#include "machine/MachineDesc.h"
#include "workloads/Kernels.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// The deterministic outputs of one session. Every field must repeat
/// exactly across repetitions and between the untraced and traced runs.
struct SessionOutput {
  bool Failed = false;
  std::string FailReason;
  /// Per estimated machine: baseline and treated cycles.
  std::vector<double> BaselineCycles, TreatedCycles;
  /// medium x tage-sc-l trace simulation.
  double SimBaselineCycles = 0.0, SimTreatedCycles = 0.0;
  uint64_t SimBranches = 0;       ///< branches replayed, both versions
  uint64_t SimMispredictsTreated = 0;
  uint64_t SimOpsTreated = 0;     ///< ops dispatched, treated version
  uint64_t StaticOpsBaseline = 0, StaticOpsTreated = 0;
  /// Ops the interpreter dispatched: two profiling runs plus the two runs
  /// of the equivalence oracle.
  uint64_t InterpSteps = 0;
  cpr::CPRResult CPR;
  uint64_t TreatedIRHash = 0; ///< FNV-1a of the printed treated function
  /// Wall and process CPU time from session construction to the last
  /// stage (not part of the signature).
  double WallMs = 0.0, CpuMs = 0.0;

  /// Canonical text of every deterministic field, for equality checks.
  std::string signature() const;
};

/// The stages and layers a traced session times, in ms. Index into
/// LayerTimes; LayerMetricNames gives each its metric name.
enum Layer : unsigned {
  // pipeline stages, in call order
  Prepare, ProfileBaseline, Transform, Equivalence, ProfileTreated,
  Analyses, Estimate, Simulate,
  // ICBM phases of the replay
  FRP, Speculate, Match, Restructure, OffTrace, TxnVerify, DCE,
  // standalone analysis constructions on the baseline
  PQSBuild, DepGraphBuild,
  // corpus printer / parser round trip of the treated program
  Print, Parse,
  NumLayers
};
using LayerTimes = std::array<double, NumLayers>;
extern const char *const LayerMetricNames[NumLayers];

/// Runs one session over a copy of \p P, estimating on \p Machines and
/// simulating medium x tage-sc-l. \p Treated, when given, replaces the
/// transform (its output is checked, not produced). With \p Trace
/// non-null the stage and layer times are added to it, and a replay whose
/// IR or counters differ from the session's marks the output failed.
SessionOutput runSession(const cpr::KernelProgram &P,
                         const std::vector<cpr::MachineDesc> &Machines,
                         LayerTimes *Trace,
                         std::unique_ptr<cpr::Function> Treated = nullptr);

} // namespace perfbench

#endif // PERFBENCH_SESSION_H
