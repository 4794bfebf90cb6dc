//===- perfbench/Calibration.h - Host speed calibration ---------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed job that measures how fast the host runs at the moment. On a
/// shared machine the speed of a vCPU changes with what other guests do
/// to the caches, the memory bus and the clock frequency: a `paper-suite`
/// pass took between 0.93 s and 1.36 s of CPU time within three minutes.
/// The job is interleaved with a run's repetitions, and every gated time
/// is scaled by ReferenceCalibrationMs over the run's median job time, so
/// it reads in milliseconds of the reference machine (see README.md).
///
/// The job mixes what the program under test spends its time on: updates
/// of a 4 MiB table at random indices (predictor tables, scheduler
/// state), inserts and ordered lookups in a node-based map (IR and
/// analysis containers), and a branchy byte-code loop (the interpreter).
/// It shares no code with the program, so no change to the program moves
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATION_H
#define PERFBENCH_CALIBRATION_H

namespace perfbench {

/// The job's median process CPU time on the machine the benchmark was
/// written on (4 vCPUs of a shared host at 2.0 GHz), in ms.
constexpr double ReferenceCalibrationMs = 40.0;

/// Runs the job once and returns its process CPU time in ms.
double calibrationMs();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_H
