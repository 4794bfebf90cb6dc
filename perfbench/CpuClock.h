//===- perfbench/CpuClock.h - The clock of the gated times ------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CPU time of the whole benchmark process, which times every metric
/// the benchmark gates on (see README.md). Each such timing spans one flow
/// of work: one single-threaded session, one set-up, or one request with a
/// single client in the loop, so the process's CPU time over it is that
/// work's own cost. Unlike the wall clock it leaves out the time a shared
/// host's hypervisor runs other guests on the vCPU (steal time), which
/// raised wall-clock latencies by up to 60% between otherwise identical
/// runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CPUCLOCK_H
#define PERFBENCH_CPUCLOCK_H

#include <ctime>

namespace perfbench {

/// CPU time consumed by all threads of the process so far, in ms.
inline double processCpuMs() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}

} // namespace perfbench

#endif // PERFBENCH_CPUCLOCK_H
