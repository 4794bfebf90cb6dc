//===- perfbench/Calibration.cpp - Host speed calibration -----------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "Calibration.h"
#include "CpuClock.h"

#include <cstdint>
#include <map>
#include <vector>

using namespace perfbench;

namespace {

uint64_t xorshift(uint64_t &X) {
  X ^= X << 13;
  X ^= X >> 7;
  X ^= X << 17;
  return X;
}

/// Sizes of the three parts: about 6, 18 and 10 ms on the reference
/// machine.
constexpr unsigned TableUpdates = 600000, MapInserts = 24000,
                   MapLookups = 48000, CodeRounds = 240;

} // namespace

double perfbench::calibrationMs() {
  // Allocated and touched once, so no call pays for page faults.
  static std::vector<uint32_t> Table(1u << 20, 1);
  const double T0 = processCpuMs();
  uint64_t X = 88172645463325252ull, Sink = 0;

  for (unsigned I = 0; I < TableUpdates; ++I) {
    uint32_t &E = Table[xorshift(X) & (Table.size() - 1)];
    E = E * 3 + (E >> 5) + 1;
    Sink += E & 1 ? E : 0;
  }

  std::map<uint64_t, uint64_t> M;
  for (unsigned I = 0; I < MapInserts; ++I)
    M[xorshift(X) % 200000] += I;
  for (unsigned I = 0; I < MapLookups; ++I) {
    auto It = M.lower_bound(xorshift(X) % 200000);
    if (It != M.end())
      Sink += It->second;
  }

  std::vector<uint8_t> Code(4096);
  for (uint8_t &C : Code)
    C = static_cast<uint8_t>(xorshift(X) & 7);
  int64_t Acc = 0;
  for (unsigned R = 0; R < CodeRounds; ++R)
    for (uint8_t C : Code)
      switch (C) {
      case 0: Acc += 3; break;
      case 1: Acc ^= Acc << 1; break;
      case 2: Acc -= R; break;
      case 3: Acc = Acc * 5 + 1; break;
      case 4: Acc >>= 1; break;
      case 5: Acc += C; break;
      case 6: Acc ^= 0x55; break;
      default: Acc |= 1; break;
      }

  // Keeps the work observable so the compiler cannot drop it.
  volatile uint64_t Keep = Sink + static_cast<uint64_t>(Acc);
  (void)Keep;
  return processCpuMs() - T0;
}
