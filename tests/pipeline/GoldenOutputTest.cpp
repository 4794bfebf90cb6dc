//===- tests/pipeline/GoldenOutputTest.cpp - Byte-identity guard ----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Pins an FNV-1a digest of the pipeline's output for every Table 2/3 row
// and for generator seeds 1-20: the printed treated IR, every CPRResult
// counter and the medium machine's estimated cycles. Analysis speed-ups
// must not change what the compiler emits; this test fails when one
// does, without waiting for a benchmark run to notice.
//
// To re-record after an intended output change, run the test and copy
// the "actual" table it prints on failure.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Generator.h"
#include "ir/IRPrinter.h"
#include "pipeline/CompilerPipeline.h"
#include "support/Hash.h"
#include "workloads/BenchmarkSuite.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace cpr;

namespace {

/// Expected digests, recorded before any analysis speed-up landed.
const std::map<std::string, std::string> &expectedDigests() {
  static const std::map<std::string, std::string> Expected = {
      {"008.espresso", "24605c11aefb7421"},
      {"022.li", "1ee600ffe5fe8203"},
      {"023.eqntott", "18f589a52a67640e"},
      {"026.compress", "1e374bcb25da649e"},
      {"056.ear", "5714717177ec81d3"},
      {"072.sc", "2e98ed83405fb09c"},
      {"085.cc1", "b619c03e3b1232eb"},
      {"099.go", "a21417ed570705a2"},
      {"124.m88ksim", "b790b068cf03aab4"},
      {"126.gcc", "a8ec890499a07c42"},
      {"129.compress", "07016e2f25c5b17e"},
      {"130.li", "b2bb44f1b4f71db0"},
      {"132.ijpeg", "030654c3af9252d8"},
      {"134.perl", "f7a9261950cb8ede"},
      {"147.vortex", "1ac52a05df8ecef6"},
      {"cccp", "ecef363ca2c94774"},
      {"cmp", "6ae7e660555b0083"},
      {"eqn", "58392369f53f0012"},
      {"grep", "24c9772c737cd832"},
      {"lex", "ebe0a45f3190c59c"},
      {"strcpy", "dde79b544edc4b1a"},
      {"tbl", "bb31409d73c9c41b"},
      {"wc", "17b0ae4a38ca7b7d"},
      {"yacc", "f10b9212734c194f"},
      {"gen-1", "8e444f13dad716f5"},
      {"gen-2", "0f59e10f16c80185"},
      {"gen-3", "e34b09c6c4a85c16"},
      {"gen-4", "283e5d7549acb929"},
      {"gen-5", "7fcb0345f11d2ea6"},
      {"gen-6", "82a342277160f94a"},
      {"gen-7", "043a9c9235ecda11"},
      {"gen-8", "813b0f7fc3673983"},
      {"gen-9", "61c5464706459064"},
      {"gen-10", "9ccfe5fa3e0647d4"},
      {"gen-11", "9c70e76bbeddad5f"},
      {"gen-12", "dbbb466a6a77278c"},
      {"gen-13", "6c7bad986bac7e35"},
      {"gen-14", "1e3d32ef4c9dbcd5"},
      {"gen-15", "8d3a97b57f02091e"},
      {"gen-16", "81a0a5bae8c9dba8"},
      {"gen-17", "5be918398ec6fc0f"},
      {"gen-18", "71945e1bcb2f6b15"},
      {"gen-19", "d7c5b8edbb7933ca"},
      {"gen-20", "cd88186e06a2a817"},
  };
  return Expected;
}

std::string outputDigest(const KernelProgram &P) {
  PipelineOptions Opts;
  Opts.Machines = {MachineDesc::medium()};
  PipelineResult R = runPipeline(P, Opts);

  Hasher H;
  H.str(printFunction(*R.Treated));
  const CPRResult &C = R.CPR;
  for (unsigned V :
       {C.RegionsProcessed, C.CPRBlocksFormed, C.CPRBlocksTransformed,
        C.TakenVariants, C.BranchesCovered, C.Promoted, C.Demoted,
        C.LookaheadsInserted, C.OpsMovedOffTrace, C.OpsSplit,
        C.DCE.OpsRemoved, C.DCE.DestsRemoved, C.BlocksRolledBack,
        C.RegionsRolledBack, C.RegionsSkippedBudget})
    H.u64(V);
  for (unsigned V : C.StopReasons)
    H.u64(V);
  H.u64(C.BudgetExhausted);
  for (const MachineComparison &M : R.Machines)
    H.str(M.MachineName).f64(M.BaselineCycles).f64(M.TreatedCycles);
  return H.hex();
}

TEST(GoldenOutputTest, SuiteAndGeneratorOutputsAreUnchanged) {
  std::vector<std::pair<std::string, std::string>> Actual;
  for (const BenchmarkSpec &Spec : paperBenchmarkSuite())
    Actual.emplace_back(Spec.Name, outputDigest(Spec.Build()));
  GeneratorConfig Cfg;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed)
    Actual.emplace_back("gen-" + std::to_string(Seed),
                        outputDigest(generateProgram(Seed, Cfg)));

  const auto &Expected = expectedDigests();
  EXPECT_EQ(Actual.size(), Expected.size());
  bool AllMatch = true;
  for (const auto &[Name, Digest] : Actual) {
    auto It = Expected.find(Name);
    bool Match = It != Expected.end() && It->second == Digest;
    EXPECT_TRUE(Match) << Name << ": expected "
                       << (It == Expected.end() ? "<none>" : It->second)
                       << ", got " << Digest;
    AllMatch &= Match;
  }
  if (!AllMatch) {
    std::ostringstream OS;
    for (const auto &[Name, Digest] : Actual)
      OS << "      {\"" << Name << "\", \"" << Digest << "\"},\n";
    ADD_FAILURE() << "actual digests:\n" << OS.str();
  }
}

} // namespace
