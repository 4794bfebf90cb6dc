//===- perfbench/Serve.cpp - cprd load and serve-layer timing -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "Serve.h"
#include "CpuClock.h"

#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "serve/CompileService.h"
#include "support/RNG.h"
#include "workloads/Kernels.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <unistd.h>

using namespace cpr;
using namespace cpr::serve;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// The round-robin schedule: program indices u0 u1 ... u0 u1 ..., so
/// repeats of a program arrive interleaved with other work.
std::vector<size_t> schedule(size_t NumPrograms, unsigned Repeats) {
  std::vector<size_t> S;
  for (unsigned R = 0; R < Repeats; ++R)
    for (size_t U = 0; U < NumPrograms; ++U)
      S.push_back(U);
  return S;
}

/// A compile request for program \p Index of \p Set; \p InterpMaxSteps 0
/// takes the service default.
CompileRequest makeRequest(const std::vector<ServeProgram> &Set, size_t Index,
                           uint64_t InterpMaxSteps) {
  CompileRequest Req;
  Req.Id = "u" + std::to_string(Index);
  Req.IR = Set[Index].Text;
  Req.InterpMaxSteps = InterpMaxSteps;
  return Req;
}

/// The response frame as a cold compile of program \p Program encodes it:
/// the id and the per-request cache counts, which legitimately differ, are
/// normalized.
std::string canonicalFrame(CompileResponse Res, size_t Program) {
  Res.Id = "u" + std::to_string(Program);
  Res.CacheHits = Res.CacheMisses = 0;
  return encodeResponse(Res);
}

} // namespace

std::vector<ServeProgram>
perfbench::serveRequestSet(uint64_t Seed, unsigned NumGenerated,
                           const std::string &CorpusDir) {
  std::vector<ServeProgram> Set;
  auto Add = [&](std::string Name, const KernelProgram &P) {
    Set.push_back({std::move(Name), serializeFuzzProgram(P)});
  };
  const size_t Len = 1024;
  Add("strcpy", buildStrcpyKernel(4, Len, 1));
  Add("cmp", buildCmpKernel(4, Len, Len - 8, 2));
  Add("grep", buildGrepKernel(4, Len, 0.02, 3));
  Add("wc", buildWcKernel(4, Len, 4));
  Add("lex", buildLexKernel(4, Len, 5));
  Add("cccp", buildCccpKernel(4, Len, 6));
  for (unsigned I = 0; I < NumGenerated; ++I)
    Add("gen-" + std::to_string(1 + I),
        generateProgram(1 + I, GeneratorConfig()));
  std::vector<std::string> Files = listCorpusFiles(CorpusDir);
  if (Files.empty())
    return {};
  for (const std::string &Path : Files) {
    FuzzParseResult FP = loadFuzzProgramFile(Path);
    if (!FP)
      return {};
    Add(Path.substr(Path.find_last_of('/') + 1), FP.Program);
  }
  RNG R(Seed);
  for (size_t I = Set.size(); I > 1; --I)
    std::swap(Set[I - 1], Set[R.nextBelow(I)]);
  return Set;
}

Daemon::Daemon(const std::string &SocketPath, unsigned Workers,
               unsigned NumClients)
    : Srv([&] {
        ServerOptions SO;
        SO.SocketPath = SocketPath;
        SO.Threads = Workers;
        return SO;
      }()) {
  Runner = std::thread([this] { Srv.runSocket(); });
  // The socket file appears at bind(), just before listen(): retry
  // refused connects for up to two seconds.
  for (unsigned C = 0; C < NumClients && Error.empty(); ++C) {
    for (int Attempt = 0;; ++Attempt) {
      Expected<Client> Cl = Client::connect(SocketPath);
      if (Cl) {
        Clients.push_back(Cl.takeValue());
        break;
      }
      if (Attempt == 200) {
        Error = Cl.takeDiagnostic().Message;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

Daemon::~Daemon() {
  Clients.clear();
  Srv.requestStop();
  Runner.join();
}

std::vector<Reply> perfbench::runRound(Daemon &D,
                                       const std::vector<ServeProgram> &Set,
                                       unsigned Repeats, double &WallMs,
                                       double &CpuMs) {
  const std::vector<size_t> Order = schedule(Set.size(), Repeats);
  std::vector<Reply> Replies(Order.size());
  std::atomic<size_t> Next{0};
  Clock::time_point T0 = Clock::now();
  const double Cpu0 = processCpuMs();
  std::vector<std::thread> Loops;
  for (Client &Cl : D.clients())
    Loops.emplace_back([&, ClPtr = &Cl] {
      for (size_t I; (I = Next.fetch_add(1)) < Order.size();) {
        Reply &Rp = Replies[I];
        Rp.Program = Order[I];
        CompileRequest Req = makeRequest(Set, Order[I], 0);
        Clock::time_point Sent = Clock::now();
        const double SentCpu = processCpuMs();
        Expected<CompileResponse> Res = ClPtr->roundTrip(Req);
        Rp.CpuMs = processCpuMs() - SentCpu;
        Rp.LatencyMs = msSince(Sent);
        if (!Res) {
          Rp.Status = "io-error: " + Res.takeDiagnostic().Message;
          continue;
        }
        Rp.Status = Res->Status;
        Rp.FellBack = Res->FellBack;
        Rp.Regions = Res->CPR.RegionsProcessed;
        Rp.CacheHits = Res->CacheHits;
        Rp.CacheMisses = Res->CacheMisses;
        Rp.Canonical = canonicalFrame(Res.takeValue(), Order[I]);
      }
    });
  for (std::thread &T : Loops)
    T.join();
  CpuMs = processCpuMs() - Cpu0;
  WallMs = msSince(T0);
  return Replies;
}

std::vector<std::string>
perfbench::coldReference(const std::vector<ServeProgram> &Set,
                         uint64_t InterpMaxSteps) {
  std::vector<std::string> Frames;
  for (size_t U = 0; U < Set.size(); ++U) {
    CompileService Fresh;
    Frames.push_back(
        canonicalFrame(Fresh.compile(makeRequest(Set, U, InterpMaxSteps)), U));
  }
  return Frames;
}

ServeLayer perfbench::traceServe(const std::vector<ServeProgram> &Set,
                                 unsigned Repeats, unsigned Threads,
                                 uint64_t InterpMaxSteps) {
  const std::vector<size_t> Order = schedule(Set.size(), Repeats);
  std::vector<std::string> Frames;
  for (size_t U : Order)
    Frames.push_back(encodeRequest(makeRequest(Set, U, InterpMaxSteps)));

  CompileService Service;
  ServeLayer Total;
  std::mutex Mu;
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&] {
      ServeLayer Mine;
      for (size_t I; (I = Next.fetch_add(1)) < Order.size();) {
        Clock::time_point T0 = Clock::now();
        Expected<CompileRequest> Req = decodeRequest(Frames[I]);
        Mine.DecodeMs += msSince(T0);
        if (!Req) {
          Req.takeDiagnostic();
          ++Mine.Failures;
          continue;
        }
        Clock::time_point T1 = Clock::now();
        CompileResponse Res = Service.compile(*Req);
        double CompileMs = msSince(T1);
        Clock::time_point T2 = Clock::now();
        std::string Frame = encodeResponse(Res);
        Mine.EncodeMs += msSince(T2);
        Mine.CompileMs += CompileMs;
        ++Mine.Requests;
        if (Res.CacheMisses > 0) {
          Mine.MissMs += CompileMs;
          ++Mine.MissRequests;
        } else {
          Mine.HitMs += CompileMs;
          ++Mine.HitRequests;
        }
        if (!Res.ok() || Res.FellBack || Frame.empty())
          ++Mine.Failures;
      }
      std::lock_guard<std::mutex> Lock(Mu);
      Total.DecodeMs += Mine.DecodeMs;
      Total.CompileMs += Mine.CompileMs;
      Total.HitMs += Mine.HitMs;
      Total.MissMs += Mine.MissMs;
      Total.EncodeMs += Mine.EncodeMs;
      Total.Requests += Mine.Requests;
      Total.HitRequests += Mine.HitRequests;
      Total.MissRequests += Mine.MissRequests;
      Total.Failures += Mine.Failures;
    });
  for (std::thread &T : Workers)
    T.join();
  Total.Cache = Service.cacheStats();
  return Total;
}
