//===- perfbench/Serve.h - cprd load and serve-layer timing -----*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve-repeat workload's moving parts: its request set, an
/// in-process cprd daemon on a Unix socket with client connections, a
/// closed-loop round over those clients, the cold-compile reference the
/// responses are audited against, and the traced in-process timing of
/// decodeRequest / CompileService::compile / encodeResponse.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "serve/Client.h"
#include "serve/Server.h"

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// One unique program of a request set, in the corpus text format.
struct ServeProgram {
  std::string Name;
  std::string Text;
};

/// serve-repeat's unique programs in a seeded order: the Unix-utility
/// kernels at small sizes, \p NumGenerated generator programs (generator
/// seeds 1, 2, ...), and every program of the fuzz regression corpus in
/// \p CorpusDir. Empty on a missing or unreadable corpus.
std::vector<ServeProgram> serveRequestSet(uint64_t Seed,
                                          unsigned NumGenerated,
                                          const std::string &CorpusDir);

/// A cprd daemon serving \p SocketPath with \p Workers compile threads,
/// and \p NumClients connected clients. Stops and joins on destruction.
class Daemon {
public:
  Daemon(const std::string &SocketPath, unsigned Workers,
         unsigned NumClients);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Empty when the daemon is up and every client connected.
  const std::string &error() const { return Error; }
  std::vector<cpr::serve::Client> &clients() { return Clients; }
  cpr::serve::ServerStats stats() const { return Srv.stats(); }

private:
  cpr::serve::Server Srv;
  std::thread Runner;
  std::vector<cpr::serve::Client> Clients;
  std::string Error;
};

/// One answered request of a round.
struct Reply {
  size_t Program = 0;
  /// Wall time from send to response, and the process CPU time over it.
  double LatencyMs = 0.0, CpuMs = 0.0;
  std::string Status;
  bool FellBack = false;
  unsigned Regions = 0;
  uint64_t CacheHits = 0, CacheMisses = 0;
  std::string Canonical; ///< response frame with id and cache counts blanked
};

/// Requests every program of \p Set \p Repeats times, round-robin, as a
/// closed loop over the daemon's clients (each client sends its next
/// request when the previous one is answered). \p WallMs and \p CpuMs
/// receive the round's wall and process CPU time. A reply's CpuMs is the
/// request's own cost only when the daemon has a single client.
std::vector<Reply> runRound(Daemon &D, const std::vector<ServeProgram> &Set,
                            unsigned Repeats, double &WallMs, double &CpuMs);

/// Canonical frames of a cold compile of each program, each by a fresh
/// CompileService whose cache starts empty.
std::vector<std::string> coldReference(const std::vector<ServeProgram> &Set,
                                       uint64_t InterpMaxSteps);

/// Serve-layer times (ms, summed) and counters of one in-process pass.
struct ServeLayer {
  double DecodeMs = 0, CompileMs = 0, HitMs = 0, MissMs = 0, EncodeMs = 0;
  uint64_t Requests = 0, HitRequests = 0, MissRequests = 0;
  cpr::serve::RegionCacheStats Cache;
  uint64_t Failures = 0; ///< non-ok responses or undecodable frames
};

/// Sends the round-robin schedule straight into a fresh CompileService on
/// \p Threads threads, timing decodeRequest, compile and encodeResponse.
/// A request whose compile added region-cache misses counts as a miss.
ServeLayer traceServe(const std::vector<ServeProgram> &Set, unsigned Repeats,
                      unsigned Threads, uint64_t InterpMaxSteps);

} // namespace perfbench

#endif // PERFBENCH_SERVE_H
