//===- analysis/DepGraph.cpp - Region dependence graph --------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/DepGraph.h"

#include "support/Error.h"

#include <algorithm>

using namespace cpr;

const char *cpr::depKindName(DepKind K) {
  switch (K) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  case DepKind::Mem:
    return "mem";
  case DepKind::Control:
    return "control";
  }
  CPR_UNREACHABLE("bad dep kind");
}

void DepGraph::addEdge(uint32_t From, uint32_t To, DepKind Kind,
                       int Latency) {
  assert(From < To && "dependence edges follow program order");
  // Deduplicate: keep only the strongest (max latency) edge per (From,To)
  // pair per kind class. A simple linear scan over the destination's preds
  // suffices at region sizes.
  for (uint32_t EI : PredIdx[To]) {
    DepEdge &E = Edges[EI];
    if (E.From == From && E.Kind == Kind) {
      E.Latency = std::max(E.Latency, Latency);
      return;
    }
  }
  uint32_t Idx = static_cast<uint32_t>(Edges.size());
  Edges.push_back(DepEdge{From, To, Kind, Latency});
  SuccIdx[From].push_back(Idx);
  PredIdx[To].push_back(Idx);
}

DepGraph::DepGraph(const Function &F, const Block &B, const MachineDesc &MD,
                   RegionPQS &PQS, const Liveness &LV,
                   const DepGraphOptions &Opts) {
  const std::vector<Operation> &Ops = B.ops();
  NumNodes = Ops.size();
  SuccIdx.resize(NumNodes);
  PredIdx.resize(NumNodes);
  NodeLatency.resize(NumNodes);
  for (size_t I = 0; I < NumNodes; ++I)
    NodeLatency[I] = MD.latency(Ops[I]);

  // --- Register dependences -------------------------------------------
  // For each register track: the current strong (killing) definition, the
  // set of wired writes since the last strong definition, and the uses
  // since the last strong definition.
  struct RegState {
    int StrongDef = -1;
    std::vector<uint32_t> WiredDefs;
    std::vector<uint32_t> Uses;
  };
  std::unordered_map<Reg, RegState> RS;

  auto Disjoint = [&](size_t I, size_t J) {
    return PQS.disjoint(PQS.guardExpr(I), PQS.guardExpr(J));
  };

  auto RecordUse = [&](uint32_t I, Reg R) {
    RegState &S = RS[R];
    if (S.StrongDef >= 0) {
      const Operation &DefOp = Ops[static_cast<size_t>(S.StrongDef)];
      int Lat = MD.latency(DefOp);
      addEdge(static_cast<uint32_t>(S.StrongDef), I, DepKind::Flow, Lat);
    }
    for (uint32_t W : S.WiredDefs)
      addEdge(W, I, DepKind::Flow, MD.latency(Ops[W]));
    S.Uses.push_back(I);
  };

  auto RecordDef = [&](uint32_t I, Reg R, bool Wired, bool AlwaysWrites) {
    RegState &S = RS[R];
    // Anti dependences from earlier uses (an op reading and writing the
    // same register, e.g. "r1 = add(r1, 1)", needs no self edge).
    for (uint32_t U : S.Uses)
      if (U != I && (AlwaysWrites || !Disjoint(U, I)))
        addEdge(U, I, DepKind::Anti, 0);
    if (Wired) {
      // A wired write reads-modifies-writes: it depends on the previous
      // strong definition (the initializer) but is unordered with respect
      // to other wired writes of the same register.
      if (S.StrongDef >= 0)
        addEdge(static_cast<uint32_t>(S.StrongDef), I, DepKind::Flow,
                MD.latency(Ops[static_cast<size_t>(S.StrongDef)]));
      S.WiredDefs.push_back(I);
      return;
    }
    // Output dependences.
    if (S.StrongDef >= 0) {
      const Operation &Prev = Ops[static_cast<size_t>(S.StrongDef)];
      if (AlwaysWrites || !Disjoint(static_cast<uint32_t>(S.StrongDef), I)) {
        int Lat = std::max(1, MD.latency(Prev) - NodeLatency[I] + 1);
        addEdge(static_cast<uint32_t>(S.StrongDef), I, DepKind::Output, Lat);
      }
    }
    for (uint32_t W : S.WiredDefs)
      addEdge(W, I, DepKind::Output, 1);
    if (AlwaysWrites) {
      // Kills: later uses see only this definition.
      S.StrongDef = static_cast<int>(I);
      S.WiredDefs.clear();
      S.Uses.clear();
    } else {
      // A conditional (guarded, non-wired) definition merges with the
      // previous value; treat it like a wired write for def-use purposes
      // so later uses depend on both it and the previous definition.
      S.WiredDefs.push_back(I);
    }
  };

  // --- Memory state ----------------------------------------------------
  struct MemState {
    std::vector<uint32_t> Stores; // since last barrier
    std::vector<uint32_t> Loads;
  };
  // Key: alias class (0 aliases everything).
  std::unordered_map<unsigned, MemState> MS;

  // Symbolic address disambiguation: an address of the form
  // "add(base, imm)" computed by an unguarded operation is tracked as
  // (value number of base, offset). Two accesses with the same base value
  // and different offsets cannot alias -- this recovers the base+offset
  // disambiguation the paper's compiler relies on for unrolled loops.
  struct AddrKey {
    bool Valid = false;
    uint64_t BaseVN = 0;
    int64_t Offset = 0;
  };
  std::unordered_map<Reg, uint64_t> ValueNum;
  uint64_t NextVN = 1;
  auto VNOf = [&](Reg R) {
    auto [It, Inserted] = ValueNum.try_emplace(R, 0);
    if (Inserted)
      It->second = NextVN++;
    return It->second;
  };
  // Register -> symbolic address, invalidated on redefinition.
  std::unordered_map<Reg, AddrKey> SymAddr;
  std::vector<AddrKey> MemAddr(NumNodes);

  auto AddrsMayAlias = [](const AddrKey &A, const AddrKey &Bk) {
    if (!A.Valid || !Bk.Valid)
      return true;
    if (A.BaseVN != Bk.BaseVN)
      return true; // unrelated bases: defer to alias classes
    return A.Offset == Bk.Offset;
  };

  auto MayAlias = [](uint8_t A, uint8_t Bc) {
    return A == 0 || Bc == 0 || A == Bc;
  };

  // --- Control state ----------------------------------------------------
  std::vector<uint32_t> PriorBranches; // branch/halt/trap indices so far
  std::vector<LiveSet> PriorExitLive;  // their exit live sets
  int BrLat = MD.branchLatency();

  for (uint32_t I = 0; I < NumNodes; ++I) {
    const Operation &Op = Ops[I];

    // Uses: guard first, then register sources.
    if (!Op.getGuard().isTruePred())
      RecordUse(I, Op.getGuard());
    for (const Operand &S : Op.srcs())
      if (S.isReg())
        RecordUse(I, S.getReg());

    // Memory dependences.
    if (opcodeIsMemory(Op.getOpcode())) {
      bool IsStore = Op.isStore();
      // Resolve this access's symbolic address.
      Reg AddrReg = Op.srcs()[0].getReg();
      auto SA = SymAddr.find(AddrReg);
      if (SA != SymAddr.end())
        MemAddr[I] = SA->second;
      else
        MemAddr[I] = AddrKey{true, VNOf(AddrReg), 0};

      auto Independent = [&](uint32_t Other) {
        return !AddrsMayAlias(MemAddr[I], MemAddr[Other]) || Disjoint(Other, I);
      };
      for (auto &[Class, State] : MS) {
        if (!MayAlias(Op.getAliasClass(), static_cast<uint8_t>(Class)))
          continue;
        if (IsStore) {
          for (uint32_t S : State.Stores)
            if (!Independent(S))
              addEdge(S, I, DepKind::Mem, 1);
          for (uint32_t L : State.Loads)
            if (!Independent(L))
              addEdge(L, I, DepKind::Mem, 0);
        } else {
          for (uint32_t S : State.Stores)
            if (!Independent(S))
              addEdge(S, I, DepKind::Mem, 1);
        }
      }
      MemState &Own = MS[Op.getAliasClass()];
      if (IsStore) {
        Own.Stores.push_back(I);
      } else {
        Own.Loads.push_back(I);
      }
    }

    // Control dependences from earlier branches/terminators. The relevant
    // execution condition of the dependent operation is its guard -- or,
    // for a branch, its taken condition: a branch whose taken predicate
    // cannot be true together with a prior branch's may overlap with it
    // (the PlayDoh branch-overlap rule the paper describes in Section 3).
    bool SideEffects = Op.hasSideEffects();
    BDD::NodeRef MyCond =
        Op.isBranch() ? PQS.takenExpr(I) : PQS.guardExpr(I);
    for (size_t K = 0; K < PriorBranches.size(); ++K) {
      uint32_t Br = PriorBranches[K];
      const Operation &BrOp = Ops[Br];
      BDD::NodeRef ExitCond = BrOp.isBranch() ? PQS.takenExpr(Br)
                                              : PQS.guardExpr(Br);
      bool GuardDisjoint =
          Opts.AllowSpeculation && PQS.disjoint(MyCond, ExitCond);
      int Lat = BrOp.isBranch() ? BrLat : 1;
      if (SideEffects) {
        if (!GuardDisjoint)
          addEdge(Br, I, DepKind::Control, Lat);
        continue;
      }
      if (!Opts.AllowSpeculation) {
        addEdge(Br, I, DepKind::Control, Lat);
        continue;
      }
      if (GuardDisjoint)
        continue;
      // Safe operation: control dependent only if it would clobber a value
      // live on the exit path. Unconditional cmpp targets write even under
      // a false guard, so the guard-disjointness exemption above does not
      // apply to them; re-check per destination.
      for (const DefSlot &D : Op.defs()) {
        bool Clobbers = PriorExitLive[K].contains(D.R);
        if (!Clobbers)
          continue;
        bool AlwaysWrites =
            Op.isCmpp()
                ? (D.Act == CmppAction::UN || D.Act == CmppAction::UC)
                : Op.getGuard().isTruePred();
        // Wired/guarded writes under a disjoint guard cannot fire on the
        // exit path; unconditional writes always fire.
        if (AlwaysWrites || !GuardDisjoint) {
          addEdge(Br, I, DepKind::Control, Lat);
          break;
        }
      }
    }

    // Side-effecting operations may sink at most into the delay region of
    // a later branch; record the constraint when the branch appears.
    if (Op.isControl()) {
      // Every earlier side effect must complete before (or within the
      // delay region of) this exit.
      BDD::NodeRef MyExitCond =
          Op.isBranch() ? PQS.takenExpr(I) : PQS.guardExpr(I);
      for (uint32_t J = 0; J < I; ++J) {
        const Operation &Prev = Ops[J];
        if (!Prev.hasSideEffects() || Prev.isControl())
          continue;
        // A side effect whose guard is disjoint from the exit condition
        // never fires on the taken path; it may sink freely below.
        if (PQS.disjoint(PQS.guardExpr(J), MyExitCond))
          continue;
        // cycle(branch) >= cycle(sideeffect) - (branchLat - 1)
        int ExitLat = Op.isBranch() ? BrLat : 1;
        addEdge(J, I, DepKind::Control, 1 - ExitLat);
      }
      PriorBranches.push_back(I);
      PriorExitLive.push_back(LV.liveAtExit(F, B, I));
    }

    // Definitions.
    for (const DefSlot &D : Op.defs()) {
      bool Wired = isWiredAction(D.Act);
      bool AlwaysWrites =
          Op.isCmpp() ? (D.Act == CmppAction::UN || D.Act == CmppAction::UC)
                      : Op.getGuard().isTruePred();
      RecordDef(I, D.R, Wired, AlwaysWrites);
    }

    // Symbolic address bookkeeping: capture "dst = add(base, imm)" before
    // refreshing value numbers (the base may equal the destination, as in
    // induction updates "r1 = add(r1, 4)").
    {
      AddrKey NewKey;
      if (Op.getOpcode() == Opcode::Add && Op.getGuard().isTruePred() &&
          Op.srcs().size() == 2 && Op.srcs()[0].isReg() &&
          Op.srcs()[1].isImm()) {
        Reg Base = Op.srcs()[0].getReg();
        auto BaseSym = SymAddr.find(Base);
        if (BaseSym != SymAddr.end() && BaseSym->second.Valid) {
          NewKey = BaseSym->second;
          NewKey.Offset += Op.srcs()[1].getImm();
        } else {
          NewKey = AddrKey{true, VNOf(Base), Op.srcs()[1].getImm()};
        }
      }
      for (const DefSlot &D : Op.defs()) {
        if (D.R.getClass() != RegClass::GPR)
          continue;
        ValueNum[D.R] = NextVN++;
        SymAddr.erase(D.R);
      }
      if (NewKey.Valid && Op.getGuard().isTruePred())
        SymAddr[Op.defs()[0].R] = NewKey;
    }
  }
}

std::vector<int> DepGraph::depths() const {
  std::vector<int> D(NumNodes, 0);
  // Nodes are in program order, and all edges go forward, so one pass
  // suffices.
  for (const DepEdge &E : Edges) {
    int Cand = D[E.From] + std::max(0, E.Latency);
    if (Cand > D[E.To])
      D[E.To] = Cand;
  }
  return D;
}

std::vector<int> DepGraph::heights() const {
  std::vector<int> H(NumNodes);
  for (size_t I = NumNodes; I-- > 0;) {
    H[I] = NodeLatency[I];
    for (uint32_t EI : SuccIdx[I]) {
      const DepEdge &E = Edges[EI];
      int Cand = std::max(0, E.Latency) + H[E.To];
      if (Cand > H[I])
        H[I] = Cand;
    }
  }
  return H;
}

int DepGraph::criticalPathLength() const {
  std::vector<int> D = depths();
  int Max = 0;
  for (size_t I = 0; I < NumNodes; ++I)
    Max = std::max(Max, D[I] + NodeLatency[I]);
  return Max;
}

std::vector<uint32_t> DepGraph::transitiveSuccessors(uint32_t Start,
                                                     bool IncludeMem,
                                                     bool IncludeControl) const {
  std::vector<bool> Visited(NumNodes, false);
  std::vector<uint32_t> Stack{Start};
  std::vector<uint32_t> Result;
  while (!Stack.empty()) {
    uint32_t N = Stack.back();
    Stack.pop_back();
    for (uint32_t EI : SuccIdx[N]) {
      const DepEdge &E = Edges[EI];
      bool Follow = E.Kind == DepKind::Flow ||
                    (IncludeMem && E.Kind == DepKind::Mem) ||
                    (IncludeControl && E.Kind == DepKind::Control);
      if (!Follow || Visited[E.To])
        continue;
      Visited[E.To] = true;
      Result.push_back(E.To);
      Stack.push_back(E.To);
    }
  }
  std::sort(Result.begin(), Result.end());
  return Result;
}
