//===- verify/CfgChecker.cpp - CFG/profile structural analysis ------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/CfgChecker.h"

#include "analysis/Reachability.h"
#include "support/Numeric.h"

#include <cmath>
#include <map>
#include <set>
#include <string>

using namespace cdvs;
using namespace cdvs::verify;

namespace {

const char *PassName = "cfg";

std::string blockLoc(const Function &Fn, int B) {
  return "block " + std::to_string(B) + " (" + Fn.block(B).Name + ")";
}

std::string edgeLoc(const CfgEdge &E) {
  return "edge " + std::to_string(E.From) + "->" + std::to_string(E.To);
}

} // namespace

Report verify::checkCfgProfile(const Function &Fn, const Profile &Prof,
                               const CfgCheckOptions &Opts) {
  Report R;

  // The CFG itself must be well-formed before any count can be trusted.
  ErrorOr<bool> FnOk = Fn.verify();
  if (!FnOk) {
    R.error(PassName, "function " + Fn.name(), FnOk.message());
    return R;
  }

  const int NumBlocks = Fn.numBlocks();
  if (Prof.NumBlocks != NumBlocks) {
    R.error(PassName, "profile",
            "profile covers " + std::to_string(Prof.NumBlocks) +
                " blocks but function has " + std::to_string(NumBlocks));
    return R;
  }
  if (Prof.NumModes <= 0) {
    R.error(PassName, "profile", "profile carries no modes");
    return R;
  }
  if (static_cast<int>(Prof.BlockExecs.size()) != NumBlocks ||
      static_cast<int>(Prof.TimePerInvocation.size()) != NumBlocks ||
      static_cast<int>(Prof.EnergyPerInvocation.size()) != NumBlocks) {
    R.error(PassName, "profile",
            "per-block vectors do not match the block count");
    return R;
  }

  // Per-mode data: finite and nonnegative, rows sized NumModes.
  for (int B = 0; B < NumBlocks; ++B) {
    const auto &TRow = Prof.TimePerInvocation[B];
    const auto &ERow = Prof.EnergyPerInvocation[B];
    if (static_cast<int>(TRow.size()) != Prof.NumModes ||
        static_cast<int>(ERow.size()) != Prof.NumModes) {
      R.error(PassName, blockLoc(Fn, B),
              "per-mode rows are not sized to the mode count");
      continue;
    }
    bool ZeroTime = false;
    for (int M = 0; M < Prof.NumModes; ++M) {
      if (!std::isfinite(TRow[M]) || TRow[M] < 0.0)
        R.error(PassName, blockLoc(Fn, B),
                "non-finite or negative time at mode " +
                    std::to_string(M));
      if (!std::isfinite(ERow[M]) || ERow[M] < 0.0)
        R.error(PassName, blockLoc(Fn, B),
                "non-finite or negative energy at mode " +
                    std::to_string(M));
      ZeroTime |= Prof.BlockExecs[B] > 0 && TRow[M] <= 0.0;
    }
    if (ZeroTime)
      R.warning(PassName, blockLoc(Fn, B),
                "executed block has zero time at some mode (empty "
                "block, or a profiling gap)");
  }

  // Every profiled edge must lie on the CFG.
  std::set<CfgEdge> CfgEdges;
  for (const CfgEdge &E : Fn.edges())
    CfgEdges.insert(E);
  for (const auto &[E, G] : Prof.EdgeCounts) {
    if (!CfgEdges.count(E))
      R.error(PassName, edgeLoc(E),
              "profiled edge (count " + std::to_string(G) +
                  ") is not a CFG edge");
  }

  // Reachability: executed blocks must be reachable from the entry and
  // must reach an exit; statically dead blocks are only warnings. The
  // classification comes from the shared static analysis — the same one
  // dvs-lint --static consumes — so the two cannot disagree about which
  // blocks and edges are dead.
  analysis::Reachability Reach = analysis::computeReachability(Fn);
  for (int B = 0; B < NumBlocks; ++B) {
    bool Executed = Prof.BlockExecs[B] > 0;
    if (!Reach.fromEntry(B)) {
      if (Executed)
        R.error(PassName, blockLoc(Fn, B),
                "executed " + std::to_string(Prof.BlockExecs[B]) +
                    " times but is unreachable from the entry");
      else
        R.warning(PassName, blockLoc(Fn, B),
                  "unreachable from the entry (dead block)");
    }
    if (!Reach.toExit(B)) {
      if (Executed)
        R.error(PassName, blockLoc(Fn, B),
                "executed but no exit is reachable from it");
      else
        R.warning(PassName, blockLoc(Fn, B), "cannot reach any exit");
    }
  }

  // Flow conservation. In-flow and out-flow per block from the profiled
  // edge counts; the entry additionally receives the launch(es), and
  // blocks ending in Ret additionally emit the returns.
  std::vector<KahanSum> In(NumBlocks), Out(NumBlocks);
  for (const auto &[E, G] : Prof.EdgeCounts) {
    if (!CfgEdges.count(E))
      continue; // already reported
    In[E.To].add(static_cast<double>(G));
    Out[E.From].add(static_cast<double>(G));
  }
  const double Tol = Opts.FlowTolerance;
  // Launches = entry executions not explained by in-edges.
  double Launches =
      static_cast<double>(Prof.BlockExecs[0]) - In[0].value();
  if (Launches < -Tol)
    R.error(PassName, blockLoc(Fn, 0),
            "entry in-edge counts exceed its execution count by " +
                std::to_string(-Launches));
  KahanSum Returns;
  for (int B = 0; B < NumBlocks; ++B) {
    double Execs = static_cast<double>(Prof.BlockExecs[B]);
    if (B != 0 && std::fabs(In[B].value() - Execs) > Tol)
      R.error(PassName, blockLoc(Fn, B),
              "flow imbalance: in-edge counts sum to " +
                  std::to_string(In[B].value()) + " but block executed " +
                  std::to_string(Prof.BlockExecs[B]) + " times");
    if (Fn.block(B).Term == TermKind::Ret) {
      Returns.add(Execs - Out[B].value());
      if (Out[B].value() > Tol)
        R.error(PassName, blockLoc(Fn, B),
                "exit block has outgoing edge counts");
    } else if (std::fabs(Out[B].value() - Execs) > Tol) {
      R.error(PassName, blockLoc(Fn, B),
              "flow imbalance: out-edge counts sum to " +
                  std::to_string(Out[B].value()) + " but block executed " +
                  std::to_string(Prof.BlockExecs[B]) + " times");
    }
  }
  if (std::fabs(Returns.value() - Launches) > Tol)
    R.error(PassName, "function " + Fn.name(),
            "launch/return imbalance: " + std::to_string(Launches) +
                " launches vs " + std::to_string(Returns.value()) +
                " returns");

  // Local-path consistency: sum_h D_hij == G_ij, and both path edges
  // must exist (the h = -1 context is the launch).
  std::map<CfgEdge, KahanSum> PathSumPerEdge;
  for (const auto &[Path, D] : Prof.PathCounts) {
    auto [H, I, J] = Path;
    CfgEdge InEdge{H, I}, OutEdge{I, J};
    if (!CfgEdges.count(OutEdge)) {
      R.error(PassName, edgeLoc(OutEdge),
              "local path (" + std::to_string(H) + "," +
                  std::to_string(I) + "," + std::to_string(J) +
                  ") leaves along a non-CFG edge");
      continue;
    }
    if (H != -1 && !CfgEdges.count(InEdge)) {
      R.error(PassName, edgeLoc(InEdge),
              "local path (" + std::to_string(H) + "," +
                  std::to_string(I) + "," + std::to_string(J) +
                  ") enters along a non-CFG edge");
      continue;
    }
    PathSumPerEdge[OutEdge].add(static_cast<double>(D));
  }
  for (const CfgEdge &E : Fn.edges()) {
    auto GIt = Prof.EdgeCounts.find(E);
    double G = GIt == Prof.EdgeCounts.end()
                   ? 0.0
                   : static_cast<double>(GIt->second);
    auto PIt = PathSumPerEdge.find(E);
    double D = PIt == PathSumPerEdge.end() ? 0.0 : PIt->second.value();
    if (std::fabs(G - D) > Tol)
      R.error(PassName, edgeLoc(E),
              "path counts sum to " + std::to_string(D) +
                  " but the edge count is " + std::to_string(G));
    if (G > 0.0 && !Reach.live(E))
      R.error(PassName, edgeLoc(E),
              "statically dead edge carries a nonzero profile count (" +
                  std::to_string(G) + ")");
    if (Opts.WarnDeadEdges && G == 0.0 &&
        Prof.BlockExecs[E.From] > 0)
      R.warning(PassName, edgeLoc(E),
                "dead edge: source executed " +
                    std::to_string(Prof.BlockExecs[E.From]) +
                    " times but the edge was never taken");
  }

  return R;
}
