//===- milp/MilpSolver.cpp - Branch-and-bound MILP solver ----------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
//
// Sequential depth-first branch-and-bound.
//
// Open nodes live on one LIFO stack: children are pushed and the newest
// is popped next, so the engine's basis is almost always the just-solved
// parent's. A node is just a bound-change delta chained to its parent,
// so the live tree costs O(depth) per branch path and siblings share
// their prefix.
//
// One persistent SimplexEngine serves every node; moving from the
// previously solved node to the next applies the bound diff between the
// two and re-solves warm (dual simplex repair from the held basis).
//
//===----------------------------------------------------------------------===//

#include "milp/MilpSolver.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Clock.h"
#include "support/Error.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

using namespace cdvs;

const char *cdvs::milpStatusName(MilpStatus Status) {
  switch (Status) {
  case MilpStatus::Optimal:
    return "optimal";
  case MilpStatus::Feasible:
    return "feasible";
  case MilpStatus::Infeasible:
    return "infeasible";
  case MilpStatus::Unbounded:
    return "unbounded";
  case MilpStatus::Limit:
    return "limit";
  }
  cdvsUnreachable("bad MilpStatus");
}

/// Deeper nodes re-run the rounding heuristic after this many nodes
/// have been processed since the last rounding attempt.
static constexpr long RoundingInterval = 512;

/// One tree node: a single bound change relative to the parent. The root
/// has Var == -1 and carries no change.
struct MilpSolver::Node {
  std::shared_ptr<const Node> Parent;
  int Var = -1;
  double Lo = 0.0, Hi = 0.0;
  /// Parent's LP relaxation objective: a valid lower bound for the whole
  /// subtree, used for best-bound pruning before the node's LP is solved.
  double Bound = -std::numeric_limits<double>::infinity();
  int Depth = 0;
};

/// State of one search: the engine, the open-node stack, the incumbent
/// and the effort counters.
struct MilpSolver::Search {
  explicit Search(const LpProblem &Problem, const SimplexOptions &LpOpts)
      : Engine(Problem, LpOpts) {
    int N = Problem.numVariables();
    CurLo.resize(N);
    CurHi.resize(N);
    for (int V = 0; V < N; ++V) {
      CurLo[V] = Problem.lowerBound(V);
      CurHi[V] = Problem.upperBound(V);
    }
    NewLo = CurLo;
    NewHi = CurHi;
    Mark.assign(N, 0);
  }

  /// Records \p R as the incumbent when it improves on it by more than
  /// \p AbsGap.
  void offerIncumbent(const LpSolution &R, double AbsGap) {
    if (!(R.Objective < Incumbent - AbsGap))
      return;
    Incumbent = R.Objective;
    BestX = R.X;
    ++IncumbentUpdates;
    obs::traceInstant("incumbent", "milp", "objective", R.Objective);
  }

  SimplexEngine Engine;
  /// Open nodes; the back is explored next.
  std::vector<std::shared_ptr<const Node>> Stack;
  /// Bounds currently applied to Engine, indexed by variable.
  std::vector<double> CurLo, CurHi;
  /// Scratch for resolving a node's absolute bounds.
  std::vector<double> NewLo, NewHi;
  std::vector<long> Mark; // epoch marks for delta-chain resolution
  long Epoch = 0;
  long SinceRounding = 0;
  double Incumbent = std::numeric_limits<double>::infinity();
  std::vector<double> BestX;
  double RootBound = 0.0;
  bool Truncated = false;
  bool RootUnbounded = false;
  std::chrono::steady_clock::time_point Deadline;
  long Nodes = 0;
  long LpIterations = 0;
  long ColdLps = 0; // cold solves issued outside the engine (WarmStart off)
  long Pruned = 0;  // best-bound prunes (pre-LP and post-LP)
  long IncumbentUpdates = 0;
};

MilpSolver::MilpSolver(LpProblem Problem, std::vector<int> IntegerVars,
                       MilpOptions Opts)
    : Problem(std::move(Problem)), IntegerVars(std::move(IntegerVars)),
      Opts(Opts) {
  GroupOfVar.assign(this->Problem.numVariables(), -1);
}

void MilpSolver::addSos1Group(std::vector<int> Vars) {
  int Group = static_cast<int>(Sos1Groups.size());
  for (int V : Vars) {
    assert(V >= 0 && V < Problem.numVariables() && "unknown variable");
    assert(GroupOfVar[V] == -1 && "variable in two SOS1 groups");
    GroupOfVar[V] = Group;
  }
  Sos1Groups.push_back(std::move(Vars));
}

/// Distance of \p X from the nearest integer.
static double fractionality(double X) {
  return std::fabs(X - std::round(X));
}

int MilpSolver::pickBranchVariable(const std::vector<double> &X) const {
  // Prefer SOS1-group branching: pick the group with the largest total
  // fractionality, then its most fractional member.
  int BestVar = -1;
  double BestGroupScore = 0.0;
  for (const auto &Group : Sos1Groups) {
    double Score = 0.0;
    int GroupVar = -1;
    double GroupVarFrac = 0.0;
    for (int V : Group) {
      double F = fractionality(X[V]);
      Score += F;
      if (F > GroupVarFrac) {
        GroupVarFrac = F;
        GroupVar = V;
      }
    }
    if (Score > BestGroupScore + Opts.IntTol && GroupVarFrac > Opts.IntTol) {
      BestGroupScore = Score;
      BestVar = GroupVar;
    }
  }
  if (BestVar >= 0)
    return BestVar;

  // Fall back to the most fractional integer variable overall.
  double BestFrac = Opts.IntTol;
  for (int V : IntegerVars) {
    double F = fractionality(X[V]);
    if (F > BestFrac) {
      BestFrac = F;
      BestVar = V;
    }
  }
  return BestVar;
}

/// Solves the LP at the engine's currently applied bounds: warm through
/// the engine, or cold when warm starting is disabled (ablation path).
static LpSolution solveNodeLp(SimplexEngine &Engine, bool WarmStart,
                              const SimplexOptions &LpOpts, long &ColdLps) {
  if (WarmStart)
    return Engine.solve();
  ++ColdLps;
  return solveLp(Engine.problem(), LpOpts);
}

void MilpSolver::tryRounding(Search &S, const std::vector<double> &Relaxed) {
  // Save bounds we are about to clobber.
  std::vector<std::pair<int, std::pair<double, double>>> Saved;
  auto fixVar = [&](int V, double Value) {
    Saved.push_back({V, {S.CurLo[V], S.CurHi[V]}});
    S.Engine.setBounds(V, Value, Value);
    S.CurLo[V] = Value;
    S.CurHi[V] = Value;
  };

  // Snap each SOS1 group to its largest LP value.
  std::vector<bool> Handled(Problem.numVariables(), false);
  for (const auto &Group : Sos1Groups) {
    int Arg = Group.front();
    for (int V : Group)
      if (Relaxed[V] > Relaxed[Arg])
        Arg = V;
    for (int V : Group) {
      // Respect pre-existing fixings from the current branch.
      if (S.CurLo[V] == S.CurHi[V]) {
        Handled[V] = true;
        continue;
      }
      fixVar(V, V == Arg ? 1.0 : 0.0);
      Handled[V] = true;
    }
  }
  // Round onto the integers inside each variable's bounds; a fractional
  // bound is not a value an integer variable may take.
  bool HasIntegerPoint = true;
  for (int V : IntegerVars) {
    if (Handled[V] || S.CurLo[V] == S.CurHi[V])
      continue;
    double Lo = std::ceil(S.CurLo[V]), Hi = std::floor(S.CurHi[V]);
    if (Lo > Hi) {
      HasIntegerPoint = false;
      break;
    }
    fixVar(V, std::min(std::max(std::round(Relaxed[V]), Lo), Hi));
  }

  if (HasIntegerPoint) {
    LpSolution R = solveNodeLp(S.Engine, Opts.WarmStart, Opts.LpOpts,
                               S.ColdLps);
    S.LpIterations += R.Iterations;
    if (R.Status == LpStatus::Optimal)
      S.offerIncumbent(R, Opts.AbsGap);
  }

  for (auto It = Saved.rbegin(); It != Saved.rend(); ++It) {
    S.Engine.setBounds(It->first, It->second.first, It->second.second);
    S.CurLo[It->first] = It->second.first;
    S.CurHi[It->first] = It->second.second;
  }
}

void MilpSolver::processNode(Search &S, const std::shared_ptr<const Node> &N) {
  // Best-bound prune on the parent relaxation before any LP work.
  if (N->Bound >= S.Incumbent - Opts.AbsGap) {
    ++S.Pruned;
    return;
  }
  if (S.Nodes >= Opts.MaxNodes ||
      std::chrono::steady_clock::now() > S.Deadline) {
    S.Truncated = true;
    return;
  }

  // Resolve the node's absolute bounds: root bounds overlaid with the
  // delta chain, child-most change winning. Only the integer-variable
  // entries of NewLo/NewHi are ever read.
  ++S.Epoch;
  for (int V : IntegerVars) {
    S.NewLo[V] = Problem.lowerBound(V);
    S.NewHi[V] = Problem.upperBound(V);
  }
  for (const Node *A = N.get(); A && A->Var >= 0; A = A->Parent.get()) {
    if (S.Mark[A->Var] != S.Epoch) {
      S.Mark[A->Var] = S.Epoch;
      S.NewLo[A->Var] = A->Lo;
      S.NewHi[A->Var] = A->Hi;
    }
  }
  // Only integer variables ever carry branch or rounding fixings, so the
  // diff against the engine's applied bounds is confined to them.
  for (int V : IntegerVars) {
    if (S.NewLo[V] != S.CurLo[V] || S.NewHi[V] != S.CurHi[V]) {
      S.Engine.setBounds(V, S.NewLo[V], S.NewHi[V]);
      S.CurLo[V] = S.NewLo[V];
      S.CurHi[V] = S.NewHi[V];
    }
  }

  LpSolution R = solveNodeLp(S.Engine, Opts.WarmStart, Opts.LpOpts,
                             S.ColdLps);
  ++S.Nodes;
  S.LpIterations += R.Iterations;

  if (R.Status == LpStatus::Infeasible)
    return;
  if (R.Status == LpStatus::Unbounded) {
    if (N->Depth == 0)
      S.RootUnbounded = true;
    // An unbounded node with integer restrictions still pending cannot be
    // pruned soundly in general; for our formulations (bounded binaries,
    // nonnegative costs) this never happens below the root.
    return;
  }
  if (R.Status == LpStatus::IterationLimit) {
    S.Truncated = true;
    return;
  }

  if (N->Depth == 0) {
    S.RootBound = R.Objective;
    if (Opts.UseRounding)
      tryRounding(S, R.X);
  }

  if (R.Objective >= S.Incumbent - Opts.AbsGap) {
    ++S.Pruned;
    return; // Prune: cannot beat the incumbent.
  }

  int BranchVar = pickBranchVariable(R.X);
  if (BranchVar < 0) {
    // Integer feasible: candidate incumbent.
    S.offerIncumbent(R, Opts.AbsGap);
    return;
  }

  // Periodic rounding deeper in the tree keeps the incumbent fresh.
  if (Opts.UseRounding && N->Depth > 0 &&
      ++S.SinceRounding >= RoundingInterval) {
    S.SinceRounding = 0;
    tryRounding(S, R.X);
  }

  double Value = R.X[BranchVar];
  double SavedLo = S.CurLo[BranchVar];
  double SavedHi = S.CurHi[BranchVar];
  bool IsBinary = SavedLo >= -Opts.IntTol && SavedHi <= 1.0 + Opts.IntTol;

  auto pushChild = [&](double Lo, double Hi) {
    auto C = std::make_shared<Node>();
    C->Parent = N;
    C->Var = BranchVar;
    C->Lo = Lo;
    C->Hi = Hi;
    C->Bound = R.Objective;
    C->Depth = N->Depth + 1;
    S.Stack.push_back(std::move(C));
  };

  // The second child pushed is popped next.
  if (IsBinary) {
    // The likelier side is explored first.
    double Likely = Value >= 0.5 ? 1.0 : 0.0;
    pushChild(1.0 - Likely, 1.0 - Likely);
    pushChild(Likely, Likely);
  } else {
    // General integer: floor/ceiling split, floor side first. A side
    // with no integer left in it (next to a fractional bound) is not
    // pushed: its bounds would cross.
    double Floor = std::floor(Value);
    if (Floor + 1.0 <= SavedHi)
      pushChild(Floor + 1.0, SavedHi);
    if (Floor >= SavedLo)
      pushChild(SavedLo, Floor);
  }
}

/// Folds one finished solve into the process-wide registry. Instrument
/// references are resolved once and cached (static locals), so the per-
/// solve cost is a handful of relaxed atomic adds.
static void exportSolveMetrics(const MilpSolution &Sol) {
  using namespace obs;
  static Counter &Solves = metrics().counter(
      "cdvs_milp_solves_total", "Branch-and-bound searches run");
  static Counter &Nodes = metrics().counter(
      "cdvs_milp_nodes_total", "B&B nodes whose LP relaxation was solved");
  static Counter &Pruned = metrics().counter(
      "cdvs_milp_nodes_pruned_total",
      "B&B nodes discarded by best-bound pruning");
  static Counter &LpIters = metrics().counter(
      "cdvs_milp_lp_iterations_total",
      "Simplex iterations across all node LPs");
  static Counter &Warm = metrics().counter(
      "cdvs_milp_warm_lps_total",
      "Node LPs re-solved warm from a held basis");
  static Counter &Cold = metrics().counter(
      "cdvs_milp_cold_lps_total",
      "Node LPs solved through the cold two-phase path");
  static Counter &Pivots = metrics().counter(
      "cdvs_milp_lp_pivots_total",
      "Simplex pivots across the node LPs, refactorization included");
  static Counter &Incumbents = metrics().counter(
      "cdvs_milp_incumbent_updates_total",
      "Improving integer-feasible points found");
  static Histogram &SolveLatency = metrics().histogram(
      "cdvs_milp_solve_seconds", "Wall time of one B&B search",
      latencyBucketsSeconds());
  Solves.inc();
  Nodes.inc(static_cast<double>(Sol.Nodes));
  Pruned.inc(static_cast<double>(Sol.Pruned));
  LpIters.inc(static_cast<double>(Sol.LpIterations));
  Warm.inc(static_cast<double>(Sol.WarmLps));
  Cold.inc(static_cast<double>(Sol.ColdLps));
  Pivots.inc(static_cast<double>(Sol.LpPivots));
  Incumbents.inc(static_cast<double>(Sol.IncumbentUpdates));
  SolveLatency.observe(Sol.SolveSeconds);
}

MilpSolution MilpSolver::solve() {
  obs::TraceSpan Span("milp_solve", "milp");
  uint64_t T0 = monotonicNanos();
  Search S(Problem, Opts.LpOpts);
  S.Deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(Opts.TimeLimitSec));

  S.Stack.push_back(std::make_shared<const Node>());
  while (!S.Stack.empty() && !S.Truncated) {
    std::shared_ptr<const Node> N = std::move(S.Stack.back());
    S.Stack.pop_back();
    processNode(S, N);
  }

  MilpSolution Sol;
  Sol.Nodes = S.Nodes;
  Sol.LpIterations = S.LpIterations;
  Sol.ColdLps = S.ColdLps + S.Engine.coldSolves();
  Sol.WarmLps = S.Engine.warmSolves();
  Sol.LpPivots = S.Engine.totalPivots();
  Sol.Pruned = S.Pruned;
  Sol.IncumbentUpdates = S.IncumbentUpdates;
  Sol.SolveSeconds = nanosToSeconds(monotonicNanos() - T0);
  Sol.RootBound = S.RootBound;
  if (S.RootUnbounded) {
    Sol.Status = MilpStatus::Unbounded;
  } else if (!S.BestX.empty()) {
    Sol.Status = S.Truncated ? MilpStatus::Feasible : MilpStatus::Optimal;
    Sol.Objective = S.Incumbent;
    Sol.X = std::move(S.BestX);
  } else {
    Sol.Status = S.Truncated ? MilpStatus::Limit : MilpStatus::Infeasible;
  }
  Span.arg("nodes", static_cast<double>(Sol.Nodes));
  exportSolveMetrics(Sol);
  return Sol;
}
