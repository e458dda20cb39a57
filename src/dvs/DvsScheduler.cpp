//===- dvs/DvsScheduler.cpp - Profile-driven MILP DVS scheduling ----------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "dvs/DvsScheduler.h"

#include "dvs/EdgeGroups.h"
#include "lp/LpWriter.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>

using namespace cdvs;

DvsScheduler::DvsScheduler(const Function &Fn, const Profile &Prof,
                           const ModeTable &Modes,
                           const TransitionModel &Transitions,
                           DvsOptions Opts)
    : DvsScheduler(Fn, std::vector<CategoryProfile>{{Prof, 1.0}}, Modes,
                   Transitions, Opts) {}

DvsScheduler::DvsScheduler(const Function &Fn,
                           const std::vector<CategoryProfile> &InCategories,
                           const ModeTable &Modes,
                           const TransitionModel &Transitions,
                           DvsOptions Opts)
    : Fn(Fn), Categories(InCategories), Modes(Modes),
      Transitions(Transitions), Opts(Opts) {
  assert(!Categories.empty() && "need at least one input category");
  for (const CategoryProfile &C : Categories) {
    assert(C.Data.NumBlocks == Fn.numBlocks() &&
           "profile does not match function");
    assert(C.Data.NumModes == static_cast<int>(Modes.size()) &&
           "profile does not match mode table");
    (void)C;
  }
  assert(Opts.InitialMode >= 0 &&
         Opts.InitialMode < static_cast<int>(Modes.size()) &&
         "initial mode out of range");
  buildGroups();
}

void DvsScheduler::buildGroups() {
  // Shared with the static verifier (verify/ScheduleChecker), which must
  // recompute exactly this partition to audit filtered placements.
  EdgeGroups G = computeEdgeGroups(Fn, Categories, Opts.FilterThreshold);
  Edges = std::move(G.Edges);
  GroupOf = std::move(G.GroupOf);
  NumGroups = G.NumGroups;
}

int DvsScheduler::numIndependentGroups() const { return NumGroups; }

ErrorOr<ScheduleResult> DvsScheduler::schedule(double DeadlineSeconds) {
  return schedule(
      std::vector<double>(Categories.size(), DeadlineSeconds));
}

ErrorOr<ScheduleResult>
DvsScheduler::schedule(const std::vector<double> &DeadlineSeconds) {
  if (DeadlineSeconds.size() != Categories.size())
    return makeError("deadline count does not match category count");

  const int NumModes = static_cast<int>(Modes.size());
  const int NumEdges = static_cast<int>(Edges.size());
  const int NumCats = static_cast<int>(Categories.size());

  LpProblem P;

  // Mode binaries per independent group.
  std::vector<std::vector<int>> K(NumGroups, std::vector<int>(NumModes));
  for (int G = 0; G < NumGroups; ++G)
    for (int M = 0; M < NumModes; ++M)
      K[G][M] = P.addVariable(0.0, 1.0, 0.0,
                              "k_g" + std::to_string(G) + "_m" +
                                  std::to_string(M));

  // Objective: execution energy. Gather coefficients first.
  std::vector<std::vector<double>> EnergyCoeff(
      NumGroups, std::vector<double>(NumModes, 0.0));
  // Per-category deadline-row coefficients on the k variables.
  std::vector<std::vector<std::vector<double>>> TimeCoeff(
      NumCats, std::vector<std::vector<double>>(
                   NumGroups, std::vector<double>(NumModes, 0.0)));

  for (int C = 0; C < NumCats; ++C) {
    const CategoryProfile &Cat = Categories[C];
    for (int E = 0; E < NumEdges; ++E) {
      double G = E == 0 ? 1.0 : 0.0;
      if (E != 0) {
        auto It = Cat.Data.EdgeCounts.find(Edges[E]);
        if (It != Cat.Data.EdgeCounts.end())
          G = static_cast<double>(It->second);
      }
      if (G == 0.0)
        continue;
      int To = Edges[E].To;
      int Grp = GroupOf[E];
      for (int M = 0; M < NumModes; ++M) {
        EnergyCoeff[Grp][M] += Cat.Probability * G *
                               Cat.Data.EnergyPerInvocation[To][M];
        TimeCoeff[C][Grp][M] +=
            G * Cat.Data.TimePerInvocation[To][M];
      }
    }
  }
  for (int G = 0; G < NumGroups; ++G)
    for (int M = 0; M < NumModes; ++M)
      P.setCost(K[G][M], EnergyCoeff[G][M]);

  // Transition variables: one (e, t) pair per unordered group pair that
  // appears in some local path. Weights: objective gets CE * sum_g
  // p_g * D_g; each category's deadline row gets CT * D_g.
  struct PairData {
    int EVar = -1;
    int TVar = -1;
    std::vector<double> CatCount; // per category D sum
  };
  std::map<std::pair<int, int>, PairData> Pairs;

  std::map<CfgEdge, int> EdgeIndex;
  for (int I = 0; I < NumEdges; ++I)
    EdgeIndex[Edges[I]] = I;

  for (int C = 0; C < NumCats; ++C) {
    for (const auto &[Path, D] : Categories[C].Data.PathCounts) {
      auto [H, I, J] = Path;
      auto ItIn = EdgeIndex.find({H, I});
      auto ItOut = EdgeIndex.find({I, J});
      assert(ItIn != EdgeIndex.end() && ItOut != EdgeIndex.end() &&
             "profiled path not in CFG");
      int G1 = GroupOf[ItIn->second];
      int G2 = GroupOf[ItOut->second];
      if (G1 == G2)
        continue; // same group -> same mode -> silent mode-set
      auto Key = std::minmax(G1, G2);
      PairData &PD = Pairs[{Key.first, Key.second}];
      if (PD.CatCount.empty())
        PD.CatCount.assign(NumCats, 0.0);
      PD.CatCount[C] += static_cast<double>(D);
    }
  }

  const double CE = Transitions.energyConstant();
  const double CT = Transitions.timeConstant();
  for (auto &[Key, PD] : Pairs) {
    double ObjWeight = 0.0;
    for (int C = 0; C < NumCats; ++C)
      ObjWeight += Categories[C].Probability * PD.CatCount[C] * CE;
    PD.EVar = P.addVariable(0.0, lpInf(), ObjWeight,
                            "e_" + std::to_string(Key.first) + "_" +
                                std::to_string(Key.second));
    PD.TVar = P.addVariable(0.0, lpInf(), 0.0,
                            "t_" + std::to_string(Key.first) + "_" +
                                std::to_string(Key.second));
    // |sum_m (k1m - k2m) Vm^2| <= e ; |sum_m (k1m - k2m) Vm| <= t.
    std::vector<LpTerm> SqTermsMinus, SqTermsPlus, VTermsMinus, VTermsPlus;
    for (int M = 0; M < NumModes; ++M) {
      double V = Modes.level(M).Volts;
      double V2 = V * V;
      SqTermsMinus.push_back({K[Key.first][M], V2});
      SqTermsMinus.push_back({K[Key.second][M], -V2});
      VTermsMinus.push_back({K[Key.first][M], V});
      VTermsMinus.push_back({K[Key.second][M], -V});
    }
    SqTermsPlus = SqTermsMinus;
    VTermsPlus = VTermsMinus;
    SqTermsMinus.push_back({PD.EVar, -1.0});
    P.addRow(RowSense::LE, 0.0, SqTermsMinus); // diff - e <= 0
    SqTermsPlus.push_back({PD.EVar, 1.0});
    P.addRow(RowSense::GE, 0.0, SqTermsPlus); // diff + e >= 0
    VTermsMinus.push_back({PD.TVar, -1.0});
    P.addRow(RowSense::LE, 0.0, VTermsMinus);
    VTermsPlus.push_back({PD.TVar, 1.0});
    P.addRow(RowSense::GE, 0.0, VTermsPlus);
  }

  // SOS1 rows: each group picks exactly one mode.
  for (int G = 0; G < NumGroups; ++G) {
    std::vector<LpTerm> Sum;
    for (int M = 0; M < NumModes; ++M)
      Sum.push_back({K[G][M], 1.0});
    P.addRow(RowSense::EQ, 1.0, Sum);
  }

  // The virtual entry edge is pinned to the machine's initial mode: the
  // OS sets the voltage before launch, and the paper does not let the
  // program choose its entry operating point for free.
  for (int M = 0; M < NumModes; ++M) {
    int Var = K[GroupOf[0]][M];
    double Fix = M == Opts.InitialMode ? 1.0 : 0.0;
    P.setBounds(Var, Fix, Fix);
  }

  // Deadline row per category.
  for (int C = 0; C < NumCats; ++C) {
    std::vector<LpTerm> Row;
    for (int G = 0; G < NumGroups; ++G)
      for (int M = 0; M < NumModes; ++M)
        if (TimeCoeff[C][G][M] != 0.0)
          Row.push_back({K[G][M], TimeCoeff[C][G][M]});
    for (const auto &[Key, PD] : Pairs)
      if (PD.CatCount[C] > 0.0)
        Row.push_back({PD.TVar, CT * PD.CatCount[C]});
    P.addRow(RowSense::LE, DeadlineSeconds[C], Row);
  }

  // Solve.
  std::vector<int> Integers;
  for (auto &Group : K)
    Integers.insert(Integers.end(), Group.begin(), Group.end());
  std::string LpText;
  if (Opts.DumpLp)
    LpText = writeLpFormat(P, Integers);
  // Copy (problem, integer vars) before the solve: the solver owns its
  // own copy and mutates bounds while branching, so this snapshot is the
  // instance the certificate is checked against.
  std::shared_ptr<SolverArtifacts> Artifacts;
  if (Opts.KeepArtifacts) {
    Artifacts = std::make_shared<SolverArtifacts>();
    Artifacts->Problem = P;
    Artifacts->IntegerVars = Integers;
  }

  ScheduleResult R;
  R.NumVars = P.numVariables();
  R.NumRows = P.numRows();
  R.SolvedVars = R.NumVars;
  R.SolvedRows = R.NumRows;
  MilpSolver Solver(P, Integers, Opts.Milp);
  for (auto &Group : K)
    Solver.addSos1Group(Group);
  auto T0 = std::chrono::steady_clock::now();
  MilpSolution Sol = Solver.solve();
  auto T1 = std::chrono::steady_clock::now();
  R.SolveSeconds = std::chrono::duration<double>(T1 - T0).count();

  R.Status = Sol.Status;
  R.Nodes = Sol.Nodes;
  R.LpIterations = Sol.LpIterations;
  R.NumEdges = NumEdges - 1;
  R.NumIndependentGroups = NumGroups;
  R.NumBinaries = static_cast<int>(Integers.size());
  R.LpText = std::move(LpText);
  if (Artifacts) {
    Artifacts->Solution = Sol;
    R.Artifacts = Artifacts;
  }

  if (Sol.Status == MilpStatus::Infeasible)
    return makeError("deadline is infeasible for this program");
  if (Sol.Status == MilpStatus::Unbounded ||
      Sol.Status == MilpStatus::Limit)
    return makeError("MILP search failed: " +
                     std::string(milpStatusName(Sol.Status)));

  R.PredictedEnergyJoules = Sol.Objective;

  // Decode modes. Groups that never executed in any profile carry no
  // objective or deadline weight, so the solver's choice for them is
  // arbitrary; pin them to the slowest mode (no profile evidence ->
  // assume not time-critical). This is what makes cross-category
  // profile mismatch observable, exactly as in the paper's Section 6.4:
  // a no-B-frames profile leaves the B-frame paths at the lowest speed.
  std::vector<bool> GroupProfiled(NumGroups, false);
  for (int G = 0; G < NumGroups; ++G)
    for (int M = 0; M < NumModes && !GroupProfiled[G]; ++M)
      if (EnergyCoeff[G][M] != 0.0)
        GroupProfiled[G] = true;
  auto modeOfGroup = [&](int G) {
    if (!GroupProfiled[G])
      return 0;
    int Best = 0;
    double BestVal = -1.0;
    for (int M = 0; M < NumModes; ++M) {
      if (Sol.X[K[G][M]] > BestVal) {
        BestVal = Sol.X[K[G][M]];
        Best = M;
      }
    }
    return Best;
  };
  R.Assignment.InitialMode = modeOfGroup(GroupOf[0]);
  assert(R.Assignment.InitialMode == Opts.InitialMode &&
         "entry mode must honor the pin");
  for (int E = 1; E < NumEdges; ++E)
    R.Assignment.EdgeMode[Edges[E]] = modeOfGroup(GroupOf[E]);
  return R;
}
