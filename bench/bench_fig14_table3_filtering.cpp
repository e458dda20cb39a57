//===- bench/bench_fig14_table3_filtering.cpp - Figure 14 & Table 3 -------===//
//
// Regenerates the edge-filtering study of Section 5.2:
//  * Figure 14 — MILP solution-time speedup when the low-energy-tail
//    edges are tied to their blocks' dominant incoming edges;
//  * Table 3 — the resulting schedule energy with the full edge set vs
//    the filtered subset (expected: essentially unchanged).
// Setup mirrors the paper: 6 MediaBench-class programs, c = 10 uF
// regulator, one mid-range deadline per program.
//
// The 6 x 2 benchmark/threshold grid is swept with parallelFor; each
// point gets its own simulator and a single-threaded MILP. --threads=N
// overrides the sweep width (default: one per core).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/ArgParse.h"
#include "support/ThreadPool.h"
#include "verify/CertificateChecker.h"

#include <cstdio>

using namespace cdvs;
using namespace cdvs::bench;

namespace {

struct Point {
  ScheduleResult R;
  double EnergyJoules = 0.0;
  double MaxRowViolation = 0.0;
};

} // namespace

int main(int argc, char **argv) {
  ArgParser P("bench_fig14_table3_filtering",
              "Figure 14 / Table 3: edge-filtering MILP speedup and "
              "schedule-energy impact");
  int &Threads =
      P.addInt("threads", 0, "sweep width; 0 = one per core");
  if (!P.parseOrExit(argc, argv))
    return 0;
  int SweepThreads = resolveThreads(Threads);

  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Regulator = TransitionModel::paperTypical();

  // Phase 1 (serial): per-workload profile and mid-range deadline.
  std::vector<std::string> Names = milpBenchmarks();
  int NumW = static_cast<int>(Names.size());
  std::vector<Profile> Profiles(NumW);
  std::vector<double> Deadlines(NumW);
  for (int WI = 0; WI < NumW; ++WI) {
    Workload W = workloadByName(Names[WI]);
    auto Sim = makeSimulator(W, W.defaultInput());
    Profiles[WI] = collectProfile(*Sim, Modes);
    Deadlines[WI] = 0.5 * (Profiles[WI].TotalTimeAtMode.front() +
                           Profiles[WI].TotalTimeAtMode.back());
  }

  // Phase 2 (parallel): each (workload, threshold) point schedules and
  // simulates independently. Threshold index 0 = full edge set, 1 =
  // filtered at the paper's 2%.
  const double Thresholds[2] = {0.0, 0.02};
  std::vector<Point> Grid(NumW * 2);
  parallelFor(NumW * 2, SweepThreads, [&](int Idx) {
    int WI = Idx / 2;
    Workload W = workloadByName(Names[WI]);
    auto Sim = makeSimulator(W, W.defaultInput());
    DvsOptions O;
    O.FilterThreshold = Thresholds[Idx % 2];
    O.InitialMode = static_cast<int>(Modes.size()) - 1;
    O.KeepArtifacts = true;
    DvsScheduler Sched(*W.Fn, Profiles[WI], Modes, Regulator, O);
    ErrorOr<ScheduleResult> R = Sched.schedule(Deadlines[WI]);
    if (!R)
      cdvsUnreachable(("mid deadline infeasible for " + Names[WI]).c_str());
    // Certify the MILP point independently of the solver: every
    // constraint row re-evaluated in compensated arithmetic.
    verify::Certificate Cert = verify::checkCertificate(
        R->Artifacts->Problem, R->Artifacts->IntegerVars,
        R->Artifacts->Solution);
    if (!Cert.Checked || !Cert.R.ok() || Cert.MaxRowViolation >= 1e-6)
      cdvsUnreachable(("MILP certificate failed for " + Names[WI] +
                       ": " + Cert.R.firstError())
                          .c_str());
    RunStats Run = Sim->run(Modes, R->Assignment, Regulator);
    Grid[Idx] = {*R, Run.EnergyJoules, Cert.MaxRowViolation};
  });

  std::printf("== Figure 14 / Table 3: edge filtering ==\n");
  Table T({"benchmark", "edges", "groups(all)", "groups(filt)",
           "solve(all) ms", "solve(filt) ms", "speedup",
           "energy(all) uJ", "energy(filt) uJ"});
  for (int WI = 0; WI < NumW; ++WI) {
    const Point &All = Grid[WI * 2], &Filt = Grid[WI * 2 + 1];
    T.addRow({Names[WI], formatInt(All.R.NumEdges),
              formatInt(All.R.NumIndependentGroups),
              formatInt(Filt.R.NumIndependentGroups),
              formatDouble(All.R.SolveSeconds * 1e3, 2),
              formatDouble(Filt.R.SolveSeconds * 1e3, 2),
              formatDouble(All.R.SolveSeconds /
                               std::max(Filt.R.SolveSeconds, 1e-9),
                           1),
              formatDouble(All.EnergyJoules * 1e6, 1),
              formatDouble(Filt.EnergyJoules * 1e6, 1)});
  }
  T.print();
  double WorstViolation = 0.0;
  for (const Point &Pt : Grid)
    WorstViolation = std::max(WorstViolation, Pt.MaxRowViolation);
  std::printf("\n(deadline: midpoint of slowest/fastest single-mode "
              "times; energies should match closely — paper Table 3)\n"
              "(all %d MILP solutions certified; worst scaled row "
              "violation %.3g)\n",
              NumW * 2, WorstViolation);
  return 0;
}
