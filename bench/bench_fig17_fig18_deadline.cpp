//===- bench/bench_fig17_fig18_deadline.cpp - Figures 17 & 18 -------------===//
//
// Regenerates the deadline study of Section 6.3 (c = 10 uF):
//  * Figure 17 — schedule energy per deadline, normalized to the best
//    single-frequency setting that meets that deadline (moving from the
//    stringent Deadline 1 to the lax Deadline 5 cuts energy by ~2x or
//    more in absolute terms; the normalized value shows where the MILP
//    beats any single setting);
//  * Figure 18 — MILP solution time per deadline (mid-range deadlines
//    are the hard ones: all three modes compete).
// Absolute schedule energy (uJ) is printed too, making the factor-of-2+
// absolute trend of the paper visible directly.
//
// The 6 x 5 benchmark/deadline grid is embarrassingly parallel: profiles
// are collected once per workload, then every point gets its own
// simulator and scheduler and the grid is swept with parallelFor.
// --threads=N overrides the sweep width (default: one per core); each
// point's MILP runs single-threaded to avoid oversubscription.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/ArgParse.h"
#include "support/ThreadPool.h"
#include "verify/CertificateChecker.h"

#include <atomic>
#include <cstdio>

using namespace cdvs;
using namespace cdvs::bench;

namespace {

struct Point {
  std::string Norm = "-", Abs = "-", Solve = "-";
};

} // namespace

int main(int argc, char **argv) {
  ArgParser P("bench_fig17_fig18_deadline",
              "Figures 17/18: schedule energy and MILP solution time "
              "across the deadline ladder");
  int &Threads =
      P.addInt("threads", 0, "sweep width; 0 = one per core");
  if (!P.parseOrExit(argc, argv))
    return 0;
  int SweepThreads = resolveThreads(Threads);

  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Regulator = TransitionModel::paperTypical();

  // Phase 1 (serial): profiles and deadline ladders per workload.
  std::vector<std::string> Names = milpBenchmarks();
  int NumW = static_cast<int>(Names.size());
  std::vector<Profile> Profiles(NumW);
  std::vector<std::vector<double>> Deadlines(NumW);
  for (int WI = 0; WI < NumW; ++WI) {
    Workload W = workloadByName(Names[WI]);
    auto Sim = makeSimulator(W, W.defaultInput());
    Profiles[WI] = collectProfile(*Sim, Modes);
    Deadlines[WI] = fiveDeadlines(Profiles[WI]);
  }

  // Phase 2 (parallel): one schedule + simulated run per grid point.
  // Every point builds its own simulator; Simulator::run mutates state.
  const int PerW = 5;
  std::vector<Point> Grid(NumW * PerW);
  std::atomic<long> Certified{0};
  parallelFor(NumW * PerW, SweepThreads, [&](int Idx) {
    int WI = Idx / PerW, DI = Idx % PerW;
    Workload W = workloadByName(Names[WI]);
    auto Sim = makeSimulator(W, W.defaultInput());
    const Profile &Prof = Profiles[WI];
    double Deadline = Deadlines[WI][DI];

    DvsOptions O;
    O.InitialMode = static_cast<int>(Modes.size()) - 1;
    O.KeepArtifacts = true;
    DvsScheduler Sched(*W.Fn, Prof, Modes, Regulator, O);
    ErrorOr<ScheduleResult> R = Sched.schedule(Deadline);
    if (!R)
      return;
    // Every solved point must pass the independent MILP certificate.
    verify::Certificate Cert = verify::checkCertificate(
        R->Artifacts->Problem, R->Artifacts->IntegerVars,
        R->Artifacts->Solution);
    if (!Cert.Checked || !Cert.R.ok() || Cert.MaxRowViolation >= 1e-6)
      cdvsUnreachable(("MILP certificate failed for " + Names[WI] +
                       ": " + Cert.R.firstError())
                          .c_str());
    Certified.fetch_add(1, std::memory_order_relaxed);
    RunStats Run = Sim->run(Modes, R->Assignment, Regulator);
    double BestSingle = -1.0;
    for (size_t M = 0; M < Modes.size(); ++M)
      if (Prof.TotalTimeAtMode[M] <= Deadline &&
          (BestSingle < 0.0 || Prof.TotalEnergyAtMode[M] < BestSingle))
        BestSingle = Prof.TotalEnergyAtMode[M];
    Point &Pt = Grid[Idx];
    Pt.Norm = BestSingle > 0.0
                  ? formatDouble(Run.EnergyJoules / BestSingle, 3)
                  : "n/a";
    Pt.Abs = formatDouble(Run.EnergyJoules * 1e6, 1);
    Pt.Solve = formatDouble(R->SolveSeconds * 1e3, 2);
  });

  Table TNorm({"benchmark", "D1", "D2", "D3", "D4", "D5"});
  Table TAbs = TNorm;
  Table TSolve = TNorm;
  for (int WI = 0; WI < NumW; ++WI) {
    std::vector<std::string> RowN = {Names[WI]}, RowA = {Names[WI]},
                             RowS = {Names[WI]};
    for (int DI = 0; DI < PerW; ++DI) {
      const Point &Pt = Grid[WI * PerW + DI];
      RowN.push_back(Pt.Norm);
      RowA.push_back(Pt.Abs);
      RowS.push_back(Pt.Solve);
    }
    TNorm.addRow(RowN);
    TAbs.addRow(RowA);
    TSolve.addRow(RowS);
  }

  std::printf("== Figure 17: schedule energy / best single frequency "
              "meeting the deadline ==\n");
  TNorm.print();
  std::printf("\n== Figure 17 (absolute): schedule energy in uJ ==\n");
  TAbs.print();
  std::printf("\n== Figure 18: MILP solution time (ms) per deadline "
              "==\n");
  TSolve.print();
  std::printf("\n(%ld/%d solved points passed the independent MILP "
              "certificate check)\n",
              Certified.load(), NumW * PerW);
  return 0;
}
