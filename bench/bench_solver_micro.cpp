//===- bench/bench_solver_micro.cpp - solver microbenchmarks ---------------===//
//
// google-benchmark timings of the from-scratch substrates: the dense
// bounded-variable simplex, the branch-and-bound MILP (warm-started and
// cold), the cycle-level simulator, and end-to-end
// DVS scheduling. These are the pieces whose wall-clock cost the paper's
// Figures 14/18 measure; the microbenches track their throughput across
// instance sizes. Results print as google-benchmark JSON on stdout, or
// into --benchmark_out=FILE (BENCH_solver.json is one such deliberate
// run).
//
//===----------------------------------------------------------------------===//

#include "../tests/common/RandomMilp.h"
#include "BenchCommon.h"
#include "support/ArgParse.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace cdvs;
using namespace cdvs::bench;
using testutil::makeModeAssignment;
using testutil::makeRandomLp;
using testutil::ModeAssignmentCase;

namespace {

void BM_SimplexDense(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  LpProblem P = makeRandomLp(N, N / 2, 42);
  for (auto _ : State) {
    LpSolution S = solveLp(P);
    benchmark::DoNotOptimize(S.Objective);
  }
}
BENCHMARK(BM_SimplexDense)->Arg(20)->Arg(60)->Arg(120)->Arg(240);

/// Warm re-solve throughput: one engine, a bound toggled per iteration.
/// The cold equivalent is BM_SimplexDense — here only a few dual pivots
/// run per solve.
void BM_SimplexWarmResolve(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  LpProblem P = makeRandomLp(N, N / 2, 42);
  SimplexEngine Engine(P);
  benchmark::DoNotOptimize(Engine.solve().Objective);
  double Hi = P.upperBound(0);
  bool Shrunk = false;
  for (auto _ : State) {
    Shrunk = !Shrunk;
    Engine.setBounds(0, 0.0, Shrunk ? 0.25 * Hi : Hi);
    LpSolution S = Engine.solve();
    benchmark::DoNotOptimize(S.Objective);
  }
}
BENCHMARK(BM_SimplexWarmResolve)->Arg(20)->Arg(60)->Arg(120)->Arg(240);

/// Solves one mode-assignment instance with the given options.
double solveModeAssignment(const ModeAssignmentCase &C,
                           const MilpOptions &Opts) {
  MilpSolver S(C.P, C.Integers, Opts);
  for (const auto &G : C.Groups)
    S.addSos1Group(G);
  return S.solve().Objective;
}

/// Mode-assignment MILP with the historical mid-range deadline
/// (tightness 0.5): the rounding heuristic proves optimality at the
/// root, so this tracks root-LP + heuristic cost, not tree search.
void BM_MilpModeAssignment(benchmark::State &State) {
  int Groups = static_cast<int>(State.range(0));
  ModeAssignmentCase C = makeModeAssignment(Groups, 0.5, 7);
  for (auto _ : State)
    benchmark::DoNotOptimize(solveModeAssignment(C, MilpOptions()));
}
BENCHMARK(BM_MilpModeAssignment)->Arg(6)->Arg(12)->Arg(24);

/// Tight-deadline mode assignment: range(1) is the deadline tightness in
/// percent. Tight deadlines force real branch-and-bound trees (tens to
/// hundreds of nodes), which is where warm-started node LPs pay off.
void BM_MilpTightDeadline(benchmark::State &State) {
  ModeAssignmentCase C = makeModeAssignment(
      static_cast<int>(State.range(0)),
      static_cast<double>(State.range(1)) / 100.0, 7);
  for (auto _ : State)
    benchmark::DoNotOptimize(solveModeAssignment(C, MilpOptions()));
}
BENCHMARK(BM_MilpTightDeadline)
    ->Args({24, 15})
    ->Args({24, 5})
    ->Args({48, 10});

/// The same instances with warm starting disabled: every node runs the
/// cold two-phase simplex, which is what the solver did before the
/// persistent-engine rework. The ratio to BM_MilpTightDeadline is the
/// warm-start speedup.
void BM_MilpColdStart(benchmark::State &State) {
  ModeAssignmentCase C = makeModeAssignment(
      static_cast<int>(State.range(0)),
      static_cast<double>(State.range(1)) / 100.0, 7);
  MilpOptions O;
  O.WarmStart = false;
  for (auto _ : State)
    benchmark::DoNotOptimize(solveModeAssignment(C, O));
}
BENCHMARK(BM_MilpColdStart)->Args({24, 15})->Args({24, 5})->Args({48, 10});

void BM_SimulatorThroughput(benchmark::State &State) {
  Workload W = workloadByName("gsm");
  Simulator Sim(*W.Fn);
  W.defaultInput().Setup(Sim);
  uint64_t Insts = 0;
  for (auto _ : State) {
    RunStats S = Sim.runAtLevel({1.65, 800e6});
    Insts += S.Instructions;
    benchmark::DoNotOptimize(S.EnergyJoules);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

void BM_ProfileCollection(benchmark::State &State) {
  Workload W = workloadByName("ghostscript");
  Simulator Sim(*W.Fn);
  W.defaultInput().Setup(Sim);
  ModeTable Modes = ModeTable::xscale3();
  for (auto _ : State) {
    Profile P = collectProfile(Sim, Modes);
    benchmark::DoNotOptimize(P.TotalTimeAtMode[0]);
  }
}
BENCHMARK(BM_ProfileCollection)->Unit(benchmark::kMillisecond);

void BM_EndToEndSchedule(benchmark::State &State) {
  Workload W = workloadByName("mpeg_decode");
  auto Sim = makeSimulator(W, W.defaultInput());
  ModeTable Modes = ModeTable::xscale3();
  TransitionModel Reg = TransitionModel::paperTypical();
  Profile Prof = collectProfile(*Sim, Modes);
  double Deadline =
      0.5 * (Prof.TotalTimeAtMode.front() + Prof.TotalTimeAtMode.back());
  for (auto _ : State) {
    DvsOptions O;
    O.InitialMode = 2;
    DvsScheduler Sched(*W.Fn, Prof, Modes, Reg, O);
    ErrorOr<ScheduleResult> R = Sched.schedule(Deadline);
    benchmark::DoNotOptimize(R.hasValue());
  }
}
BENCHMARK(BM_EndToEndSchedule)->Unit(benchmark::kMillisecond);

} // namespace

// Like BENCHMARK_MAIN(), but prints the results as JSON on stdout unless
// --benchmark_out=FILE names a file, so no run overwrites a tracked
// record by accident. Unrecognized --benchmark_* flags pass through to
// google-benchmark untouched.
int main(int argc, char **argv) {
  ArgParser P("bench_solver_micro",
              "google-benchmark microbenches of the simplex, MILP, "
              "simulator, and end-to-end scheduling substrates");
  std::string &Out = P.addString("benchmark_out", "",
                                 "results file (google-benchmark); empty prints to stdout");
  std::string &Format = P.addString("benchmark_out_format", "json",
                                    "results format (google-benchmark)");
  P.allowUnknown(true);
  if (!P.parseOrExit(argc, argv))
    return 0;

  // Rebuild an argv for benchmark::Initialize from the parsed values (so
  // the defaults apply) plus every pass-through --benchmark_* flag.
  std::vector<std::string> Rebuilt;
  Rebuilt.push_back(argv[0]);
  if (Out.empty()) {
    Rebuilt.push_back("--benchmark_format=" + Format);
  } else {
    Rebuilt.push_back("--benchmark_out=" + Out);
    Rebuilt.push_back("--benchmark_out_format=" + Format);
  }
  for (const std::string &A : P.unparsed())
    Rebuilt.push_back(A);
  std::vector<char *> Args;
  for (std::string &A : Rebuilt)
    Args.push_back(A.data());
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
