//===- e2ebench/Checks.cpp - Output checks made outside the program -------===//

#include "Checks.h"

#include "dvs/ScheduleIO.h"
#include "power/TransitionModel.h"
#include "power/VfModel.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace e2e {

using namespace cdvs;

void parallelFor(size_t N, int Threads,
                 const std::function<void(size_t)> &Body) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < std::max(1, Threads); ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Body(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

ModeTable modeTableFor(int Levels) {
  return Levels == 0 ? ModeTable::xscale3()
                     : ModeTable::evenVoltageLevels(Levels, 0.7, 1.65,
                                                    VfModel::paperDefault());
}

const Workload &workload(const std::string &Name) {
  static const std::map<std::string, Workload> All = [] {
    std::map<std::string, Workload> M;
    for (Workload &W : allWorkloads())
      M.emplace(W.Name, std::move(W));
    return M;
  }();
  auto It = All.find(Name);
  if (It == All.end())
    throw std::runtime_error("unknown program " + Name);
  return It->second;
}

const WorkloadInput &inputOf(const Workload &W, const std::string &Name) {
  return Name.empty() ? W.defaultInput() : W.input(Name);
}

namespace {

/// Inputs and normalized weights of a single-program request.
std::vector<std::pair<std::string, double>>
categoriesOf(const JobRequest &J) {
  std::vector<std::pair<std::string, double>> C;
  double Sum = 0.0;
  for (const JobCategory &Cat : J.Categories)
    Sum += Cat.Weight;
  for (const JobCategory &Cat : J.Categories)
    C.push_back({Cat.Input, Cat.Weight / Sum});
  if (C.empty())
    C.push_back({"", 1.0});
  return C;
}

RunStats simulate(const std::string &Workload, const std::string &Input,
                  const ModeTable &Modes, const ModeAssignment &MA,
                  const TransitionModel &Tr) {
  const cdvs::Workload &W = workload(Workload);
  Simulator Sim(*W.Fn);
  inputOf(W, Input).Setup(Sim);
  return Sim.run(Modes, MA, Tr);
}

bool within(double Got, double Want, double Rel, double Abs = 0.0) {
  return std::fabs(Got - Want) <= Rel * std::fabs(Want) + Abs;
}

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

/// A served task plan, read by the benchmark's own parser.
struct PlanTask {
  std::string Name;
  int Mode = -1;
  double Start = 0.0, Finish = 0.0;
};
struct Plan {
  std::vector<PlanTask> Tasks;
  double StaticEnergy = -1.0, ActualEnergy = -1.0, Makespan = -1.0;
};

bool parsePlan(const std::string &Text, Plan &P, std::string &Why) {
  std::istringstream In(Text);
  std::string Line;
  long SkipLog = 0;
  bool Ended = false;
  while (std::getline(In, Line)) {
    if (SkipLog > 0) {
      --SkipLog;
      continue;
    }
    std::istringstream L(Line);
    std::string Tag;
    L >> Tag;
    if (Tag == "task") {
      PlanTask T;
      std::string K1, K2, K3;
      L >> T.Name >> K1 >> T.Mode >> K2 >> T.Start >> K3 >> T.Finish;
      if (!L || K1 != "mode" || K2 != "start" || K3 != "finish") {
        Why = "malformed task line: " + Line;
        return false;
      }
      P.Tasks.push_back(T);
    } else if (Tag == "log") {
      L >> SkipLog;
    } else if (Tag == "static_energy") {
      L >> P.StaticEnergy;
    } else if (Tag == "actual_energy") {
      L >> P.ActualEnergy;
    } else if (Tag == "makespan") {
      L >> P.Makespan;
    } else if (Tag == "end") {
      Ended = true;
    }
  }
  if (!Ended || P.StaticEnergy < 0 || P.ActualEnergy < 0) {
    Why = "truncated task plan";
    return false;
  }
  return true;
}

/// Longest path through \p G with every task at mode \p Mode.
double criticalPath(const taskgraph::TaskGraph &G,
                    const std::vector<const ModeRuns *> &Costs, int Mode) {
  // Canned graphs list edges between earlier and later nodes, but do
  // not rely on it: relax to a fixed point (graphs have <= 8 nodes).
  std::vector<double> Finish(G.Nodes.size(), 0.0);
  for (size_t I = 0; I < G.Nodes.size(); ++I)
    Finish[I] = Costs[I]->Time[Mode];
  for (size_t Round = 0; Round < G.Nodes.size(); ++Round)
    for (auto [A, B] : G.Edges)
      Finish[B] = std::max(Finish[B], Finish[A] + Costs[B]->Time[Mode]);
  return *std::max_element(Finish.begin(), Finish.end());
}

} // namespace

std::vector<ProgramKey> programKeys(const JobRequest &J) {
  std::vector<ProgramKey> Keys;
  auto add = [&](const std::string &W, const std::string &In) {
    Keys.push_back({W, inputOf(workload(W), In).Name, J.NumLevels});
  };
  if (J.Graph) {
    for (const taskgraph::TaskNode &N : J.Graph->Nodes)
      add(N.Workload, N.Input);
  } else if (J.Categories.empty()) {
    add(J.Workload, "");
  } else {
    for (const JobCategory &C : J.Categories)
      add(J.Workload, C.Input);
  }
  return Keys;
}

void Reference::want(const std::vector<BenchRequest> &Requests) {
  for (const BenchRequest &B : Requests)
    for (const ProgramKey &Key : programKeys(B.Job))
      Runs[Key];
}

void Reference::compute(int Threads) {
  // One task per (key, mode).
  std::vector<std::pair<const ProgramKey *, int>> Tasks;
  for (auto &[Key, R] : Runs) {
    int K = static_cast<int>(modeTableFor(Key.Levels).size());
    R.Time.assign(K, 0.0);
    R.Energy.assign(K, 0.0);
    for (int M = 0; M < K; ++M)
      Tasks.push_back({&Key, M});
  }
  parallelFor(Tasks.size(), Threads, [&](size_t I) {
    const auto &[Key, M] = Tasks[I];
    RunStats S = simulate(Key->Workload, Key->Input, modeTableFor(Key->Levels),
                          ModeAssignment::uniform(M),
                          TransitionModel::paperTypical());
    ModeRuns &R = Runs.at(*Key);
    R.Time[M] = S.TimeSeconds;
    R.Energy[M] = S.EnergyJoules;
  });
}

const ModeRuns &Reference::at(const std::string &Workload,
                              const std::string &Input, int Levels) const {
  return Runs.at({Workload, inputOf(workload(Workload), Input).Name, Levels});
}

Verdict checkSingle(const BenchRequest &Req, const JobResult &R,
                    const Reference &Ref) {
  const JobRequest &J = Req.Job;
  Verdict V;
  auto fail = [&](const std::string &Why) {
    V.Ok = false;
    V.Why = Req.Label + ": " + Why;
    return V;
  };
  ModeTable Modes = modeTableFor(J.NumLevels);
  int K = static_cast<int>(Modes.size());
  TransitionModel Tr(J.CapacitanceF, 0.9, 1.0);
  ErrorOr<ModeAssignment> MA = readSchedule(R.ScheduleText, K);
  if (!MA)
    return fail("unreadable schedule: " + MA.message());

  // Re-simulate every category first, so energy_ratio sees the answer
  // even when a check below rejects it.
  std::vector<std::pair<std::string, double>> Cats = categoriesOf(J);
  double Energy = 0.0;
  std::vector<double> Deadline(Cats.size());
  std::string Late;
  for (size_t C = 0; C < Cats.size(); ++C) {
    const ModeRuns &MR = Ref.at(J.Workload, Cats[C].first, J.NumLevels);
    double TFast = MR.Time[K - 1], TSlow = MR.Time[0];
    Deadline[C] = J.DeadlineSeconds > 0.0
                      ? J.DeadlineSeconds
                      : TFast + J.DeadlineTightness * (TSlow - TFast);
    RunStats S = simulate(J.Workload, Cats[C].first, Modes, *MA, Tr);
    if (!S.Completed)
      return fail("re-simulation hit the instruction cap");
    if (Late.empty() && S.TimeSeconds > Deadline[C] * (1.0 + kDeadlineTol))
      Late = "category " + std::to_string(C) + " takes " +
             num(S.TimeSeconds) + " s, past its deadline " +
             num(Deadline[C]) + " s";
    Energy += Cats[C].second * S.EnergyJoules;
  }

  // A single-mode schedule starts in the initial mode and switches once,
  // so mode M counts as feasible when its run plus that switch fits. Its
  // energy is allowed one switch across the whole table on top, which
  // also covers the stretch run in the initial mode before the switch.
  double VInit = Modes.level(MA->InitialMode).Volts;
  double Best = -1.0;
  for (int M = 0; M < K; ++M) {
    double SwitchTime = Tr.switchTime(VInit, Modes.level(M).Volts);
    bool Meets = true;
    double E = 0.0;
    for (size_t C = 0; C < Cats.size(); ++C) {
      const ModeRuns &MR = Ref.at(J.Workload, Cats[C].first, J.NumLevels);
      Meets = Meets && MR.Time[M] + SwitchTime <= Deadline[C];
      E += Cats[C].second * MR.Energy[M];
    }
    if (Meets && (Best < 0.0 || E < Best))
      Best = E;
  }
  if (Best > 0.0)
    V.Ratio = Energy / Best;
  V.Energy = Energy;
  if (!Late.empty())
    return fail(Late);
  if (Best <= 0.0)
    return fail("no single mode meets the deadline");
  double Switch = Tr.switchEnergy(Modes.minVoltage(), Modes.maxVoltage());
  if (Energy > Best + Switch)
    return fail("energy " + num(Energy) + " J exceeds best single mode " +
                num(Best) + " J plus one switch " + num(Switch) + " J");
  // Wire answers carry the energy to 1e-3 uJ; allow that rounding.
  if (!within(R.PredictedEnergyJoules, Energy, 1e-6, 5e-10))
    return fail("claimed energy " + num(R.PredictedEnergyJoules) +
                " J, re-simulated " + num(Energy) + " J");
  return V;
}

Verdict checkGraph(const BenchRequest &Req, const JobResult &R,
                   const Reference &Ref) {
  const taskgraph::TaskGraph &G = *Req.Job.Graph;
  Verdict V;
  auto fail = [&](const std::string &Why) {
    V.Ok = false;
    V.Why = Req.Label + ": " + Why;
    return V;
  };
  Plan P;
  std::string Why;
  if (!parsePlan(R.ScheduleText, P, Why))
    return fail(Why);
  if (P.Tasks.size() != G.Nodes.size())
    return fail("plan has " + std::to_string(P.Tasks.size()) +
                " tasks, graph " + std::to_string(G.Nodes.size()));
  int K = static_cast<int>(modeTableFor(Req.Job.NumLevels).size());
  std::vector<const ModeRuns *> Costs;
  for (const taskgraph::TaskNode &N : G.Nodes)
    Costs.push_back(&Ref.at(N.Workload, N.Input, Req.Job.NumLevels));
  double TFast = criticalPath(G, Costs, K - 1);
  double TSlow = criticalPath(G, Costs, 0);
  double Deadline = G.DeadlineSeconds > 0.0
                        ? G.DeadlineSeconds
                        : TFast + G.DeadlineTightness * (TSlow - TFast);

  double Actual = 0.0, Makespan = 0.0;
  for (size_t I = 0; I < G.Nodes.size(); ++I) {
    const PlanTask &T = P.Tasks[I];
    if (T.Name != G.Nodes[I].Name)
      return fail("task " + std::to_string(I) + " is '" + T.Name + "'");
    if (T.Mode < 0 || T.Mode >= K)
      return fail("task " + T.Name + " has mode " + std::to_string(T.Mode));
    double Dur = Costs[I]->Time[T.Mode] * G.Nodes[I].ActualFactor;
    if (T.Start < 0.0 || !within(T.Finish - T.Start, Dur, 1e-6, 1e-12))
      return fail("task " + T.Name + " runs " + num(T.Finish - T.Start) +
                  " s, its mode takes " + num(Dur) + " s");
    Actual += Costs[I]->Energy[T.Mode] * G.Nodes[I].ActualFactor;
    Makespan = std::max(Makespan, T.Finish);
  }
  for (auto [A, B] : G.Edges)
    if (P.Tasks[B].Start < P.Tasks[A].Finish * (1.0 - 1e-9))
      return fail("task " + P.Tasks[B].Name + " starts before " +
                  P.Tasks[A].Name + " finishes");
  if (Makespan > Deadline * (1.0 + kDeadlineTol))
    return fail("makespan " + num(Makespan) + " s > deadline " +
                num(Deadline) + " s");
  if (!within(P.ActualEnergy, Actual, 1e-6))
    return fail("claimed actual energy " + num(P.ActualEnergy) +
                " J, recomputed " + num(Actual) + " J");
  if (Actual > P.StaticEnergy * (1.0 + 1e-9))
    return fail("online energy " + num(Actual) + " J > static plan " +
                num(P.StaticEnergy) + " J");
  return V;
}

namespace {

/// \returns the answer with one hot edge forced to the slowest mode.
JobResult slowestEdge(const BenchRequest &Req, JobResult R) {
  const JobRequest &J = Req.Job;
  ModeTable Modes = modeTableFor(J.NumLevels);
  ErrorOr<ModeAssignment> MA =
      readSchedule(R.ScheduleText, static_cast<int>(Modes.size()));
  if (!MA)
    return R;
  std::string In =
      J.Categories.empty() ? std::string() : J.Categories.front().Input;
  RunStats S = simulate(J.Workload, In, Modes, *MA,
                        TransitionModel(J.CapacitanceF, 0.9, 1.0));
  // The hottest edge that sets a mode other than the slowest, so the
  // change is sure to alter execution; with no such edge everything runs
  // in the (fastest) initial mode and the hottest edge will do.
  CfgEdge Hot{-1, -1};
  uint64_t Most = 0;
  bool HotSets = false;
  for (const auto &[E, N] : S.EdgeCounts) {
    auto It = MA->EdgeMode.find(E);
    bool Sets = It != MA->EdgeMode.end() && It->second != 0;
    if ((Sets && !HotSets) || (Sets == HotSets && N > Most)) {
      Hot = E;
      Most = N;
      HotSets = Sets;
    }
  }
  MA->EdgeMode[Hot] = 0;
  R.ScheduleText = writeSchedule(*MA);
  return R;
}

/// \returns the graph answer with the two ends of its first edge run
/// in swapped order: the successor starts where the predecessor started
/// and the predecessor follows it. Durations, modes, energy and makespan
/// stay as they were, so only precedence is broken.
JobResult swappedTimeline(const BenchRequest &Req, JobResult R) {
  const taskgraph::TaskGraph &G = *Req.Job.Graph;
  Plan P;
  std::string Why;
  if (G.Edges.empty() || !parsePlan(R.ScheduleText, P, Why) ||
      P.Tasks.size() != G.Nodes.size())
    return R;
  auto [A, B] = G.Edges.front();
  const PlanTask &TA = P.Tasks[A], &TB = P.Tasks[B];
  double BStart = TA.Start, BFinish = TA.Start + (TB.Finish - TB.Start);
  double AStart = BFinish, AFinish = BFinish + (TA.Finish - TA.Start);
  auto timeline = [](double S, double F) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), " start %.17g finish %.17g", S, F);
    return std::string(Buf);
  };
  std::istringstream In(R.ScheduleText);
  std::string Out;
  for (std::string L; std::getline(In, L);) {
    for (auto [Name, S, F] : {std::tuple{TA.Name, AStart, AFinish},
                              std::tuple{TB.Name, BStart, BFinish}}) {
      if (L.rfind("task " + Name + " ", 0) != 0)
        continue;
      size_t From = L.find(" start "), To = L.find(" actual ");
      L.replace(From, To - From, timeline(S, F));
    }
    Out += L + "\n";
  }
  R.ScheduleText = Out;
  return R;
}

} // namespace

CheckSummary checkRun(const RunRecord &Run, int Threads) {
  CheckSummary S;
  Reference Ref;
  Ref.want(Run.List);
  Ref.compute(Threads);

  std::vector<size_t> Todo;
  for (size_t I = 0; I < Run.List.size(); ++I)
    if (Run.HaveAnswer[I] && Run.Answers[I].Status == JobStatus::Done)
      Todo.push_back(I);
  std::vector<Verdict> Verdicts(Todo.size());
  parallelFor(Todo.size(), Threads, [&](size_t K) {
    const BenchRequest &Req = Run.List[Todo[K]];
    const JobResult &R = Run.Answers[Todo[K]];
    Verdicts[K] = Req.Job.Graph ? checkGraph(Req, R, Ref)
                                : checkSingle(Req, R, Ref);
  });

  double LogSum = 0.0;
  long Singles = 0;
  for (size_t K = 0; K < Todo.size(); ++K) {
    const Verdict &V = Verdicts[K];
    ++S.Checked;
    if (!V.Ok)
      S.Rejected.emplace(Todo[K], V.Why);
    if (V.Ratio > 0.0) {
      LogSum += std::log(V.Ratio);
      ++Singles;
    }
  }
  S.EnergyRatio = Singles ? std::exp(LogSum / Singles) : 0.0;

  // Predicted energy must not rise as the deadline loosens: no answer may
  // claim more than the cheapest answer at any tighter deadline (1e-9 J
  // absorbs the 1e-3 uJ rounding of wire answers on both sides).
  std::map<std::string, std::vector<std::pair<double, size_t>>> ByVariant;
  for (size_t I : Todo)
    if (!Run.List[I].Job.Graph)
      ByVariant[Run.List[I].Variant].push_back(
          {Run.List[I].Job.DeadlineTightness, I});
  for (auto &[Variant, Points] : ByVariant) {
    std::sort(Points.begin(), Points.end());
    double Min = 0.0, MinT = 0.0;
    for (size_t K = 0; K < Points.size(); ++K) {
      size_t I = Points[K].second;
      double E = Run.Answers[I].PredictedEnergyJoules;
      if (K > 0 && E > Min * (1.0 + kMonotoneTol) + 1e-9)
        S.Rejected.emplace(I, Run.List[I].Label + ": energy " + num(E) +
                                  " J, but " + num(Min) +
                                  " J at the tighter t=" + num(MinT));
      if (K == 0 || E < Min) {
        Min = E;
        MinT = Points[K].first;
      }
    }
  }

  // Self-test: each doctored copy of an accepted answer must be rejected
  // by the check it targets, with the others kept satisfied where the
  // doctoring allows. The subjects are chosen by tightness and label, so
  // list order does not matter.
  const size_t None = Run.List.size();
  size_t Tightest = None, AnyGraph = None;
  auto before = [&](size_t A, size_t B) {
    return std::pair(Run.List[A].Job.DeadlineTightness, Run.List[A].Label) <
           std::pair(Run.List[B].Job.DeadlineTightness, Run.List[B].Label);
  };
  for (size_t I : Todo) {
    if (S.Rejected.count(I))
      continue;
    const JobRequest &J = Run.List[I].Job;
    if (J.Graph) {
      if (!J.Graph->Edges.empty() && (AnyGraph == None || before(I, AnyGraph)))
        AnyGraph = I;
    } else if (Tightest == None || before(I, Tightest)) {
      Tightest = I;
    }
  }
  auto expectReject = [&](const char *What, const Verdict &V,
                          const char *Reason) {
    if (V.Ok)
      S.SelfTest.push_back(std::string("self-test: accepted ") + What);
    else if (V.Why.find(Reason) == std::string::npos)
      S.SelfTest.push_back(std::string("self-test: ") + What +
                           " rejected for another reason: " + V.Why);
  };
  if (Tightest != None) {
    const BenchRequest &Req = Run.List[Tightest];
    // The slowed copy claims its own re-simulated energy, so only the
    // deadline can reject it.
    JobResult Slow = slowestEdge(Req, Run.Answers[Tightest]);
    Slow.PredictedEnergyJoules = checkSingle(Req, Slow, Ref).Energy;
    expectReject("a schedule with one hot edge at the slowest mode",
                 checkSingle(Req, Slow, Ref), "past its deadline");
    JobResult Wrong = Run.Answers[Tightest];
    Wrong.PredictedEnergyJoules *= 1.01;
    expectReject("a wrong claimed energy", checkSingle(Req, Wrong, Ref),
                 "claimed energy");
  }
  if (AnyGraph != None) {
    const BenchRequest &Req = Run.List[AnyGraph];
    expectReject("a swapped graph timeline",
                 checkGraph(Req, swappedTimeline(Req, Run.Answers[AnyGraph]),
                            Ref),
                 "starts before");
  }
  return S;
}

} // namespace e2e
