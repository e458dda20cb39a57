//===- e2ebench/Layers.cpp - Per-layer probes for the traced run ----------===//
//
// Times direct calls into each module's public functions over a run's
// distinct requests, on one thread, after the timed phase. Spans come
// from here, around the calls; the program's own spans are not used.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"

#include "analysis/Analysis.h"
#include "cluster/Key.h"
#include "cluster/Ring.h"
#include "dvs/DvsScheduler.h"
#include "dvs/ScheduleIO.h"
#include "milp/Fingerprint.h"
#include "net/Wire.h"
#include "obs/Metrics.h"
#include "profile/Profile.h"
#include "service/JobIO.h"
#include "taskgraph/Online.h"
#include "taskgraph/Planner.h"
#include "verify/Verify.h"

#include <set>

namespace e2e {

using namespace cdvs;

namespace {

/// Running mean.
class Mean {
public:
  void add(double V) {
    Sum += V;
    ++N;
  }
  double get() const { return N ? Sum / N : 0.0; }

private:
  double Sum = 0.0;
  long N = 0;
};

template <typename F> double timeSec(F &&Fn) {
  auto T0 = Clock::now();
  Fn();
  return secondsBetween(T0, Clock::now());
}

/// Per-call seconds of \p Fn over \p Reps calls (for sub-microsecond
/// calls a single timing would be clock resolution).
template <typename F> double perCall(int Reps, F &&Fn) {
  return timeSec([&] {
           for (int I = 0; I < Reps; ++I)
             Fn();
         }) /
         Reps;
}

} // namespace

std::map<std::string, double> probeLayers(const RunRecord &Run,
                                          JobPath Path) {
  std::map<std::string, double> M;
  std::set<std::string> Programs;
  std::map<ProgramKey, std::shared_ptr<const Profile>> Profiles;
  for (const BenchRequest &B : Run.List)
    for (const ProgramKey &Key : programKeys(B.Job)) {
      Programs.insert(Key.Workload);
      Profiles[Key];
    }

  // workloads/ and analysis/: per program.
  Mean Build, Analyze;
  std::map<std::string, analysis::FunctionAnalysis> Analyses;
  // What a fresh service pays before solving (cold jobs): per program,
  // and per profile key.
  std::map<std::string, double> ColdMs;
  std::map<ProgramKey, double> CollectMs;
  for (const std::string &P : Programs) {
    double BuildSec = timeSec([&] { (void)workloadByName(P); });
    const Workload &W = workload(P);
    double AnalyzeSec = timeSec([&] {
      Analyses.emplace(P, analysis::analyzeFunction(*W.Fn));
    });
    Build.add(1e3 * BuildSec);
    Analyze.add(1e3 * AnalyzeSec);
    ColdMs[P] = 1e3 * (BuildSec + AnalyzeSec);
  }
  M["workloads.build_ms"] = Build.get();
  M["analysis.analyze_ms"] = Analyze.get();

  // profile/ and sim/: one collection per profile key, then one single
  // run at the fastest mode.
  obs::Counter &SimRuns = obs::metrics().counter(
      "cdvs_sim_runs_total", "Simulated executions completed");
  Mean Collect, SimRunsPer, RunMs, Instr;
  double InstrTotal = 0.0, RunSecTotal = 0.0;
  for (auto &[Key, P] : Profiles) {
    const Workload &W = workload(Key.Workload);
    ModeTable Modes = modeTableFor(Key.Levels);
    Simulator Sim(*W.Fn);
    inputOf(W, Key.Input).Setup(Sim);
    double Runs0 = SimRuns.value();
    double CollectSec = timeSec([&] {
      P = std::make_shared<const Profile>(collectProfile(Sim, Modes));
    });
    Collect.add(1e3 * CollectSec);
    CollectMs[Key] = 1e3 * CollectSec;
    SimRunsPer.add(SimRuns.value() - Runs0);
    RunStats S;
    double Sec = timeSec([&] { S = Sim.runAtLevel(Modes.level(Modes.size() - 1)); });
    RunMs.add(1e3 * Sec);
    Instr.add(static_cast<double>(S.Instructions));
    InstrTotal += static_cast<double>(S.Instructions);
    RunSecTotal += Sec;
  }
  M["profile.collect_ms"] = Collect.get();
  M["profile.sim_runs"] = SimRunsPer.get();
  M["sim.run_ms"] = RunMs.get();
  M["sim.instructions"] = Instr.get();
  M["sim.minstr_per_s"] = RunSecTotal > 0 ? InstrTotal / RunSecTotal / 1e6 : 0;

  // dvs/, milp/, verify/: every distinct single-program request, as the
  // service's pipeline calls them.
  Mean Fp, Sched, Nodes, Pivots, SVars, SRows, Fixed, Audit, Write, Read;
  // taskgraph/: every graph request.
  Mean Plan, Online, Replans;
  // Direct-call time per job of the list, for service.overhead_ms.
  double PathMsSum = 0.0;
  for (const BenchRequest &B : Run.List) {
    const JobRequest &J = B.Job;
    ModeTable Modes = modeTableFor(J.NumLevels);
    int K = static_cast<int>(Modes.size());
    TransitionModel Tr(J.CapacitanceF, 0.9, 1.0);
    std::vector<ProgramKey> Keys = programKeys(J);
    if (J.Graph) {
      const taskgraph::TaskGraph &G = *J.Graph;
      taskgraph::TaskCosts Costs;
      for (const ProgramKey &Key : Keys) {
        const Profile &P = *Profiles.at(Key);
        Costs.TimeAtMode.push_back(P.TotalTimeAtMode);
        Costs.EnergyAtMode.push_back(P.TotalEnergyAtMode);
      }
      double TFast = taskgraph::criticalPathSeconds(G, Costs, -1);
      double TSlow = taskgraph::criticalPathSeconds(G, Costs, 0);
      double D = TFast + G.DeadlineTightness * (TSlow - TFast);
      taskgraph::OnlineOptions OO;
      OO.Replan = J.GraphReplan;
      OO.Planner.Milp.NumThreads = 1;
      Plan.add(1e3 * timeSec([&] {
        (void)taskgraph::planTaskGraph(G, Costs, D, OO.Planner);
      }));
      taskgraph::OnlineResult OR;
      double OnlineSec = timeSec([&] { OR = taskgraph::runOnline(G, Costs, D, OO); });
      Online.add(1e3 * OnlineSec);
      Replans.add(OR.Replans);
      if (Path != JobPath::RoutedHit)
        PathMsSum += 1e3 * OnlineSec;
      continue;
    }
    const Workload &W = workload(J.Workload);
    if (Path == JobPath::Cold) {
      PathMsSum += ColdMs.at(J.Workload);
      for (const ProgramKey &Key : Keys)
        PathMsSum += CollectMs.at(Key);
    }
    std::vector<CategoryProfile> Cats;
    double WSum = 0.0;
    for (const JobCategory &C : J.Categories)
      WSum += C.Weight;
    for (size_t C = 0; C < Keys.size(); ++C)
      Cats.push_back({*Profiles.at(Keys[C]),
                      J.Categories.empty() ? 1.0
                                           : J.Categories[C].Weight / WSum});
    std::vector<double> Deadlines;
    for (const CategoryProfile &C : Cats) {
      double TFast = C.Data.TotalTimeAtMode.back();
      double TSlow = C.Data.TotalTimeAtMode.front();
      Deadlines.push_back(TFast + J.DeadlineTightness * (TSlow - TFast));
    }
    double FpSec = perCall(20, [&] {
      (void)fingerprintDvsInstance(Cats, Deadlines, Modes, Tr,
                                   J.FilterThreshold, K - 1);
    });
    Fp.add(1e6 * FpSec);
    DvsOptions DO;
    DO.FilterThreshold = J.FilterThreshold;
    DO.InitialMode = K - 1;
    DO.Milp.NumThreads = 1;
    DO.KeepArtifacts = true;
    DO.Analysis = &Analyses.at(J.Workload);
    DvsScheduler Scheduler(*W.Fn, Cats, Modes, Tr, DO);
    ErrorOr<ScheduleResult> SR = makeError("not run");
    double SchedSec = timeSec([&] { SR = Scheduler.schedule(Deadlines); });
    Sched.add(1e3 * SchedSec);
    PathMsSum += 1e3 * (Path == JobPath::RoutedHit ? FpSec : FpSec + SchedSec);
    if (!SR)
      continue;
    Nodes.add(SR->Nodes);
    Pivots.add(SR->LpIterations);
    SVars.add(SR->SolvedVars);
    SRows.add(SR->SolvedRows);
    Fixed.add(SR->PresolveVarsFixed);
    verify::AuditOptions AO;
    AO.FilterThreshold = J.FilterThreshold;
    double AuditSec = timeSec([&] {
      (void)verify::auditScheduleResult(*W.Fn, Cats, Modes, Tr, *SR,
                                        Deadlines, AO);
    });
    Audit.add(1e3 * AuditSec);
    std::string Text;
    double WriteSec = perCall(20, [&] { Text = writeSchedule(SR->Assignment); });
    Write.add(1e6 * WriteSec);
    Read.add(1e6 * perCall(20, [&] { (void)readSchedule(Text, K); }));
    if (Path != JobPath::RoutedHit)
      PathMsSum += 1e3 * (AuditSec + WriteSec);
  }
  M["milp.fingerprint_us"] = Fp.get();
  M["dvs.schedule_ms"] = Sched.get();
  M["milp.nodes"] = Nodes.get();
  M["lp.pivots"] = Pivots.get();
  M["milp.solved_vars"] = SVars.get();
  M["milp.solved_rows"] = SRows.get();
  M["presolve.vars_fixed"] = Fixed.get();
  M["verify.audit_ms"] = Audit.get();
  M["dvs.write_schedule_us"] = Write.get();
  M["dvs.read_schedule_us"] = Read.get();
  M["taskgraph.plan_ms"] = Plan.get();
  M["taskgraph.online_ms"] = Online.get();
  M["taskgraph.replans"] = Replans.get();

  // net/ and cluster/: framing, routing key and ring lookup per request.
  Mean Enc, Dec, KeyUs, RingUs;
  if (Path == JobPath::RoutedHit) {
    cluster::HashRing Ring;
    Ring.add("127.0.0.1:1");
    for (const BenchRequest &B : Run.List) {
      std::string Json = jobRequestToJson(B.Job);
      net::FrameType Type =
          B.Job.Graph ? net::FrameType::GraphRequest : net::FrameType::Request;
      std::string Frame;
      Enc.add(1e6 * perCall(200, [&] { Frame = net::encodeFrame(Type, 7, Json); }));
      net::FrameHeader H;
      Dec.add(1e6 * perCall(200, [&] {
        (void)net::decodeFrameHeader(
            reinterpret_cast<const unsigned char *>(Frame.data()),
            Frame.size(), net::kDefaultMaxPayloadBytes, H);
      }));
      Fingerprint128 Key;
      KeyUs.add(1e6 * perCall(200, [&] { Key = cluster::requestKey(B.Job); }));
      RingUs.add(1e6 * perCall(200, [&] { (void)Ring.ownerOf(Key); }));
    }
    // Both ends of the router hop frame and key every request.
    PathMsSum += Run.List.size() * 1e-3 *
                 (2 * (Enc.get() + Dec.get()) + KeyUs.get() + RingUs.get());
  }
  M["net.encode_us"] = Enc.get();
  M["net.decode_us"] = Dec.get();
  M["cluster.key_us"] = KeyUs.get();
  M["cluster.ring_lookup_us"] = RingUs.get();
  M["service.path_ms"] = PathMsSum / Run.List.size();
  return M;
}

} // namespace e2e
