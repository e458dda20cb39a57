//===- bench/bench_taskgraph.cpp - Task-graph DVS: static vs online --------===//
//
// Quantifies what online slack reclamation buys over the compile-time
// static plan on the canned task-graph corpus: every instance is solved
// twice through the scheduling service — GraphReplan off (the static
// row: execute the compile-time modes and just watch the actual times)
// and on (the online row: re-solve the remaining subgraph at every
// completion event). Rows print as static/online pairs in one JSON
// record on stdout (or into --benchmark_out=FILE).
//
// The checks are hard asserts, so the binary doubles as an integration
// test; scripts/check.sh runs it:
//  * the online row's recorded static energy equals the static row's
//    planned energy (same compile-time plan underneath);
//  * for every instance whose tasks all finish at or under their
//    profiles, online planned energy <= static planned energy — the
//    monotonicity-guard guarantee;
//  * replanning instances re-plan at least once and both rows meet the
//    shared deadline.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"
#include "support/ArgParse.h"
#include "taskgraph/Generator.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace cdvs;

namespace {

struct Row {
  std::string Graph;
  std::string Kind; // "static" | "online"
  int Tasks = 0;
  double DeadlineSeconds = 0.0;
  double StaticEnergyJoules = 0.0;
  double PlannedEnergyJoules = 0.0;
  double ActualEnergyJoules = 0.0;
  double MakespanSeconds = 0.0;
  int Replans = 0;
  int ReplansAccepted = 0;
};

JobResult solveOrDie(SchedulerService &Service, const taskgraph::TaskGraph &G,
                     bool Replan) {
  JobRequest R;
  R.Id = G.Name + (Replan ? "@online" : "@static");
  R.GraphReplan = Replan;
  R.Graph = std::make_shared<const taskgraph::TaskGraph>(G);
  JobResult Res = Service.submit(R).get();
  if (Res.Status != JobStatus::Done) {
    std::fprintf(stderr, "bench_taskgraph: %s failed: %s\n", R.Id.c_str(),
                 Res.Reason.c_str());
    std::exit(1);
  }
  return Res;
}

void check(bool Cond, const char *What, const std::string &Graph) {
  if (!Cond) {
    std::fprintf(stderr, "bench_taskgraph: CHECK FAILED on %s: %s\n",
                 Graph.c_str(), What);
    std::exit(1);
  }
}

} // namespace

int main(int argc, char **argv) {
  ArgParser P("bench_taskgraph",
              "task-graph DVS: paired static/online energy over the "
              "canned DAG corpus");
  int &Threads = P.addInt("threads", 0, "service workers; 0 = one per core");
  std::string &OutPath = P.addString(
      "benchmark_out", "", "JSON results file; empty prints to stdout");
  if (!P.parseOrExit(argc, argv))
    return 0;

  ServiceOptions Opts;
  Opts.NumWorkers = Threads;
  Opts.Verify = VerifyMode::Strict; // every emitted plan must audit green
  SchedulerService Service(Opts);

  std::vector<Row> Rows;
  int Reclaimers = 0, ReclaimersSaving = 0;
  for (const taskgraph::TaskGraph &G : taskgraph::cannedTaskGraphs()) {
    JobResult S = solveOrDie(Service, G, /*Replan=*/false);
    JobResult O = solveOrDie(Service, G, /*Replan=*/true);

    // Same compile-time plan underneath both rows.
    check(S.PredictedEnergyJoules == S.StaticEnergyJoules,
          "static row must execute the static plan verbatim", G.Name);
    check(O.StaticEnergyJoules == S.StaticEnergyJoules,
          "online row's static baseline drifted from the static row",
          G.Name);
    check(S.Replans == 0, "static row must not re-plan", G.Name);
    check(O.Replans >= 1, "online row never re-planned", G.Name);
    check(S.MakespanSeconds <= S.DeadlineSeconds * (1.0 + 1e-9) &&
              O.MakespanSeconds <= O.DeadlineSeconds * (1.0 + 1e-9),
          "a row missed the shared deadline", G.Name);

    bool AllUnderProfile = true;
    for (const taskgraph::TaskNode &N : G.Nodes)
      AllUnderProfile = AllUnderProfile && N.ActualFactor <= 1.0;
    if (AllUnderProfile) {
      // The acceptance inequality: reclaimed slack never costs energy.
      check(O.PredictedEnergyJoules <=
                S.PredictedEnergyJoules * (1.0 + 1e-12),
            "online energy exceeded static energy with no overruns",
            G.Name);
      ++Reclaimers;
      if (O.PredictedEnergyJoules < S.PredictedEnergyJoules)
        ++ReclaimersSaving;
    }

    for (const JobResult *R : {&S, &O}) {
      Row Out;
      Out.Graph = G.Name;
      Out.Kind = R == &S ? "static" : "online";
      Out.Tasks = static_cast<int>(G.Nodes.size());
      Out.DeadlineSeconds = R->DeadlineSeconds;
      Out.StaticEnergyJoules = R->StaticEnergyJoules;
      Out.PlannedEnergyJoules = R->PredictedEnergyJoules;
      Out.ActualEnergyJoules = R->ActualEnergyJoules;
      Out.MakespanSeconds = R->MakespanSeconds;
      Out.Replans = R->Replans;
      Out.ReplansAccepted = R->ReplansAccepted;
      Rows.push_back(Out);
    }

    double SavedPct = 100.0 *
                      (S.PredictedEnergyJoules - O.PredictedEnergyJoules) /
                      S.PredictedEnergyJoules;
    std::printf("%-16s tasks=%zu static=%.6e online=%.6e saved=%5.1f%% "
                "replans=%d accepted=%d\n",
                G.Name.c_str(), G.Nodes.size(), S.PredictedEnergyJoules,
                O.PredictedEnergyJoules, SavedPct, O.Replans,
                O.ReplansAccepted);
  }
  // The corpus must demonstrate reclamation, not just not regress.
  check(Reclaimers > 0 && ReclaimersSaving > 0,
        "no early-finishing instance actually saved energy", "corpus");

  std::FILE *Out =
      OutPath.empty() ? stdout : std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "bench_taskgraph: cannot write %s\n",
                 OutPath.c_str());
    return 1;
  }
  std::fprintf(Out, "{\n  \"benchmark\": \"bench_taskgraph\",\n");
  std::fprintf(Out, "  \"graphs\": %d,\n",
               static_cast<int>(Rows.size() / 2));
  std::fprintf(Out, "  \"reclaiming_graphs\": %d,\n", Reclaimers);
  std::fprintf(Out, "  \"reclaiming_graphs_saving\": %d,\n",
               ReclaimersSaving);
  std::fprintf(Out, "  \"rows\": [\n");
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(
        Out,
        "    {\"graph\": \"%s\", \"kind\": \"%s\", \"tasks\": %d, "
        "\"deadline_seconds\": %.17g, \"static_energy_joules\": %.17g, "
        "\"planned_energy_joules\": %.17g, \"actual_energy_joules\": %.17g, "
        "\"makespan_seconds\": %.17g, \"replans\": %d, "
        "\"replans_accepted\": %d}%s\n",
        R.Graph.c_str(), R.Kind.c_str(), R.Tasks, R.DeadlineSeconds,
        R.StaticEnergyJoules, R.PlannedEnergyJoules, R.ActualEnergyJoules,
        R.MakespanSeconds, R.Replans, R.ReplansAccepted,
        I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(Out, "  ]\n}\n");
  if (Out != stdout) {
    std::fclose(Out);
    std::printf("bench_taskgraph: all checks passed; wrote %s\n",
                OutPath.c_str());
  }
  return 0;
}
