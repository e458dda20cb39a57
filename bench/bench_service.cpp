//===- bench/bench_service.cpp - Scheduling-service throughput -------------===//
//
// Measures what the cdvs-service tentpole buys over bare scheduling:
//  * cold vs warm batch throughput — the same 18-job batch (the six
//    Section 6 benchmarks x three deadline tightnesses) run twice on one
//    service; the warm pass must be served entirely from the
//    content-addressed result cache, with byte-identical schedules, at
//    >= 10x the cold throughput;
//  * concurrent-duplicate collapse — 16 identical requests released at
//    once must cost exactly one MILP solve (cache misses == 1), the rest
//    collapsing onto the in-flight leader or hitting the fresh entry.
//
// The checks are hard asserts, so the binary doubles as an integration
// test; scripts/check.sh runs it. Results also print as one JSON record
// on stdout (or into --benchmark_out=FILE) for machine consumption.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "service/Service.h"
#include "support/ArgParse.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

using namespace cdvs;
using namespace cdvs::bench;

namespace {

double seconds(std::chrono::steady_clock::time_point Start,
               std::chrono::steady_clock::time_point End) {
  return std::chrono::duration<double>(End - Start).count();
}

/// The 18-job batch: every Section 6 benchmark at a stringent, mid, and
/// lax relative deadline.
std::vector<JobRequest> makeBatch() {
  std::vector<JobRequest> Batch;
  for (const std::string &Name : milpBenchmarks())
    for (double Tightness : {0.15, 0.5, 0.85}) {
      JobRequest R;
      R.Id = Name + "@" + formatDouble(Tightness, 2);
      R.Workload = Name;
      R.DeadlineTightness = Tightness;
      Batch.push_back(R);
    }
  return Batch;
}

} // namespace

int main(int argc, char **argv) {
  ArgParser P("bench_service",
              "scheduling-service throughput: cold vs warm batches and "
              "concurrent-duplicate collapse");
  int &Threads =
      P.addInt("threads", 0, "service workers; 0 = one per core");
  std::string &OutPath = P.addString(
      "benchmark_out", "", "JSON results file; empty prints to stdout");
  if (!P.parseOrExit(argc, argv))
    return 0;

  // Part 1: cold vs warm throughput on one service.
  ServiceOptions Opts;
  Opts.NumWorkers = Threads;
  Opts.QueueCapacity = 64;
  SchedulerService Service(Opts);

  std::vector<JobRequest> Batch = makeBatch();
  auto T0 = std::chrono::steady_clock::now();
  std::vector<JobResult> Cold = Service.runBatch(Batch);
  auto T1 = std::chrono::steady_clock::now();
  std::vector<JobResult> Warm = Service.runBatch(Batch);
  auto T2 = std::chrono::steady_clock::now();
  double ColdSec = seconds(T0, T1), WarmSec = seconds(T1, T2);

  Table Tbl({"job", "status", "cold_ms", "warm_ms", "warm_hit",
             "identical", "energy_uJ"});
  size_t WarmHits = 0, Identical = 0;
  for (size_t I = 0; I < Batch.size(); ++I) {
    const JobResult &C = Cold[I], &W = Warm[I];
    assert(C.Status == JobStatus::Done && "cold batch job failed");
    assert(W.Status == JobStatus::Done && "warm batch job failed");
    assert(W.Fingerprint == C.Fingerprint &&
           "same request fingerprinted differently across passes");
    bool Same = W.ScheduleText == C.ScheduleText;
    WarmHits += W.CacheHit;
    Identical += Same;
    Tbl.addRow({C.Id, jobStatusName(W.Status),
                formatDouble(C.TotalSeconds * 1e3, 2),
                formatDouble(W.TotalSeconds * 1e3, 3),
                W.CacheHit ? "yes" : "NO", Same ? "yes" : "NO",
                formatDouble(W.PredictedEnergyJoules * 1e6, 1)});
  }
  std::printf("== cold vs warm batch (18 jobs) ==\n");
  Tbl.print();
  double Speedup = ColdSec / WarmSec;
  std::printf("cold %.3f s  warm %.6f s  speedup %.0fx\n\n", ColdSec,
              WarmSec, Speedup);

  // Stage breakdown of the cold pass: where a fresh batch spends its
  // time (profiling dominates; the MILP and serialization are the part
  // the cache removes).
  double StageQueue = 0, StageProfile = 0, StageBound = 0,
         StageSolve = 0, StageSerialize = 0, StageTotal = 0;
  for (const JobResult &C : Cold) {
    StageQueue += C.QueueSeconds;
    StageProfile += C.ProfileSeconds;
    StageBound += C.BoundSeconds;
    StageSolve += C.SolveSeconds;
    StageSerialize += C.SerializeSeconds;
    StageTotal += C.TotalSeconds;
  }
  Table Stages({"stage", "total_ms", "mean_ms", "share"});
  auto stageRow = [&](const char *Name, double Sum) {
    Stages.addRow({Name, formatDouble(Sum * 1e3, 2),
                   formatDouble(Sum * 1e3 / double(Cold.size()), 3),
                   formatDouble(StageTotal > 0 ? Sum / StageTotal : 0.0,
                                3)});
  };
  stageRow("queue", StageQueue);
  stageRow("profile", StageProfile);
  stageRow("bound", StageBound);
  stageRow("solve", StageSolve);
  stageRow("serialize", StageSerialize);
  stageRow("total", StageTotal);
  std::printf("== cold-pass stage breakdown ==\n");
  Stages.print();
  std::printf("\n");
  assert(WarmHits == Batch.size() &&
         "warm pass was not served entirely from the result cache");
  assert(Identical == Batch.size() &&
         "cached schedule differs from the fresh solve");
  assert(Speedup >= 10.0 && "warm batch under the 10x throughput floor");

  // Part 2: single-flight collapse. A fresh service (empty result cache)
  // profiles the workload once, then releases 16 identical requests from
  // a paused queue so every worker picks one up in the same instant. The
  // cache must record exactly one miss — one MILP solve for all 16 —
  // with the rest collapsing onto the leader's flight or hitting the
  // freshly installed entry. Observing collapses (not just hits) needs
  // the solve to outlast a scheduling quantum even on one core, so the
  // instances are deliberately hard — tight deadline, 16 voltage
  // levels, edge filtering off — escalating if this machine is too fast.
  struct DupCase {
    const char *Workload;
    double Tightness;
  };
  const DupCase DupCases[] = {
      {"mpg123", 0.03}, {"mpg123", 0.05}, {"mpeg_decode", 0.05}};
  ServiceOptions DupOpts;
  DupOpts.NumWorkers = 16;
  DupOpts.QueueCapacity = 64;
  const int NumDup = 16;
  long DupMisses = 0, DupShared = 0, DupHits = 0;
  double DupTightness = 0.0;
  const char *DupWorkload = "";
  for (const DupCase &Case : DupCases) {
    SchedulerService Dup(DupOpts);
    JobRequest R;
    R.Workload = Case.Workload;
    R.DeadlineTightness = Case.Tightness;
    R.NumLevels = 16;
    R.FilterThreshold = 0.0;
    DupTightness = R.DeadlineTightness;
    DupWorkload = Case.Workload;

    // Pre-warm the profile cache (distinct filter => distinct
    // fingerprint, so the result cache stays cold for the real run).
    JobRequest Warmup = R;
    Warmup.Id = "warmup";
    Warmup.FilterThreshold = 0.5;
    assert(Dup.submit(Warmup).get().Status == JobStatus::Done);
    CacheStats Before = Dup.cacheStats();

    Dup.pause();
    std::vector<std::future<JobResult>> Futures;
    for (int I = 0; I < NumDup; ++I) {
      R.Id = "dup" + std::to_string(I);
      Futures.push_back(Dup.submit(R));
    }
    Dup.resume();
    for (auto &F : Futures) {
      JobResult Res = F.get();
      assert(Res.Status == JobStatus::Done && "duplicate job failed");
      DupShared += Res.SharedFlight;
      DupHits += Res.CacheHit;
    }
    CacheStats After = Dup.cacheStats();
    DupMisses = After.Misses - Before.Misses;
    assert(DupMisses == 1 &&
           "16 identical requests cost more than one MILP solve");
    if (DupShared > 0)
      break; // collapse observed; no need to retry slower deadlines
  }
  std::printf("== single-flight collapse (16 identical requests) ==\n");
  std::printf("%s @ tightness %.2f: misses %ld, shared flights %ld, "
              "cache hits %ld\n\n",
              DupWorkload, DupTightness, DupMisses, DupShared, DupHits);
  assert(DupShared >= 1 && "no request collapsed onto the leader");

  std::FILE *Out =
      OutPath.empty() ? stdout : std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "bench_service: cannot write %s\n",
                 OutPath.c_str());
    return 1;
  }
  std::fprintf(
      Out,
      "{\n"
      "  \"benchmark\": \"bench_service\",\n"
      "  \"jobs\": %zu,\n"
      "  \"cold_seconds\": %.6f,\n"
      "  \"warm_seconds\": %.6f,\n"
      "  \"warm_speedup\": %.1f,\n"
      "  \"warm_cache_hits\": %zu,\n"
      "  \"byte_identical_schedules\": %zu,\n"
      "  \"cold_stage_seconds\": {\n"
      "    \"queue\": %.6f,\n"
      "    \"profile\": %.6f,\n"
      "    \"bound\": %.6f,\n"
      "    \"solve\": %.6f,\n"
      "    \"serialize\": %.6f,\n"
      "    \"total\": %.6f\n"
      "  },\n"
      "  \"single_flight\": {\n"
      "    \"requests\": %d,\n"
      "    \"milp_solves\": %ld,\n"
      "    \"shared_flights\": %ld,\n"
      "    \"cache_hits\": %ld\n"
      "  }\n"
      "}\n",
      Batch.size(), ColdSec, WarmSec, Speedup, WarmHits, Identical,
      StageQueue, StageProfile, StageBound, StageSolve, StageSerialize,
      StageTotal, NumDup, DupMisses, DupShared, DupHits);
  if (Out != stdout) {
    std::fclose(Out);
    std::printf("wrote %s\n", OutPath.c_str());
  }
  return 0;
}
