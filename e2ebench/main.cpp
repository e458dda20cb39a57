//===- e2ebench/main.cpp - End-to-end benchmark entry point ---------------===//
//
//   e2ebench --workload <cold_compile|deadline_sweep|routed_warm>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--commit <id>]
//
// Prints a context line, then as its last line one JSON object with
// correct / attempted / failed / metrics: the end-to-end metrics when
// untraced, the per-layer metrics when traced.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"


#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

using namespace e2e;

namespace {

#ifndef CDVS_BENCH_BUILD_TYPE
#define CDVS_BENCH_BUILD_TYPE "unknown"
#endif

constexpr int kCheckThreads = 4;

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Metric name -> unit, in output order.
using Units = std::vector<std::pair<std::string, std::string>>;

const Units &endToEndUnits() {
  static const Units U = {{"jobs_per_s", "1/s"},     {"latency_p50_ms", "ms"},
                          {"latency_p90_ms", "ms"},  {"setup_s", "s"},
                          {"peak_rss_mb", "MB"},     {"energy_ratio", "ratio"}};
  return U;
}

const Units &perLayerUnits() {
  static const Units U = {
      {"workloads.build_ms", "ms"},
      {"sim.run_ms", "ms"},
      {"sim.instructions", "count"},
      {"sim.minstr_per_s", "Minstr/s"},
      {"profile.collect_ms", "ms"},
      {"profile.sim_runs", "count"},
      {"analysis.analyze_ms", "ms"},
      {"dvs.schedule_ms", "ms"},
      {"milp.nodes", "count"},
      {"lp.pivots", "count"},
      {"milp.solved_vars", "count"},
      {"milp.solved_rows", "count"},
      {"presolve.vars_fixed", "count"},
      {"milp.fingerprint_us", "us"},
      {"verify.audit_ms", "ms"},
      {"dvs.write_schedule_us", "us"},
      {"dvs.read_schedule_us", "us"},
      {"taskgraph.plan_ms", "ms"},
      {"taskgraph.online_ms", "ms"},
      {"taskgraph.replans", "count"},
      {"service.queue_ms", "ms"},
      {"service.overhead_ms", "ms"},
      {"service.result_cache_hits", "count"},
      {"service.result_cache_misses", "count"},
      {"service.result_cache_evictions", "count"},
      {"service.profile_collections", "count"},
      {"service.profile_keys", "count"},
      {"service.profile_useful_ratio", "ratio"},
      {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.rtt_direct_ms", "ms"},
      {"cluster.key_us", "us"},
      {"cluster.ring_lookup_us", "us"},
      {"cluster.hop_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return U;
}

void writeTrace(const std::string &Path, const RunRecord &Run,
                const std::map<std::string, double> &Layers) {
  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "e2ebench: cannot write trace " << Path << "\n";
    return;
  }
  Out << "{\"traceEvents\":[";
  bool First = true;
  for (const RunRecord::Span &S : Run.Spans) {
    Out << (First ? "" : ",") << "{\"name\":" << jsonString(S.Name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << (S.Parent ? 2 : 1)
        << ",\"ts\":" << jsonNumber(S.StartUs)
        << ",\"dur\":" << jsonNumber(S.DurUs) << ",\"args\":{\"id\":" << S.Id
        << ",\"parent\":" << S.Parent << "}}";
    First = false;
  }
  Out << "],\"layers\":{";
  First = true;
  for (const auto &[K, V] : Layers) {
    Out << (First ? "" : ",") << jsonString(K) << ":" << jsonNumber(V);
    First = false;
  }
  Out << "}}\n";
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::stoull(V);
    else if (K == "--seconds")
      O.Seconds = std::stoi(V);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--trace-out")
      O.TraceOut = V;
    else if (K == "--commit")
      O.Commit = V;
    else
      return false;
  }
  return !O.Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  try {
    if (!parseArgs(Argc, Argv, O)) {
      std::cerr << "usage: e2ebench --workload "
                   "<cold_compile|deadline_sweep|routed_warm> --seed N "
                   "--seconds S --trace 0|1 [--trace-out F] [--commit C]\n";
      return 2;
    }

    RunRecord Run;
    if (O.Workload == "cold_compile")
      Run = runColdCompile(O);
    else if (O.Workload == "deadline_sweep")
      Run = runDeadlineSweep(O);
    else if (O.Workload == "routed_warm")
      Run = runRoutedWarm(O);
    else
      throw std::runtime_error("unknown workload " + O.Workload);

    std::map<std::string, double> Values;
    if (O.Trace) {
      Values = probeLayers(Run, O.Workload == "cold_compile"
                                    ? JobPath::Cold
                                    : O.Workload == "routed_warm"
                                          ? JobPath::RoutedHit
                                          : JobPath::Solve);
      for (const auto &[K, V] : Run.Layer)
        Values[K] = V;
      Values["service.overhead_ms"] =
          Values["service.mean_latency_ms"] - Values["service.path_ms"];
      double Coll = Values["service.profile_collections"];
      Values["service.profile_useful_ratio"] =
          Coll > 0 ? Values["service.profile_keys"] / Coll : 0.0;
      if (!O.TraceOut.empty())
        writeTrace(O.TraceOut, Run, Values);
    } else {
      Values["jobs_per_s"] = quantile(Run.Rounds.Rate, 0.5);
      Values["latency_p50_ms"] = quantile(Run.Rounds.P50, 0.5);
      Values["latency_p90_ms"] = quantile(Run.Rounds.P90, 0.5);
      Values["setup_s"] = quantile(Run.SetupSeconds, 0.5);
      Values["peak_rss_mb"] = Run.PeakRssMb;
    }

    // Checks run after timing, on every distinct answer.
    auto C0 = Clock::now();
    CheckSummary C = checkRun(Run, kCheckThreads);
    double CheckSec = secondsBetween(C0, Clock::now());
    if (!O.Trace)
      Values["energy_ratio"] = C.EnergyRatio;
    // A rejected answer to a request with a known fault is a failed
    // operation in each of its passes; any other rejection is a wrong
    // result.
    long WrongAnswers = 0;
    for (const auto &[I, Why] : C.Rejected) {
      bool Known = Run.List[I].KnownFault;
      if (Known)
        Run.Failed += Run.Passes;
      else
        ++WrongAnswers;
      std::cerr << (Known ? "known fault: " : "check: ") << Why << "\n";
    }
    for (const std::string &P : C.SelfTest)
      std::cerr << "check: " << P << "\n";
    bool Correct = WrongAnswers == 0 && C.SelfTest.empty() &&
                   Run.Inconsistent == 0 && Run.CacheSurprises == 0 &&
                   Run.UnexpectedFailures == 0;
    if (Run.UnexpectedFailures)
      std::cerr << "check: " << Run.UnexpectedFailures
                << " unexpected failures, first " << Run.FirstUnexpected
                << "\n";
    if (Run.Inconsistent)
      std::cerr << "check: " << Run.Inconsistent
                << " answers differ from the first pass or from an "
                   "in-process service\n";
    if (Run.CacheSurprises)
      std::cerr << "check: " << Run.CacheSurprises
                << " jobs crossed the result cache the wrong way\n";

    std::cout << "{\"context\":{\"workload\":" << jsonString(O.Workload)
              << ",\"seed\":" << O.Seed << ",\"seconds\":" << O.Seconds
              << ",\"trace\":" << (O.Trace ? 1 : 0)
              << ",\"nproc\":" << std::thread::hardware_concurrency()
              << ",\"build_type\":" << jsonString(CDVS_BENCH_BUILD_TYPE)
              << ",\"commit\":" << jsonString(O.Commit)
              << ",\"list_size\":" << Run.List.size()
              << ",\"passes\":" << Run.Passes
              << ",\"rounds\":" << Run.Rounds.Rate.size()
              << ",\"samples\":" << Run.Rounds.Samples
              << ",\"timed_s\":" << jsonNumber(Run.TimedSeconds)
              << ",\"answers_checked\":" << C.Checked
              << ",\"check_s\":" << jsonNumber(CheckSec) << "}}\n";

    const Units &U = O.Trace ? perLayerUnits() : endToEndUnits();
    std::cout << "{\"correct\":" << (Correct ? "true" : "false")
              << ",\"attempted\":" << Run.Attempted
              << ",\"failed\":" << Run.Failed << ",\"metrics\":{";
    for (size_t I = 0; I < U.size(); ++I)
      std::cout << (I ? "," : "") << jsonString(U[I].first)
                << ":{\"value\":" << jsonNumber(Values[U[I].first])
                << ",\"unit\":" << jsonString(U[I].second) << "}";
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception &E) {
    std::cerr << "e2ebench: " << E.what() << "\n";
    return 1;
  }
}
