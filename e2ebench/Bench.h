//===- e2ebench/Bench.h - Shared types of the end-to-end benchmark --------===//
//
// The benchmark drives the cdvs request path through the public API of
// service/, net/ and cluster/, checks every answer against simulations
// it runs itself, and prints one JSON result line. See README.md.
//
//===----------------------------------------------------------------------===//

#ifndef CDVS_E2EBENCH_BENCH_H
#define CDVS_E2EBENCH_BENCH_H

#include "service/Job.h"
#include "taskgraph/TaskGraph.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// splitmix64: the benchmark's own generator, so a seed means the same
/// inputs on every standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// One request of a workload's list, with what the checker must know.
struct BenchRequest {
  cdvs::JobRequest Job;
  /// Stable human-readable label, e.g. "adpcm/L7/t=0.255".
  std::string Label;
  /// Program variant (workload, categories, levels) for the monotonicity
  /// check; empty for graph requests.
  std::string Variant;
  /// The program is known to fail this request or to answer it wrongly
  /// (README.md, "Known faults"): it counts as a failed operation, not
  /// as a wrong result, until the fault is mended.
  bool KnownFault = false;
};

/// Timed jobs grouped into rounds: a round is the smallest whole number
/// of passes with at least 100 jobs, so its p90 has ten samples beyond
/// it. The run reports the median over rounds of each round's figures,
/// which keeps a burst of host noise that covers a few rounds out of the
/// result. Only rounds still open hold their samples.
class RoundLog {
public:
  explicit RoundLog(long RoundJobs = 1) : RoundJobs(RoundJobs) {}
  /// Records job \p Seq (its position in the dispensed sequence).
  void add(long Seq, double LatencyMs, bool Ok, Clock::time_point Start,
           Clock::time_point End);
  /// Per closed round: completed jobs per second, p50 and p90 in ms.
  std::vector<double> Rate, P50, P90;
  long Samples = 0;
  double SumMs = 0.0;

private:
  struct Round {
    std::vector<double> Ms;
    long Ok = 0;
    Clock::time_point First, Last;
  };
  long RoundJobs;
  std::map<long, Round> Open;
};

/// Linear interpolation between order statistics (q in [0, 1]).
double quantile(std::vector<double> V, double Q);

/// What one run of a workload produced, before checking.
struct RunRecord {
  std::vector<BenchRequest> List; ///< one pass
  long Passes = 0;
  long Attempted = 0;
  long Failed = 0;
  long UnexpectedFailures = 0;
  std::string FirstUnexpected;
  double TimedSeconds = 0.0;
  RoundLog Rounds;
  std::vector<double> SetupSeconds;
  double PeakRssMb = 0.0;
  /// First answer per list index (Status Done or Failed).
  std::vector<cdvs::JobResult> Answers;
  std::vector<bool> HaveAnswer;
  /// Answers that differ from the first pass's (schedule bytes), or,
  /// for routed_warm, from an in-process service's.
  long Inconsistent = 0;
  /// Jobs that hit the result cache where the workload forbids it, or
  /// missed it where every job must hit.
  long CacheSurprises = 0;

  /// Per-layer figures the workload itself produced (service counters,
  /// queue time, direct round trips); merged into the traced output.
  std::map<std::string, double> Layer;
  /// Benchmark-side spans (traced runs only).
  struct Span {
    std::string Name;
    double StartUs = 0.0, DurUs = 0.0;
    long Id = 0, Parent = 0;
  };
  std::vector<Span> Spans;

  void recordAnswer(size_t Index, const cdvs::JobResult &R);
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 5;
  bool Trace = false;
  std::string TraceOut;
  std::string Commit = "unknown";
};

/// The closed-loop dispenser shared by a workload's callers: hands out
/// list indices in whole rounds of passes (see RoundLog) and decides only
/// at a round boundary whether another round starts, once \p Seconds
/// have passed; so attempted is always rounds x passes x list.
class PassDispenser {
public:
  PassDispenser(size_t ListSize, double Seconds, long MinJobs)
      : N(static_cast<long>(ListSize)), Seconds(Seconds),
        RoundJobs(N * std::max(1L, (MinJobs + N - 1) / N)) {}
  void start() { T0 = Clock::now(); }
  /// \returns false once the run is over; \p Seq is the job's position.
  bool next(size_t &Index, long &Seq);
  long roundJobs() const { return RoundJobs; }

private:
  std::mutex Mu;
  long N;
  double Seconds;
  long RoundJobs;
  long Pos = 0;
  bool Stopped = false;
  Clock::time_point T0;
};

// Workload runners (Workloads.cpp).
RunRecord runColdCompile(const Options &O);
RunRecord runDeadlineSweep(const Options &O);
RunRecord runRoutedWarm(const Options &O);

/// Peak resident set of this process so far, MB.
double peakRssMb();

/// Runs \p Body(0..N-1) on \p Threads threads (Checks.cpp).
void parallelFor(size_t N, int Threads,
                 const std::function<void(size_t)> &Body);

/// What a workload's job runs, for service.overhead_ms: a cold compile
/// (build, analyze, profile, then solve), a solve on warm profiles, or a
/// routed cache hit (framing, routing key, fingerprint).
enum class JobPath { Cold, Solve, RoutedHit };

/// Times direct calls into each module's public functions over the
/// distinct requests of \p Run (Layers.cpp); the wire and ring layers
/// only for RoutedHit.
std::map<std::string, double> probeLayers(const RunRecord &Run, JobPath Path);

} // namespace e2e

#endif // CDVS_E2EBENCH_BENCH_H
