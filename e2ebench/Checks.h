//===- e2ebench/Checks.h - Output checks made outside the program ---------===//
//
// Every served answer is judged by what it really costs: the benchmark
// re-simulates the schedule with Simulator::run and compares against its
// own single-mode runs, never against a stored copy of earlier output.
//
//===----------------------------------------------------------------------===//

#ifndef CDVS_E2EBENCH_CHECKS_H
#define CDVS_E2EBENCH_CHECKS_H

#include "Bench.h"

#include "power/ModeTable.h"
#include "workloads/Workloads.h"

#include <compare>

namespace e2e {

/// Relative slack on a deadline, as in the tier-1 tests.
inline constexpr double kDeadlineTol = 1e-4;
/// Relative slack on "energy must not rise as the deadline loosens".
inline constexpr double kMonotoneTol = 1e-6;

/// The mode table a request's level count selects (the service's rule).
cdvs::ModeTable modeTableFor(int Levels);
/// The bundled program \p Name (built once per process, shared).
const cdvs::Workload &workload(const std::string &Name);
/// Input \p Name of \p W; empty selects the default input.
const cdvs::WorkloadInput &inputOf(const cdvs::Workload &W,
                                   const std::string &Name);

/// What a profile and the benchmark's single-mode runs are keyed by.
struct ProgramKey {
  std::string Workload;
  std::string Input; ///< the input's own name, never empty
  int Levels = 0;
  auto operator<=>(const ProgramKey &) const = default;
};
/// The keys \p J runs on, in order: one per category (the default input
/// when it names none), or one per node of a graph.
std::vector<ProgramKey> programKeys(const cdvs::JobRequest &J);

/// Time and energy of whole-program runs at each single mode.
struct ModeRuns {
  std::vector<double> Time, Energy;
};

/// The benchmark's own single-mode runs, one set per (program, input,
/// level count), computed in parallel before any answer is checked.
class Reference {
public:
  /// Adds the keys \p Requests need (graph nodes included).
  void want(const std::vector<BenchRequest> &Requests);
  void compute(int Threads);
  const ModeRuns &at(const std::string &Workload, const std::string &Input,
                     int Levels) const;

private:
  std::map<ProgramKey, ModeRuns> Runs;
};

/// Outcome of checking one answer.
struct Verdict {
  bool Ok = true;
  std::string Why;
  /// Re-simulated energy over the best feasible single-mode energy
  /// (single-program answers that re-simulate, rejected or not; 0 for
  /// graphs).
  double Ratio = 0.0;
  /// Re-simulated energy, J (single-program answers only).
  double Energy = 0.0;
};

/// Re-simulates a single-program answer: deadline met per category,
/// energy no worse than the best single mode plus one regulator switch,
/// claimed energy equal to the re-simulated one.
Verdict checkSingle(const BenchRequest &Req, const cdvs::JobResult &R,
                    const Reference &Ref);
/// Recomputes a graph answer's timeline from the benchmark's own task
/// costs: durations, precedence, makespan <= deadline, energy, and
/// online actual energy <= static plan energy.
Verdict checkGraph(const BenchRequest &Req, const cdvs::JobResult &R,
                   const Reference &Ref);

/// Everything the checks found over one run.
struct CheckSummary {
  long Checked = 0;
  /// List index -> why its answer was rejected (the first reason).
  std::map<size_t, std::string> Rejected;
  /// Doctored answers the checks failed to reject for the expected
  /// reason; must stay empty.
  std::vector<std::string> SelfTest;
  /// Geometric mean of Verdict::Ratio over the served single-program
  /// answers, rejected ones included.
  double EnergyRatio = 0.0;
};

/// Checks every distinct answer of \p Run (in parallel), the energy
/// monotonicity per program variant, and runs the self-test of the
/// checks on the run's own answers.
CheckSummary checkRun(const RunRecord &Run, int Threads);

} // namespace e2e

#endif // CDVS_E2EBENCH_CHECKS_H
