//===- verify/CertificateChecker.h - MILP solution certificates -*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pass 3 of the static verifier: an a-posteriori certificate for a
/// branch-and-bound solution. The solver is a few thousand lines of
/// pivoting and pruning; the certificate is a page of arithmetic. Every
/// constraint row, every variable bound, every integrality requirement
/// and the objective are re-evaluated directly against the original
/// LpProblem in compensated (Kahan) summation, independent of any state
/// the solver kept. The result reports the maximum scaled violation
/// found, so callers can assert quantitative bounds (the benches require
/// max violation < 1e-6) rather than a bare boolean.
///
/// The check certifies *feasibility and objective consistency* of the
/// returned point. Optimality is not re-proved — that would require
/// replaying the search tree — but for the DVS MILP a feasible point
/// with a matching objective is exactly what downstream consumers
/// (ScheduleIO artifacts, the service cache) depend on.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_VERIFY_CERTIFICATECHECKER_H
#define CDVS_VERIFY_CERTIFICATECHECKER_H

#include "lp/LpProblem.h"
#include "milp/MilpSolver.h"
#include "verify/Report.h"

#include <vector>

namespace cdvs {
namespace verify {

/// Knobs for the certificate check.
struct CertificateCheckOptions {
  /// Scaled-violation threshold: a row or bound is violated when
  /// residual / max(1, |rhs|) exceeds this.
  double Tolerance = 1e-6;
  /// Integrality threshold on the declared integer variables.
  double IntTolerance = 1e-6;
  /// Per-kind cap on individual diagnostics; excess rows collapse into
  /// one summary note so a badly corrupted solution stays readable.
  int MaxDiagnosticsPerKind = 10;
};

/// Outcome of certifying one MilpSolution against its LpProblem.
struct Certificate {
  Report R;
  /// True when the solution carried a point to check (Optimal or
  /// Feasible with a full-size X); false means the numbers below are
  /// meaningless and R holds a note explaining why.
  bool Checked = false;
  /// max over rows of scaled constraint residual (0 when satisfied).
  double MaxRowViolation = 0.0;
  /// max over variables of scaled bound violation.
  double MaxBoundViolation = 0.0;
  /// max over integer variables of |x - round(x)|.
  double MaxIntegralityGap = 0.0;
  /// c^T x re-evaluated with Kahan summation.
  double RecomputedObjective = 0.0;
  /// |RecomputedObjective - Solution.Objective|.
  double ObjectiveMismatch = 0.0;
};

/// Re-evaluates \p Sol against \p Problem. \p IntegerVars are the
/// variables the solve declared integral (the DVS mode binaries).
/// Diagnostics carry pass name "certificate".
Certificate
checkCertificate(const LpProblem &Problem,
                 const std::vector<int> &IntegerVars,
                 const MilpSolution &Sol,
                 const CertificateCheckOptions &Opts =
                     CertificateCheckOptions());

} // namespace verify
} // namespace cdvs

#endif // CDVS_VERIFY_CERTIFICATECHECKER_H
