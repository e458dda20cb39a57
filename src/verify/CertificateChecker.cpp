//===- verify/CertificateChecker.cpp - MILP solution certificates ---------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/CertificateChecker.h"

#include "support/Numeric.h"

#include <cmath>
#include <string>

using namespace cdvs;
using namespace cdvs::verify;

namespace {

const char *PassName = "certificate";

const char *senseName(RowSense S) {
  switch (S) {
  case RowSense::LE:
    return "<=";
  case RowSense::GE:
    return ">=";
  case RowSense::EQ:
    return "==";
  }
  return "?";
}

/// Emits at most Cap diagnostics of one kind; counts the rest.
class CappedEmitter {
public:
  CappedEmitter(Report &R, int Cap) : R(R), Cap(Cap) {}
  void error(const std::string &Loc, const std::string &Msg) {
    if (Count++ < Cap)
      R.error(PassName, Loc, Msg);
  }
  void flush(const std::string &Kind) {
    if (Count > Cap)
      R.note(PassName, "",
             std::to_string(Count - Cap) + " further " + Kind +
                 " violations suppressed (" + std::to_string(Count) +
                 " total)");
  }

private:
  Report &R;
  int Cap;
  int Count = 0;
};

} // namespace

Certificate
verify::checkCertificate(const LpProblem &Problem,
                         const std::vector<int> &IntegerVars,
                         const MilpSolution &Sol,
                         const CertificateCheckOptions &Opts) {
  Certificate C;
  Report &R = C.R;

  if (Sol.Status != MilpStatus::Optimal &&
      Sol.Status != MilpStatus::Feasible) {
    R.note(PassName, "",
           std::string("solution status is ") + milpStatusName(Sol.Status) +
               "; no point to certify");
    return C;
  }
  const int NumVars = Problem.numVariables();
  if (static_cast<int>(Sol.X.size()) != NumVars) {
    R.error(PassName, "",
            "solution has " + std::to_string(Sol.X.size()) +
                " values for " + std::to_string(NumVars) + " variables");
    return C;
  }
  C.Checked = true;

  // Variable bounds and finiteness.
  CappedEmitter BoundDiags(R, Opts.MaxDiagnosticsPerKind);
  for (int V = 0; V < NumVars; ++V) {
    double X = Sol.X[V];
    std::string Loc = "var " + std::to_string(V);
    if (!Problem.name(V).empty())
      Loc += " (" + Problem.name(V) + ")";
    if (!std::isfinite(X)) {
      BoundDiags.error(Loc, "non-finite value");
      C.MaxBoundViolation = lpInf();
      continue;
    }
    double Lo = Problem.lowerBound(V), Hi = Problem.upperBound(V);
    double Viol = std::fmax(Lo - X, X - Hi);
    double Scale =
        std::fmax(1.0, std::fmax(std::fabs(Lo),
                                 std::isfinite(Hi) ? std::fabs(Hi) : 0.0));
    double Scaled = std::fmax(0.0, Viol) / Scale;
    C.MaxBoundViolation = std::fmax(C.MaxBoundViolation, Scaled);
    if (Scaled > Opts.Tolerance)
      BoundDiags.error(Loc, "value " + std::to_string(X) +
                                " outside bounds [" + std::to_string(Lo) +
                                ", " + std::to_string(Hi) + "]");
  }
  BoundDiags.flush("bound");

  // Every constraint row, re-summed with compensation.
  CappedEmitter RowDiags(R, Opts.MaxDiagnosticsPerKind);
  for (int Row = 0; Row < Problem.numRows(); ++Row) {
    KahanSum Activity;
    for (const LpTerm &T : Problem.rowTerms(Row))
      Activity.add(T.Coeff * Sol.X[T.Var]);
    double A = Activity.value();
    double B = Problem.rhs(Row);
    double Resid = 0.0;
    switch (Problem.sense(Row)) {
    case RowSense::LE:
      Resid = A - B;
      break;
    case RowSense::GE:
      Resid = B - A;
      break;
    case RowSense::EQ:
      Resid = std::fabs(A - B);
      break;
    }
    double Scaled = std::fmax(0.0, Resid) / std::fmax(1.0, std::fabs(B));
    C.MaxRowViolation = std::fmax(C.MaxRowViolation, Scaled);
    if (Scaled > Opts.Tolerance)
      RowDiags.error("row " + std::to_string(Row),
                     "activity " + std::to_string(A) + " violates " +
                         senseName(Problem.sense(Row)) + " " +
                         std::to_string(B) + " (scaled residual " +
                         std::to_string(Scaled) + ")");
  }
  RowDiags.flush("row");

  // Integrality of the declared integer variables.
  CappedEmitter IntDiags(R, Opts.MaxDiagnosticsPerKind);
  for (int V : IntegerVars) {
    if (V < 0 || V >= NumVars) {
      IntDiags.error("var " + std::to_string(V),
                     "integer index out of range");
      continue;
    }
    double X = Sol.X[V];
    if (!std::isfinite(X))
      continue; // already reported as a bound violation
    double Gap = std::fabs(X - std::round(X));
    C.MaxIntegralityGap = std::fmax(C.MaxIntegralityGap, Gap);
    if (Gap > Opts.IntTolerance) {
      std::string Loc = "var " + std::to_string(V);
      if (!Problem.name(V).empty())
        Loc += " (" + Problem.name(V) + ")";
      IntDiags.error(Loc, "fractional value " + std::to_string(X) +
                              " on an integer variable");
    }
  }
  IntDiags.flush("integrality");

  // Objective: c^T x with compensation, against the solver's claim.
  KahanSum Obj;
  for (int V = 0; V < NumVars; ++V)
    Obj.add(Problem.cost(V) * Sol.X[V]);
  C.RecomputedObjective = Obj.value();
  C.ObjectiveMismatch = std::fabs(C.RecomputedObjective - Sol.Objective);
  double ObjScale = std::fmax(1.0, std::fabs(Sol.Objective));
  if (C.ObjectiveMismatch / ObjScale > Opts.Tolerance)
    R.error(PassName, "objective",
            "recomputed c^T x = " + std::to_string(C.RecomputedObjective) +
                " differs from the reported objective " +
                std::to_string(Sol.Objective) + " by " +
                std::to_string(C.ObjectiveMismatch));

  return C;
}
