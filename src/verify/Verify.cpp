//===- verify/Verify.cpp - Static verification umbrella -------------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include <string>

using namespace cdvs;
using namespace cdvs::verify;

Audit verify::auditScheduleResult(
    const Function &Fn, const std::vector<CategoryProfile> &Categories,
    const ModeTable &Modes, const TransitionModel &Transitions,
    const ScheduleResult &SR, const std::vector<double> &DeadlineSeconds,
    const AuditOptions &Opts) {
  Audit A;

  if (Opts.CheckProfiles)
    for (size_t C = 0; C < Categories.size(); ++C) {
      Report R = checkCfgProfile(Fn, Categories[C].Data);
      A.R.merge(R);
    }

  bool HasPoint = SR.Status == MilpStatus::Optimal ||
                  SR.Status == MilpStatus::Feasible;
  ScheduleCheckOptions SOpts;
  SOpts.Tolerance = Opts.Tolerance;
  SOpts.FilterThreshold = Opts.FilterThreshold;
  SOpts.ClaimedEnergyJoules =
      HasPoint ? SR.PredictedEnergyJoules : -1.0;
  A.Schedule = checkSchedule(Fn, Categories, Modes, Transitions,
                             SR.Assignment, DeadlineSeconds, SOpts);
  A.R.merge(A.Schedule.R);

  if (SR.Artifacts) {
    CertificateCheckOptions COpts;
    COpts.Tolerance = Opts.Tolerance;
    A.Cert = checkCertificate(SR.Artifacts->Problem,
                              SR.Artifacts->IntegerVars,
                              SR.Artifacts->Solution, COpts);
    A.R.merge(A.Cert.R);
  } else {
    A.R.note("certificate", "",
             "no solver artifacts retained (DvsOptions::KeepArtifacts "
             "off); MILP certificate pass skipped");
  }

  return A;
}
