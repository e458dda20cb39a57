//===- verify/Verify.h - Static verification umbrella -----------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella for the verifier passes plus the one-call audit the
/// service pipeline, the benches, and tools/dvs-lint share:
///
///   pass 1  "cfg"          — checkCfgProfile   (CfgChecker.h)
///   pass 2  "schedule"     — checkSchedule     (ScheduleChecker.h)
///   pass 3  "certificate"  — checkCertificate  (CertificateChecker.h)
///   pass 4  "static"       — checkStatic       (StaticChecker.h);
///                            dvs-lint --static only, not in the audit
///   pass 5  "taskgraph"    — checkTaskPlan     (TaskGraphChecker.h);
///                            task-graph jobs only, invoked by the
///                            service's graph pipeline instead of
///                            auditScheduleResult
///
/// auditScheduleResult() runs all three over one ScheduleResult: the
/// profiles it was derived from, the decoded assignment, and — when the
/// scheduler ran with DvsOptions::KeepArtifacts — the retained MILP
/// instance and raw solution.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_VERIFY_VERIFY_H
#define CDVS_VERIFY_VERIFY_H

#include "dvs/DvsScheduler.h"
#include "verify/CertificateChecker.h"
#include "verify/CfgChecker.h"
#include "verify/Report.h"
#include "verify/ScheduleChecker.h"

#include <vector>

namespace cdvs {
namespace verify {

/// Knobs for the combined audit.
struct AuditOptions {
  /// Relative tolerance shared by the schedule and certificate passes.
  double Tolerance = 1e-6;
  /// The edge-filter threshold the schedule was produced with (enables
  /// the filtered-placement soundness audit when > 0).
  double FilterThreshold = 0.0;
  /// Run the structural profile analysis too (skip when the caller has
  /// already linted the profiles separately).
  bool CheckProfiles = true;
};

/// Combined outcome; R merges the diagnostics of every pass that ran.
struct Audit {
  Report R;
  ScheduleCheck Schedule;
  Certificate Cert;
  bool ok() const { return R.ok(); }
};

/// Runs every applicable pass over \p SR. Cross-checks the recomputed
/// energy against the MILP objective only when the solve produced a
/// point (Optimal/Feasible); certifies the MILP solution only when
/// SR.Artifacts is populated (DvsOptions::KeepArtifacts), otherwise a
/// note records the skipped pass.
Audit auditScheduleResult(const Function &Fn,
                          const std::vector<CategoryProfile> &Categories,
                          const ModeTable &Modes,
                          const TransitionModel &Transitions,
                          const ScheduleResult &SR,
                          const std::vector<double> &DeadlineSeconds,
                          const AuditOptions &Opts = AuditOptions());

} // namespace verify
} // namespace cdvs

#endif // CDVS_VERIFY_VERIFY_H
