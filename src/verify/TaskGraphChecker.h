//===- verify/TaskGraphChecker.h - Task-plan legality audit -----*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pass 5, "taskgraph": independent legality audit of an executed
/// task-graph plan (taskgraph/Online.h) against the graph and the
/// profiled costs it was planned from. Checks, from scratch and without
/// trusting the planner:
///
///   - structural: the graph validates and the plan covers every node
///     with a legal mode index;
///   - precedence: on the *actual* timeline, no task starts before any
///     of its predecessors finishes;
///   - timing: per-task actual duration equals the profiled duration at
///     the committed mode scaled by the node's ActualFactor, and
///     finish - start equals that duration;
///   - shared deadline: the recomputed makespan meets the deadline, and
///     the plan's DeadlineMet claim matches;
///   - energy: planned and actual totals recomputed with compensated
///     (Kahan) summation match the claimed values, and — when the
///     static plan is attached — the static total matches too;
///   - bookkeeping: 0 <= ReplansAccepted <= Replans.
///
/// Like the other passes this is pure: it renders diagnostics into a
/// Report and never mutates its inputs.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_VERIFY_TASKGRAPHCHECKER_H
#define CDVS_VERIFY_TASKGRAPHCHECKER_H

#include "taskgraph/Online.h"
#include "verify/Report.h"

namespace cdvs {
namespace verify {

/// Recomputed facts the audit derived; returned for callers that want
/// to display them next to the claims.
struct TaskGraphCheck {
  double PlannedEnergyJoules = 0.0; ///< Kahan recompute
  double ActualEnergyJoules = 0.0;  ///< Kahan recompute
  double MakespanSeconds = 0.0;     ///< recomputed from the records
  int TasksChecked = 0;
};

/// Audits \p R (an executed plan for \p G under \p Costs and
/// \p DeadlineSeconds). \p Tolerance is the relative tolerance for
/// energy/timing comparisons. Appends to \p Out when non-null.
Report checkTaskPlan(const taskgraph::TaskGraph &G,
                     const taskgraph::TaskCosts &Costs,
                     double DeadlineSeconds,
                     const taskgraph::OnlineResult &R,
                     double Tolerance = 1e-6,
                     TaskGraphCheck *Out = nullptr);

} // namespace verify
} // namespace cdvs

#endif // CDVS_VERIFY_TASKGRAPHCHECKER_H
