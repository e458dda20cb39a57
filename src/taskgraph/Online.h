//===- taskgraph/Online.h - Online slack reclamation ------------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online executor: runs a task graph against its static plan while
/// the "hardware" (each node's hidden ActualFactor) reveals actual
/// completion times, and re-solves the remaining subgraph at every
/// completion event so reclaimed slack turns into slower, cheaper modes
/// — Aupy et al.'s slack-reclamation discipline on top of the discrete
/// interval MILP in taskgraph/Planner.h.
///
/// Semantics, fixed so runs are byte-reproducible:
///
///  - Unlimited parallelism: a task starts the instant its last
///    predecessor finishes (and never before its re-planned release).
///  - Completion events are processed in ascending (finish time, node
///    index) order; ties cannot reorder across runs.
///  - At each completion event with unstarted tasks left, the remaining
///    subgraph re-solves with releases derived from actual finishes of
///    done tasks and profiled predictions for still-running ones.
///  - Monotonicity guard: a re-plan is *accepted* only if it is feasible
///    and its predicted remaining profiled energy is <= the incumbent
///    assignment's — unless the incumbent has become deadline-infeasible
///    under the updated releases, in which case any feasible re-plan is
///    taken. With every ActualFactor <= 1 this guarantees the final
///    committed (profiled) energy never exceeds the static plan's.
///  - The MILP search is sequential and deterministic, so the chosen
///    argmin — not just the optimal objective — is reproducible.
///
/// Every re-solve emits a `replan` trace span and bumps the
/// cdvs_taskgraph_replans{,_accepted}_total counters; the decision trail
/// is also recorded in OnlineResult::ReplanLog as canonical %.17g text,
/// which the determinism tests compare byte-for-byte across worker and
/// reactor counts.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_TASKGRAPH_ONLINE_H
#define CDVS_TASKGRAPH_ONLINE_H

#include "taskgraph/Planner.h"

#include <string>
#include <vector>

namespace cdvs {
namespace taskgraph {

struct OnlineOptions {
  /// Re-solve at completion events. Off = execute the static plan and
  /// only record actual times (the "static" rows of the bench pairing).
  bool Replan = true;
  PlannerOptions Planner;
};

/// What one task actually did.
struct TaskExecRecord {
  int Mode = -1;               ///< final committed mode
  double Start = 0.0;          ///< actual (simulated) start, seconds
  double Finish = 0.0;         ///< actual finish, seconds
  double PlannedSeconds = 0.0; ///< profiled duration at Mode
  double ActualSeconds = 0.0;  ///< PlannedSeconds * ActualFactor
  double PlannedEnergyJoules = 0.0;
  /// Energy scaled like the runtime: the task holds its (V, f) point for
  /// ActualFactor times the profiled duration.
  double ActualEnergyJoules = 0.0;
};

struct OnlineResult {
  bool Feasible = false;     ///< static plan solved (run happened at all)
  TaskPlan StaticPlan;       ///< the initial full-graph plan
  std::vector<TaskExecRecord> Tasks; ///< indexed by node
  double DeadlineSeconds = 0.0;
  /// Profiled energy of the static plan (sum E[i][static mode]).
  double StaticEnergyJoules = 0.0;
  /// Profiled energy at the final committed modes. The headline number:
  /// <= StaticEnergyJoules whenever no task overran its profile.
  double PlannedEnergyJoules = 0.0;
  /// Factor-scaled energy actually spent (informational).
  double ActualEnergyJoules = 0.0;
  double MakespanSeconds = 0.0; ///< actual makespan
  bool DeadlineMet = false;     ///< MakespanSeconds <= deadline (+1e-9)
  int Replans = 0;              ///< re-solves attempted
  int ReplansAccepted = 0;      ///< re-solves that replaced the incumbent
  /// Canonical one-line-per-event decision log (see file comment).
  std::string ReplanLog;
};

/// Executes \p G with the hidden ActualFactors, re-planning per
/// \p Opts. Costs/Deadline as for planTaskGraph. Deterministic: equal
/// inputs produce byte-identical results including ReplanLog.
OnlineResult runOnline(const TaskGraph &G, const TaskCosts &Costs,
                       double DeadlineSeconds,
                       const OnlineOptions &Opts = OnlineOptions());

} // namespace taskgraph
} // namespace cdvs

#endif // CDVS_TASKGRAPH_ONLINE_H
