//===- taskgraph/Planner.h - Interval MILP over a task graph ----*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-task mode-assignment MILP. For each plannable task i and mode
/// m there is a binary k[i][m] with sum_m k[i][m] = 1 (registered as an
/// SOS1 group so branch-and-bound branches on the group, the same trick
/// the single-program formulation uses), plus a continuous completion
/// variable C_i bounded above by the shared deadline. Rows:
///
///   release     C_i - sum_m T[i][m] k[i][m] >= R_i
///   precedence  C_i - C_j - sum_m T[i][m] k[i][m] >= 0   for edges j->i
///   objective   min sum_{i,m} E[i][m] k[i][m]
///
/// which is exactly the discrete form of the interval LP in Aupy et al.
/// ("Reclaiming the energy of a schedule"): under unlimited parallelism
/// the only coupling between tasks is precedence, so per-task completion
/// times are enough — no machine-assignment binaries.
///
/// The emitted plan is the *left-shifted* realization of the chosen
/// modes: start times are recomputed greedily in canonical topological
/// order (start_i = max(R_i, max over preds finish_j)), which never
/// finishes a task later than the MILP's C_i, keeps the plan byte-
/// deterministic given the modes, and removes any slack the solver
/// happened to leave in the continuous variables.
///
/// Re-planning uses the same entry point: the online loop marks
/// completed/running tasks non-plannable and encodes their influence as
/// release times on the survivors.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_TASKGRAPH_PLANNER_H
#define CDVS_TASKGRAPH_PLANNER_H

#include "milp/MilpSolver.h"
#include "taskgraph/TaskGraph.h"

#include <vector>

namespace cdvs {
namespace taskgraph {

/// Profiled per-task costs, indexed [task][mode]. Every task shares one
/// mode table; mode 0 is the slowest (highest time, lowest energy) and
/// the last mode the fastest, matching Profile::TotalTimeAtMode.
struct TaskCosts {
  std::vector<std::vector<double>> TimeAtMode;   ///< seconds
  std::vector<std::vector<double>> EnergyAtMode; ///< joules

  int numModes() const {
    return TimeAtMode.empty() ? 0 : static_cast<int>(TimeAtMode[0].size());
  }
};

/// One task's slot in a plan. Mode == -1 marks a task the planner was
/// told not to plan (already completed or running in a re-plan).
struct TaskDecision {
  int Mode = -1;
  double Start = 0.0;  ///< left-shifted start, seconds
  double Finish = 0.0; ///< Start + profiled duration at Mode
  double PlannedSeconds = 0.0;
  double PlannedEnergyJoules = 0.0;
};

/// A solved (sub)plan.
struct TaskPlan {
  MilpStatus Status = MilpStatus::Limit;
  bool Feasible = false;
  /// Sum of profiled energies over the planned tasks only.
  double PlannedEnergyJoules = 0.0;
  /// Max left-shifted finish over the planned tasks (0 if none).
  double MakespanSeconds = 0.0;
  std::vector<TaskDecision> Tasks; ///< indexed by node
  long Nodes = 0;                  ///< branch-and-bound nodes explored
  double SolveSeconds = 0.0;
};

struct PlannerOptions {
  MilpOptions Milp;
};

/// Plans modes for the subset of \p G with Plannable[i] != 0, subject to
/// per-task release times \p ReleaseSeconds (seconds; influence of
/// completed/running predecessors) and the shared \p DeadlineSeconds.
/// Empty Plannable means "plan everything"; empty ReleaseSeconds means
/// all-zero. The graph must validate; Costs must cover every node with
/// at least one mode. Deterministic for fixed inputs.
TaskPlan planTaskGraph(const TaskGraph &G, const TaskCosts &Costs,
                       double DeadlineSeconds,
                       const PlannerOptions &Opts = PlannerOptions(),
                       const std::vector<char> &Plannable = {},
                       const std::vector<double> &ReleaseSeconds = {});

/// Critical-path length (seconds) using, per task, the time at \p Mode
/// < 0 ? per-task fastest (last) mode : fixed mode index. Used by the
/// service bound stage: the all-fastest critical path is the tightest
/// deadline any plan can meet.
double criticalPathSeconds(const TaskGraph &G, const TaskCosts &Costs,
                           int Mode);

} // namespace taskgraph
} // namespace cdvs

#endif // CDVS_TASKGRAPH_PLANNER_H
