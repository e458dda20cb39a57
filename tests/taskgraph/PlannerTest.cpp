//===- tests/taskgraph/PlannerTest.cpp - interval MILP contracts -----------===//
//
// planTaskGraph on small synthetic instances where the optimal discrete
// assignment can be enumerated by hand: precedence and deadline rows
// bind, energy is the exact argmin over mode combinations, left-shifted
// starts never idle, and the Plannable/Release contract the online loop
// builds on holds. Synthetic costs (no workload profiling) keep every
// case sub-millisecond.
//
//===----------------------------------------------------------------------===//

#include "taskgraph/Planner.h"

#include <gtest/gtest.h>

#include <vector>

using namespace cdvs;
using namespace cdvs::taskgraph;

namespace {

/// Shared 3-mode table: mode 0 slowest/cheapest, mode 2 fastest/dearest
/// (the Profile::TotalTimeAtMode orientation).
const std::vector<double> kTimes = {4.0, 2.0, 1.0};
const std::vector<double> kEnergies = {1.0, 2.0, 4.0};

TaskGraph chain2() {
  TaskGraph G;
  G.Name = "chain2";
  G.Nodes = {{"head", "gsm", "", 1.0}, {"tail", "gsm", "", 1.0}};
  G.Edges = {{0, 1}};
  return G;
}

TaskCosts uniformCosts(int NumTasks) {
  TaskCosts C;
  C.TimeAtMode.assign(NumTasks, kTimes);
  C.EnergyAtMode.assign(NumTasks, kEnergies);
  return C;
}

TEST(TaskPlanner, LooseDeadlineRunsEverythingSlowest) {
  TaskGraph G = chain2();
  TaskPlan P = planTaskGraph(G, uniformCosts(2), 8.0);
  ASSERT_TRUE(P.Feasible);
  EXPECT_EQ(P.Status, MilpStatus::Optimal);
  ASSERT_EQ(P.Tasks.size(), 2u);
  EXPECT_EQ(P.Tasks[0].Mode, 0);
  EXPECT_EQ(P.Tasks[1].Mode, 0);
  EXPECT_DOUBLE_EQ(P.PlannedEnergyJoules, 2.0);
  // Left-shift: head starts at 0, tail starts the instant head ends.
  EXPECT_DOUBLE_EQ(P.Tasks[0].Start, 0.0);
  EXPECT_DOUBLE_EQ(P.Tasks[0].Finish, 4.0);
  EXPECT_DOUBLE_EQ(P.Tasks[1].Start, 4.0);
  EXPECT_DOUBLE_EQ(P.Tasks[1].Finish, 8.0);
  EXPECT_DOUBLE_EQ(P.MakespanSeconds, 8.0);
}

TEST(TaskPlanner, TightDeadlinePicksTheExactArgmin) {
  // Deadline 5 over {4,2,1}x{4,2,1}: feasible sums are (4,1),(2,2),
  // (2,1),(1,4),(1,2),(1,1) with energies 5,4,6,5,6,8 — argmin is
  // mode (1,1) at energy 4.
  TaskGraph G = chain2();
  TaskPlan P = planTaskGraph(G, uniformCosts(2), 5.0);
  ASSERT_TRUE(P.Feasible);
  EXPECT_EQ(P.Tasks[0].Mode, 1);
  EXPECT_EQ(P.Tasks[1].Mode, 1);
  EXPECT_DOUBLE_EQ(P.PlannedEnergyJoules, 4.0);
  EXPECT_DOUBLE_EQ(P.MakespanSeconds, 4.0);
}

TEST(TaskPlanner, SubFastestDeadlineIsInfeasible) {
  TaskGraph G = chain2();
  TaskPlan P = planTaskGraph(G, uniformCosts(2), 1.9);
  EXPECT_FALSE(P.Feasible);
  EXPECT_EQ(P.Status, MilpStatus::Infeasible);
}

TEST(TaskPlanner, EnergyIsMonotoneInTheDeadline) {
  TaskGraph G = chain2();
  TaskCosts C = uniformCosts(2);
  double Last = -1.0;
  for (double D : {2.0, 3.0, 4.0, 5.0, 6.0, 8.0}) {
    TaskPlan P = planTaskGraph(G, C, D);
    ASSERT_TRUE(P.Feasible) << "deadline " << D;
    if (Last >= 0.0)
      EXPECT_LE(P.PlannedEnergyJoules, Last) << "deadline " << D;
    Last = P.PlannedEnergyJoules;
  }
}

TEST(TaskPlanner, ParallelBranchesScaleIndependently) {
  // fork: a -> {b, c}; deadline 8. The chain through either branch is
  // 2 tasks, so both branches behave like chain2 at deadline 8 — all
  // slowest — while the sibling does not consume the other's time.
  TaskGraph G;
  G.Name = "fork3";
  G.Nodes = {{"a", "gsm", "", 1.0},
             {"b", "gsm", "", 1.0},
             {"c", "gsm", "", 1.0}};
  G.Edges = {{0, 1}, {0, 2}};
  TaskPlan P = planTaskGraph(G, uniformCosts(3), 8.0);
  ASSERT_TRUE(P.Feasible);
  EXPECT_EQ(P.Tasks[0].Mode, 0);
  EXPECT_EQ(P.Tasks[1].Mode, 0);
  EXPECT_EQ(P.Tasks[2].Mode, 0);
  EXPECT_DOUBLE_EQ(P.PlannedEnergyJoules, 3.0);
  // Both children start the instant the parent finishes.
  EXPECT_DOUBLE_EQ(P.Tasks[1].Start, 4.0);
  EXPECT_DOUBLE_EQ(P.Tasks[2].Start, 4.0);
  EXPECT_DOUBLE_EQ(P.MakespanSeconds, 8.0);
}

TEST(TaskPlanner, PlannableSubsetHonorsReleases) {
  // Re-plan shape: head already ran (not plannable) and released the
  // tail at t=5 with deadline 9 — exactly 4 seconds of room, so the
  // tail may now take the slowest mode.
  TaskGraph G = chain2();
  std::vector<char> Plannable = {0, 1};
  std::vector<double> Release = {0.0, 5.0};
  TaskPlan P = planTaskGraph(G, uniformCosts(2), 9.0, PlannerOptions(),
                             Plannable, Release);
  ASSERT_TRUE(P.Feasible);
  EXPECT_EQ(P.Tasks[0].Mode, -1) << "unplanned tasks keep the -1 sentinel";
  EXPECT_EQ(P.Tasks[1].Mode, 0);
  EXPECT_DOUBLE_EQ(P.Tasks[1].Start, 5.0);
  EXPECT_DOUBLE_EQ(P.Tasks[1].Finish, 9.0);
  // Only planned tasks count toward the plan's energy.
  EXPECT_DOUBLE_EQ(P.PlannedEnergyJoules, 1.0);

  // One second less room and the slowest mode no longer fits.
  TaskPlan Q = planTaskGraph(G, uniformCosts(2), 8.0, PlannerOptions(),
                             Plannable, Release);
  ASSERT_TRUE(Q.Feasible);
  EXPECT_EQ(Q.Tasks[1].Mode, 1);
}

TEST(TaskPlanner, CriticalPathBoundsMatchHandComputation) {
  TaskGraph G = chain2();
  TaskCosts C = uniformCosts(2);
  EXPECT_DOUBLE_EQ(criticalPathSeconds(G, C, -1), 2.0); // all-fastest
  EXPECT_DOUBLE_EQ(criticalPathSeconds(G, C, 0), 8.0);  // all-slowest
  // The all-fastest critical path is the feasibility frontier.
  EXPECT_TRUE(planTaskGraph(G, C, 2.0).Feasible);
  EXPECT_FALSE(planTaskGraph(G, C, 1.99).Feasible);
}

} // namespace
