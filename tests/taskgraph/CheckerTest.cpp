//===- tests/taskgraph/CheckerTest.cpp - task-plan legality audit ----------===//
//
// verify::checkTaskPlan as an adversary: clean online runs (replanning
// and static, reclaiming and overrunning) must audit green, and every
// tampered claim — mode index, precedence on the actual timeline,
// scaled duration, deadline flag, energy totals, replan bookkeeping —
// must draw an error naming the task or field, because the service
// trusts this pass to gate what it serves under --verify=strict.
//
//===----------------------------------------------------------------------===//

#include "verify/TaskGraphChecker.h"

#include "taskgraph/Online.h"

#include <gtest/gtest.h>

#include <vector>

using namespace cdvs;
using namespace cdvs::taskgraph;

namespace {

TaskGraph chain2(double HeadFactor) {
  TaskGraph G;
  G.Name = "chain2";
  G.Nodes = {{"head", "gsm", "", HeadFactor}, {"tail", "gsm", "", 1.0}};
  G.Edges = {{0, 1}};
  return G;
}

TaskCosts uniformCosts(int NumTasks) {
  TaskCosts C;
  C.TimeAtMode.assign(NumTasks, {4.0, 2.0, 1.0});
  C.EnergyAtMode.assign(NumTasks, {1.0, 2.0, 4.0});
  return C;
}

OnlineResult solved(const TaskGraph &G, double Deadline, bool Replan = true) {
  OnlineOptions O;
  O.Replan = Replan;
  return runOnline(G, uniformCosts(static_cast<int>(G.Nodes.size())),
                   Deadline, O);
}

TEST(TaskPlanChecker, CleanRunsAuditGreen) {
  struct Case {
    double Factor, Deadline;
    bool Replan;
  } Cases[] = {
      {0.5, 5.0, true},  // reclaiming
      {1.0, 5.0, true},  // exactly on profile
      {1.5, 4.0, true},  // overrun, forced accept
      {0.5, 5.0, false}, // static execution
  };
  for (const Case &C : Cases) {
    TaskGraph G = chain2(C.Factor);
    OnlineResult R = solved(G, C.Deadline, C.Replan);
    ASSERT_TRUE(R.Feasible);
    verify::TaskGraphCheck Facts;
    verify::Report Rep =
        verify::checkTaskPlan(G, uniformCosts(2), C.Deadline, R, 1e-6, &Facts);
    EXPECT_TRUE(Rep.ok()) << "factor " << C.Factor << ": " << Rep.render();
    EXPECT_EQ(Facts.TasksChecked, 2);
    EXPECT_NEAR(Facts.PlannedEnergyJoules, R.PlannedEnergyJoules, 1e-12);
    EXPECT_NEAR(Facts.MakespanSeconds, R.MakespanSeconds, 1e-12);
  }
}

TEST(TaskPlanChecker, CatchesAnIllegalModeIndex) {
  TaskGraph G = chain2(0.5);
  OnlineResult R = solved(G, 5.0);
  R.Tasks[1].Mode = 7;
  EXPECT_FALSE(verify::checkTaskPlan(G, uniformCosts(2), 5.0, R).ok());
  R.Tasks[1].Mode = -1;
  EXPECT_FALSE(verify::checkTaskPlan(G, uniformCosts(2), 5.0, R).ok())
      << "every node needs a committed mode in an executed plan";
}

TEST(TaskPlanChecker, CatchesAPrecedenceViolationOnTheActualTimeline) {
  TaskGraph G = chain2(0.5);
  OnlineResult R = solved(G, 5.0);
  // Claim the tail started before the head's actual finish.
  double Shift = R.Tasks[1].Start - R.Tasks[0].Finish + 0.5;
  R.Tasks[1].Start -= Shift;
  R.Tasks[1].Finish -= Shift;
  verify::Report Rep = verify::checkTaskPlan(G, uniformCosts(2), 5.0, R);
  ASSERT_FALSE(Rep.ok());
  EXPECT_NE(Rep.firstError().find("tail"), std::string::npos)
      << Rep.firstError();
}

TEST(TaskPlanChecker, CatchesAMisclaimedDuration) {
  TaskGraph G = chain2(0.5);
  OnlineResult R = solved(G, 5.0);
  // The head's actual duration must be profiled * 0.5; stretch the
  // claim without moving anything else.
  R.Tasks[0].ActualSeconds *= 1.01;
  EXPECT_FALSE(verify::checkTaskPlan(G, uniformCosts(2), 5.0, R).ok());
}

TEST(TaskPlanChecker, CatchesEnergyAndDeadlineMisclaims) {
  TaskGraph G = chain2(0.5);
  {
    OnlineResult R = solved(G, 5.0);
    R.PlannedEnergyJoules += 0.25;
    EXPECT_FALSE(verify::checkTaskPlan(G, uniformCosts(2), 5.0, R).ok());
  }
  {
    OnlineResult R = solved(G, 5.0);
    R.ActualEnergyJoules *= 0.5;
    EXPECT_FALSE(verify::checkTaskPlan(G, uniformCosts(2), 5.0, R).ok());
  }
  {
    OnlineResult R = solved(G, 5.0);
    R.DeadlineMet = false; // met in fact, misreported
    EXPECT_FALSE(verify::checkTaskPlan(G, uniformCosts(2), 5.0, R).ok());
  }
  {
    // Audit against a tighter deadline than the plan was solved for.
    OnlineResult R = solved(G, 5.0);
    EXPECT_FALSE(verify::checkTaskPlan(G, uniformCosts(2), 2.0, R).ok());
  }
}

TEST(TaskPlanChecker, CatchesReplanBookkeepingLies) {
  TaskGraph G = chain2(0.5);
  OnlineResult R = solved(G, 5.0);
  R.ReplansAccepted = R.Replans + 1;
  EXPECT_FALSE(verify::checkTaskPlan(G, uniformCosts(2), 5.0, R).ok());
}

TEST(TaskPlanChecker, RejectsAPlanForTheWrongGraphShape) {
  TaskGraph G = chain2(0.5);
  OnlineResult R = solved(G, 5.0);
  R.Tasks.pop_back();
  EXPECT_FALSE(verify::checkTaskPlan(G, uniformCosts(2), 5.0, R).ok());
}

} // namespace
