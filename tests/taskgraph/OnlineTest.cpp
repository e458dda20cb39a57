//===- tests/taskgraph/OnlineTest.cpp - slack reclamation contracts --------===//
//
// runOnline against synthetic instances whose reclamation arithmetic is
// checkable by hand: early finishes turn into slower committed modes and
// never into more profiled energy than the static plan; overruns trip
// the forced-accept branch of the monotonicity guard; Replan=false is a
// faithful static execution. The determinism pin (same graph + same
// hidden actual times => byte-identical plan text and ReplanLog, even
// when many runs race on different threads) is the satellite-3 contract
// that the service's --reactors sweep relies on, and runs under TSan in
// the CI gate.
//
//===----------------------------------------------------------------------===//

#include "taskgraph/Online.h"

#include "taskgraph/PlanIO.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace cdvs;
using namespace cdvs::taskgraph;

namespace {

const std::vector<double> kTimes = {4.0, 2.0, 1.0};
const std::vector<double> kEnergies = {1.0, 2.0, 4.0};

TaskGraph chain2(double HeadFactor) {
  TaskGraph G;
  G.Name = "chain2";
  G.Nodes = {{"head", "gsm", "", HeadFactor}, {"tail", "gsm", "", 1.0}};
  G.Edges = {{0, 1}};
  return G;
}

TaskCosts uniformCosts(int NumTasks) {
  TaskCosts C;
  C.TimeAtMode.assign(NumTasks, kTimes);
  C.EnergyAtMode.assign(NumTasks, kEnergies);
  return C;
}

OnlineOptions replanning(bool Replan = true) {
  OnlineOptions O;
  O.Replan = Replan;
  return O;
}

TEST(OnlineReclaim, EarlyFinishReclaimsSlackIntoACheaperMode) {
  // Static plan at deadline 5 is modes (1,1): energy 4, head finishes
  // at 2. The head actually halves its time, finishing at 1 — the tail
  // now has 4 seconds and re-plans down to the slowest mode (energy 1),
  // committing 2 + 1 = 3 joules against the static 4.
  OnlineResult R =
      runOnline(chain2(0.5), uniformCosts(2), 5.0, replanning());
  ASSERT_TRUE(R.Feasible);
  EXPECT_DOUBLE_EQ(R.StaticEnergyJoules, 4.0);
  EXPECT_EQ(R.Replans, 1);
  EXPECT_EQ(R.ReplansAccepted, 1);
  ASSERT_EQ(R.Tasks.size(), 2u);
  EXPECT_EQ(R.Tasks[0].Mode, 1);
  EXPECT_DOUBLE_EQ(R.Tasks[0].ActualSeconds, 1.0);
  EXPECT_EQ(R.Tasks[1].Mode, 0);
  EXPECT_DOUBLE_EQ(R.Tasks[1].Start, 1.0);
  EXPECT_DOUBLE_EQ(R.Tasks[1].Finish, 5.0);
  EXPECT_DOUBLE_EQ(R.PlannedEnergyJoules, 3.0);
  EXPECT_DOUBLE_EQ(R.MakespanSeconds, 5.0);
  EXPECT_TRUE(R.DeadlineMet);
  EXPECT_FALSE(R.ReplanLog.empty());
}

TEST(OnlineReclaim, OnlineNeverExceedsStaticWhenNoTaskOverruns) {
  // The headline inequality, over a factor sweep including exactly-on-
  // profile (where the guard must hold with equality at worst).
  for (double F : {1.0, 0.9, 0.75, 0.5, 0.25}) {
    OnlineResult R =
        runOnline(chain2(F), uniformCosts(2), 5.0, replanning());
    ASSERT_TRUE(R.Feasible) << "factor " << F;
    EXPECT_LE(R.PlannedEnergyJoules, R.StaticEnergyJoules)
        << "factor " << F;
    EXPECT_TRUE(R.DeadlineMet) << "factor " << F;
  }
}

TEST(OnlineReclaim, OverrunTripsTheForcedAcceptBranch) {
  // Static modes at deadline 4 are (1,1), head planned to finish at 2.
  // A 1.5x overrun lands it at 3, leaving 1 second: the incumbent tail
  // mode (time 2) is now deadline-infeasible, so the guard must accept
  // the costlier fastest mode instead of keeping the incumbent.
  OnlineResult R =
      runOnline(chain2(1.5), uniformCosts(2), 4.0, replanning());
  ASSERT_TRUE(R.Feasible);
  EXPECT_DOUBLE_EQ(R.StaticEnergyJoules, 4.0);
  EXPECT_EQ(R.Tasks[1].Mode, 2);
  EXPECT_DOUBLE_EQ(R.Tasks[1].Start, 3.0);
  EXPECT_DOUBLE_EQ(R.Tasks[1].Finish, 4.0);
  // Paying for lateness: committed energy exceeds static, deadline met.
  EXPECT_GT(R.PlannedEnergyJoules, R.StaticEnergyJoules);
  EXPECT_TRUE(R.DeadlineMet);
  EXPECT_EQ(R.ReplansAccepted, 1);
}

TEST(OnlineReclaim, ReplanOffExecutesTheStaticPlanVerbatim) {
  OnlineResult R =
      runOnline(chain2(0.5), uniformCosts(2), 5.0, replanning(false));
  ASSERT_TRUE(R.Feasible);
  EXPECT_EQ(R.Replans, 0);
  EXPECT_EQ(R.ReplansAccepted, 0);
  EXPECT_TRUE(R.ReplanLog.empty());
  // Modes stay static; only the timeline reflects the early finish.
  EXPECT_EQ(R.Tasks[0].Mode, R.StaticPlan.Tasks[0].Mode);
  EXPECT_EQ(R.Tasks[1].Mode, R.StaticPlan.Tasks[1].Mode);
  EXPECT_DOUBLE_EQ(R.PlannedEnergyJoules, R.StaticEnergyJoules);
  EXPECT_DOUBLE_EQ(R.Tasks[1].Start, 1.0);
}

TEST(OnlineReclaim, InfeasibleDeadlineReportsCleanly) {
  OnlineResult R =
      runOnline(chain2(1.0), uniformCosts(2), 1.5, replanning());
  EXPECT_FALSE(R.Feasible);
  EXPECT_EQ(R.Replans, 0);
}

TEST(OnlineReclaim, RerunsAreByteIdenticalIncludingTheReplanLog) {
  // Satellite 3, single-threaded half: equal inputs give equal bytes.
  TaskGraph G = chain2(0.5);
  TaskCosts C = uniformCosts(2);
  OnlineResult First = runOnline(G, C, 5.0, replanning());
  ASSERT_TRUE(First.Feasible);
  std::string FirstText = writeTaskPlan(G, First);
  for (int I = 0; I < 3; ++I) {
    OnlineResult Again = runOnline(G, C, 5.0, replanning());
    EXPECT_EQ(writeTaskPlan(G, Again), FirstText);
    EXPECT_EQ(Again.ReplanLog, First.ReplanLog);
  }
}

TEST(OnlineReclaim, ConcurrentRunsCannotPerturbEachOther) {
  // Satellite 3, concurrent half: the service solves graph jobs from N
  // worker threads behind N reactors, so runOnline must be free of
  // hidden shared state — many simultaneous runs of the same instance
  // (this test's TSan target) and of different instances must each
  // produce the bytes their inputs dictate.
  TaskGraph Early = chain2(0.5);
  TaskGraph Late = chain2(1.5);
  TaskCosts C = uniformCosts(2);
  std::string EarlyText = writeTaskPlan(Early, runOnline(Early, C, 5.0,
                                                         replanning()));
  std::string LateText = writeTaskPlan(Late, runOnline(Late, C, 4.0,
                                                       replanning()));

  constexpr int kThreads = 8;
  std::vector<std::string> Got(kThreads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < kThreads; ++T)
    Pool.emplace_back([&, T] {
      const TaskGraph &G = (T % 2 == 0) ? Early : Late;
      double Deadline = (T % 2 == 0) ? 5.0 : 4.0;
      Got[T] = writeTaskPlan(G, runOnline(G, C, Deadline, replanning()));
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int T = 0; T < kThreads; ++T)
    EXPECT_EQ(Got[T], (T % 2 == 0) ? EarlyText : LateText) << "thread " << T;
}

} // namespace
