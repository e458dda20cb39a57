//===- tests/taskgraph/PlanIOTest.cpp - cdvs-taskplan v1 round trips -------===//
//
// The canonical text format: write(read(write(R))) == write(R) with
// every field surviving (%.17g exactness), task names recorded in node
// order, and parse errors that name the offending line. The service
// cache and the determinism gates compare plans as strings, so byte
// stability is the contract, not a nicety.
//
//===----------------------------------------------------------------------===//

#include "taskgraph/PlanIO.h"

#include "taskgraph/Online.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cdvs;
using namespace cdvs::taskgraph;

namespace {

TaskGraph chain2(double HeadFactor = 0.5) {
  TaskGraph G;
  G.Name = "chain2";
  G.Nodes = {{"head", "gsm", "", HeadFactor}, {"tail", "gsm", "", 1.0}};
  G.Edges = {{0, 1}};
  return G;
}

OnlineResult solvedChain() {
  TaskCosts C;
  C.TimeAtMode.assign(2, {4.0, 2.0, 1.0});
  C.EnergyAtMode.assign(2, {1.0, 2.0, 4.0});
  return runOnline(chain2(), C, 5.0);
}

TEST(TaskPlanIO, WriteReadWriteIsAFixedPoint) {
  TaskGraph G = chain2();
  OnlineResult R = solvedChain();
  ASSERT_TRUE(R.Feasible);
  std::string Text = writeTaskPlan(G, R);
  ASSERT_FALSE(Text.empty());
  EXPECT_EQ(Text.rfind("cdvs-taskplan v1\n", 0), 0u);

  std::vector<std::string> Names;
  ErrorOr<OnlineResult> Back = readTaskPlan(Text, &Names);
  ASSERT_TRUE(Back.hasValue()) << Back.message();
  EXPECT_EQ(Names, (std::vector<std::string>{"head", "tail"}));
  EXPECT_EQ(writeTaskPlan(G, *Back), Text);
}

TEST(TaskPlanIO, EveryFieldSurvivesTheRoundTrip) {
  OnlineResult R = solvedChain();
  ErrorOr<OnlineResult> Back = readTaskPlan(writeTaskPlan(chain2(), R));
  ASSERT_TRUE(Back.hasValue()) << Back.message();
  EXPECT_EQ(Back->Feasible, R.Feasible);
  EXPECT_EQ(Back->DeadlineSeconds, R.DeadlineSeconds);
  EXPECT_EQ(Back->StaticEnergyJoules, R.StaticEnergyJoules);
  EXPECT_EQ(Back->PlannedEnergyJoules, R.PlannedEnergyJoules);
  EXPECT_EQ(Back->ActualEnergyJoules, R.ActualEnergyJoules);
  EXPECT_EQ(Back->MakespanSeconds, R.MakespanSeconds);
  EXPECT_EQ(Back->DeadlineMet, R.DeadlineMet);
  EXPECT_EQ(Back->Replans, R.Replans);
  EXPECT_EQ(Back->ReplansAccepted, R.ReplansAccepted);
  EXPECT_EQ(Back->ReplanLog, R.ReplanLog);
  ASSERT_EQ(Back->Tasks.size(), R.Tasks.size());
  for (size_t I = 0; I < R.Tasks.size(); ++I) {
    EXPECT_EQ(Back->Tasks[I].Mode, R.Tasks[I].Mode) << I;
    EXPECT_EQ(Back->Tasks[I].Start, R.Tasks[I].Start) << I;
    EXPECT_EQ(Back->Tasks[I].Finish, R.Tasks[I].Finish) << I;
    EXPECT_EQ(Back->Tasks[I].ActualSeconds, R.Tasks[I].ActualSeconds) << I;
    EXPECT_EQ(Back->Tasks[I].PlannedEnergyJoules,
              R.Tasks[I].PlannedEnergyJoules)
        << I;
  }
}

TEST(TaskPlanIO, ParseErrorsNameTheOffense) {
  EXPECT_FALSE(readTaskPlan("").hasValue());
  EXPECT_FALSE(readTaskPlan("cdvs-schedule v1\n").hasValue())
      << "the single-program format must not pass as a task plan";

  std::string Text = writeTaskPlan(chain2(), solvedChain());
  { // truncation loses the trailer
    ErrorOr<OnlineResult> R = readTaskPlan(Text.substr(0, Text.size() / 2));
    EXPECT_FALSE(R.hasValue());
  }
  { // corrupting a numeric field is caught, not absorbed
    std::string Bad = Text;
    size_t Pos = Bad.find("deadline ");
    ASSERT_NE(Pos, std::string::npos);
    Bad.replace(Pos, 9, "deadline x");
    EXPECT_FALSE(readTaskPlan(Bad).hasValue());
  }
}

TEST(TaskPlanIO, FileWriterPersistsVerbatim) {
  TaskGraph G = chain2();
  OnlineResult R = solvedChain();
  std::string Text = writeTaskPlan(G, R);
  std::string Path = testing::TempDir() + "planio_roundtrip.taskplan";
  ErrorOr<bool> W = writeTaskPlanFile(Path, G, R);
  ASSERT_TRUE(W.hasValue()) << W.message();
  FILE *F = fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::string OnDisk(Text.size() + 64, '\0');
  size_t N = fread(&OnDisk[0], 1, OnDisk.size(), F);
  fclose(F);
  remove(Path.c_str());
  OnDisk.resize(N);
  EXPECT_EQ(OnDisk, Text);

  EXPECT_FALSE(
      writeTaskPlanFile("/nonexistent-dir/x.taskplan", G, R).hasValue());
}

} // namespace
