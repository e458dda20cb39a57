//===- tests/milp/MilpTest.cpp - known-answer MILP tests ------------------===//

#include "milp/MilpSolver.h"

#include <gtest/gtest.h>

using namespace cdvs;

namespace {

TEST(Milp, PureLpPassThrough) {
  // With no integer variables the MILP solver is just the LP.
  LpProblem P;
  int X = P.addVariable(0.0, 4.0, -1.0);
  P.addRow(RowSense::LE, 3.0, {{X, 1.0}});
  MilpSolver S(P, {});
  MilpSolution R = S.solve();
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -3.0, 1e-7);
}

TEST(Milp, SimpleBinaryKnapsack) {
  // max 5a + 4b + 3c s.t. 2a + 3b + c <= 4 (binaries).
  // Optimal: a=1, c=1 -> value 8 (b would need 3 more capacity).
  LpProblem P;
  int A = P.addVariable(0.0, 1.0, -5.0);
  int B = P.addVariable(0.0, 1.0, -4.0);
  int C = P.addVariable(0.0, 1.0, -3.0);
  P.addRow(RowSense::LE, 4.0, {{A, 2.0}, {B, 3.0}, {C, 1.0}});
  MilpSolver S(P, {A, B, C});
  MilpSolution R = S.solve();
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -8.0, 1e-6);
  EXPECT_NEAR(R.X[A], 1.0, 1e-6);
  EXPECT_NEAR(R.X[B], 0.0, 1e-6);
  EXPECT_NEAR(R.X[C], 1.0, 1e-6);
}

TEST(Milp, IntegerRoundingMatters) {
  // max x + y s.t. 2x + 2y <= 5, integers -> LP gives 2.5, MILP 2.
  LpProblem P;
  int X = P.addVariable(0.0, 10.0, -1.0);
  int Y = P.addVariable(0.0, 10.0, -1.0);
  P.addRow(RowSense::LE, 5.0, {{X, 2.0}, {Y, 2.0}});
  MilpSolver S(P, {X, Y});
  MilpSolution R = S.solve();
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -2.0, 1e-6);
  EXPECT_LE(R.RootBound, -2.5 + 1e-6); // relaxation was stronger
}

TEST(Milp, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 with x integer: no integer point.
  LpProblem P;
  int X = P.addVariable(0.0, 1.0, 1.0);
  P.addRow(RowSense::GE, 0.4, {{X, 1.0}});
  P.addRow(RowSense::LE, 0.6, {{X, 1.0}});
  MilpSolver S(P, {X});
  MilpSolution R = S.solve();
  EXPECT_EQ(R.Status, MilpStatus::Infeasible);
}

TEST(Milp, Sos1GroupPicksCheapest) {
  // Mode-selection structure: sum k == 1, minimize cost.
  LpProblem P;
  int K0 = P.addVariable(0.0, 1.0, 9.0);
  int K1 = P.addVariable(0.0, 1.0, 4.0);
  int K2 = P.addVariable(0.0, 1.0, 6.0);
  P.addRow(RowSense::EQ, 1.0, {{K0, 1.0}, {K1, 1.0}, {K2, 1.0}});
  MilpSolver S(P, {K0, K1, K2});
  S.addSos1Group({K0, K1, K2});
  MilpSolution R = S.solve();
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 4.0, 1e-6);
  EXPECT_NEAR(R.X[K1], 1.0, 1e-6);
}

TEST(Milp, TwoGroupsWithCouplingConstraint) {
  // Two "edges" each pick a mode; a shared budget couples them:
  // time(mode) = {1, 3}; total time <= 4 forbids both picking mode 1
  // (3+3=6) -- minimize energy {5, 1}: best is one fast, one slow.
  LpProblem P;
  int A0 = P.addVariable(0.0, 1.0, 5.0);
  int A1 = P.addVariable(0.0, 1.0, 1.0);
  int B0 = P.addVariable(0.0, 1.0, 5.0);
  int B1 = P.addVariable(0.0, 1.0, 1.0);
  P.addRow(RowSense::EQ, 1.0, {{A0, 1.0}, {A1, 1.0}});
  P.addRow(RowSense::EQ, 1.0, {{B0, 1.0}, {B1, 1.0}});
  P.addRow(RowSense::LE, 4.0,
           {{A0, 1.0}, {A1, 3.0}, {B0, 1.0}, {B1, 3.0}});
  MilpSolver S(P, {A0, A1, B0, B1});
  S.addSos1Group({A0, A1});
  S.addSos1Group({B0, B1});
  MilpSolution R = S.solve();
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 6.0, 1e-6); // 5 + 1
}

TEST(Milp, GeneralIntegerVariable) {
  // min -x s.t. 3x <= 10, x integer in [0, 10] -> x = 3.
  LpProblem P;
  int X = P.addVariable(0.0, 10.0, -1.0);
  P.addRow(RowSense::LE, 10.0, {{X, 3.0}});
  MilpSolver S(P, {X});
  MilpSolution R = S.solve();
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.X[X], 3.0, 1e-6);
}

TEST(Milp, GeneralIntegerBelowAFractionalUpperBound) {
  // min -x s.t. x <= 10, x integer in [0, 2.5]: the relaxation sits on
  // the fractional bound, so the up child [3, 2.5] is empty and must
  // not be pushed, and rounding must not "round" x onto 2.5 -> x = 2.
  LpProblem P;
  int X = P.addVariable(0.0, 2.5, -1.0);
  P.addRow(RowSense::LE, 10.0, {{X, 1.0}});
  for (bool Rounding : {true, false}) {
    MilpOptions O;
    O.UseRounding = Rounding;
    MilpSolver S(P, {X}, O);
    MilpSolution R = S.solve();
    ASSERT_EQ(R.Status, MilpStatus::Optimal) << "rounding " << Rounding;
    EXPECT_NEAR(R.X[X], 2.0, 1e-6) << "rounding " << Rounding;
  }
}

TEST(Milp, MixedIntegerContinuous) {
  // min 10b + y  s.t. y >= 3 - 5b, y >= 0, b binary.
  // b=0 -> y=3 obj 3; b=1 -> y=0 obj 10. Optimal 3.
  LpProblem P;
  int B = P.addVariable(0.0, 1.0, 10.0);
  int Y = P.addVariable(0.0, lpInf(), 1.0);
  P.addRow(RowSense::GE, 3.0, {{Y, 1.0}, {B, 5.0}});
  MilpSolver S(P, {B});
  MilpSolution R = S.solve();
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 3.0, 1e-6);
  EXPECT_NEAR(R.X[B], 0.0, 1e-6);
}

TEST(Milp, NodeLimitReturnsFeasibleOrLimit) {
  LpProblem P;
  std::vector<int> Ints;
  // A 12-binary knapsack; a node limit of 1 truncates the search.
  std::vector<LpTerm> Cap;
  for (int I = 0; I < 12; ++I) {
    int V = P.addVariable(0.0, 1.0, -(1.0 + (I % 5)));
    Ints.push_back(V);
    Cap.push_back({V, 1.0 + (I % 3)});
  }
  P.addRow(RowSense::LE, 7.0, Cap);
  MilpOptions O;
  O.MaxNodes = 1;
  O.UseRounding = true;
  MilpSolver S(P, Ints, O);
  MilpSolution R = S.solve();
  // The search is truncated after one node; the only legal outcomes are a
  // truncated status, or Optimal when the root relaxation was integral.
  EXPECT_TRUE(R.Status == MilpStatus::Feasible ||
              R.Status == MilpStatus::Limit ||
              R.Status == MilpStatus::Optimal);
  if (R.Status != MilpStatus::Limit) {
    EXPECT_TRUE(P.isFeasible(R.X, 1e-6));
  }
}

TEST(Milp, AbsoluteValueLinearization) {
  // The DVS transition-cost pattern: minimize |x - y| via e with
  // -e <= x - y <= e. x fixed 3, y binary*5 -> y=1 gives |3-5|=2,
  // y=0 gives 3. Plus cost on y steers choice.
  LpProblem P;
  int Y = P.addVariable(0.0, 1.0, 0.0);
  int E = P.addVariable(0.0, lpInf(), 1.0);
  // x = 3 constant; 3 - 5y <= e  ->  -5y - e <= -3, and
  // 3 - 5y >= -e  ->  -5y + e >= -3.
  P.addRow(RowSense::LE, -3.0, {{Y, -5.0}, {E, -1.0}});
  P.addRow(RowSense::GE, -3.0, {{Y, -5.0}, {E, 1.0}});
  MilpSolver S(P, {Y});
  MilpSolution R = S.solve();
  ASSERT_EQ(R.Status, MilpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 2.0, 1e-6);
  EXPECT_NEAR(R.X[Y], 1.0, 1e-6);
}

} // namespace
