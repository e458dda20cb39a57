//===- tests/lp/SimplexRegressionTest.cpp - classic hard instances --------===//
//
// Known-nasty LP instances: Beale's cycling example (degenerate pivots
// that defeat naive Dantzig pricing without anti-cycling), redundant
// equality systems, and scaling extremes like the DVS formulation's
// microsecond-vs-joule coefficient mix.
//
//===----------------------------------------------------------------------===//

#include "../common/RandomMilp.h"
#include "lp/SimplexSolver.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace cdvs;
using testutil::ModeAssignmentCase;
using testutil::makeModeAssignment;

namespace {

TEST(SimplexRegression, BealeCyclingExample) {
  // min -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4
  // s.t. 1/4 x1 - 60 x2 - 1/25 x3 + 9 x4 <= 0
  //      1/2 x1 - 90 x2 - 1/50 x3 + 3 x4 <= 0
  //      x3 <= 1
  // Optimal objective -1/20 at x = (1/25, 0, 1, 0) (degenerate vertex
  // sequence famously cycles under naive pivoting).
  LpProblem P;
  int X1 = P.addVariable(0.0, lpInf(), -0.75);
  int X2 = P.addVariable(0.0, lpInf(), 150.0);
  int X3 = P.addVariable(0.0, lpInf(), -0.02);
  int X4 = P.addVariable(0.0, lpInf(), 6.0);
  P.addRow(RowSense::LE, 0.0,
           {{X1, 0.25}, {X2, -60.0}, {X3, -1.0 / 25.0}, {X4, 9.0}});
  P.addRow(RowSense::LE, 0.0,
           {{X1, 0.5}, {X2, -90.0}, {X3, -1.0 / 50.0}, {X4, 3.0}});
  P.addRow(RowSense::LE, 1.0, {{X3, 1.0}});
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Objective, -0.05, 1e-9);
}

TEST(SimplexRegression, FullyDeterminedEqualitySystem) {
  // Three equalities pin all three variables; any objective returns the
  // unique feasible point.
  LpProblem P;
  int X = P.addVariable(0.0, 100.0, 5.0);
  int Y = P.addVariable(0.0, 100.0, -3.0);
  int Z = P.addVariable(0.0, 100.0, 1.0);
  P.addRow(RowSense::EQ, 6.0, {{X, 1.0}, {Y, 1.0}, {Z, 1.0}});
  P.addRow(RowSense::EQ, 1.0, {{X, 1.0}, {Y, -1.0}});
  P.addRow(RowSense::EQ, 5.0, {{X, 1.0}, {Z, 1.0}});
  // Solve: x - y = 1, x + z = 5, x + y + z = 6 -> y = 1? Check:
  // x + y + z = (x + z) + y = 5 + y = 6 -> y = 1 -> x = 2 -> z = 3.
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.X[X], 2.0, 1e-8);
  EXPECT_NEAR(S.X[Y], 1.0, 1e-8);
  EXPECT_NEAR(S.X[Z], 3.0, 1e-8);
}

TEST(SimplexRegression, WildCoefficientScales) {
  // The DVS MILP mixes joules (~1e-4) and microsecond times (~1e-6)
  // with counts (~1e5): coefficients spanning ~10 orders of magnitude.
  LpProblem P;
  int A = P.addVariable(0.0, 1.0, 1e-4);
  int B = P.addVariable(0.0, 1.0, 3e-4);
  int T = P.addVariable(0.0, lpInf(), 1e-6);
  P.addRow(RowSense::EQ, 1.0, {{A, 1.0}, {B, 1.0}});
  P.addRow(RowSense::LE, 5e-3, {{A, 9e-3}, {B, 2e-3}, {T, 1e-9}});
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  // A alone violates the time row (9e-3 > 5e-3): a mix is forced.
  // a + b = 1 and 9e-3 a + 2e-3 b <= 5e-3 -> a <= 3/7.
  EXPECT_NEAR(S.X[A], 3.0 / 7.0, 1e-6);
  EXPECT_TRUE(P.isFeasible(S.X, 1e-9));
}

TEST(SimplexRegression, OptimumScalesWithCosts) {
  // Scaling every cost by a positive factor scales the LP optimum by the
  // same factor. The DVS costs are joules (~1e-10..1e-4), so pricing
  // with an absolute reduced-cost tolerance stops early at such scales.
  for (double Tightness : {0.2, 0.4, 0.6, 0.8}) {
    for (uint64_t Seed = 42; Seed <= 49; ++Seed) {
      ModeAssignmentCase C = makeModeAssignment(10, Tightness, Seed);
      LpSolution Base = solveLp(C.P);
      ASSERT_EQ(Base.Status, LpStatus::Optimal);
      LpProblem Scaled = C.P;
      for (int J = 0; J < Scaled.numVariables(); ++J)
        Scaled.setCost(J, C.P.cost(J) * 1e-6);
      LpSolution S = solveLp(Scaled);
      ASSERT_EQ(S.Status, LpStatus::Optimal);
      EXPECT_NEAR(S.Objective, Base.Objective * 1e-6,
                  1e-9 * std::fabs(Base.Objective * 1e-6))
          << "tightness " << Tightness << " seed " << Seed;
    }
  }
}

TEST(SimplexRegression, ManyRedundantRows) {
  // The same constraint repeated 50 times plus its scaled variants:
  // phase 1 must cope with massive redundancy.
  LpProblem P;
  int X = P.addVariable(0.0, 10.0, -1.0);
  int Y = P.addVariable(0.0, 10.0, -2.0);
  for (int I = 1; I <= 50; ++I)
    P.addRow(RowSense::LE, 8.0 * I, {{X, 1.0 * I}, {Y, 1.0 * I}});
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Objective, -16.0, 1e-7); // y=8, x=0
}

TEST(SimplexRegression, ZeroRowAndZeroRhs) {
  LpProblem P;
  int X = P.addVariable(0.0, 5.0, -1.0);
  P.addRow(RowSense::LE, 0.0, {{X, 0.0}}); // vacuous
  P.addRow(RowSense::GE, 0.0, {{X, 1.0}}); // x >= 0 (redundant)
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.X[X], 5.0, 1e-8);
}

TEST(SimplexRegression, EqualityWithAllVariablesFixed) {
  LpProblem P;
  int X = P.addVariable(2.0, 2.0, 1.0);
  int Y = P.addVariable(3.0, 3.0, 1.0);
  P.addRow(RowSense::EQ, 5.0, {{X, 1.0}, {Y, 1.0}});
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Objective, 5.0, 1e-9);

  // And the inconsistent variant is infeasible.
  LpProblem Q;
  int A = Q.addVariable(2.0, 2.0, 1.0);
  Q.addRow(RowSense::EQ, 7.0, {{A, 1.0}});
  EXPECT_EQ(solveLp(Q).Status, LpStatus::Infeasible);
}

} // namespace
