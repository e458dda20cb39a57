//===- tests/milp/MilpWarmStartTest.cpp - warm-start invariance -----------===//
//
// The branch-and-bound solves node LPs warm (dual simplex from the held
// basis) or cold, with or without the rounding heuristic, but those are
// pure search-strategy choices: the returned status must be identical
// and the objective must agree within AbsGap on every instance. These
// tests sweep randomized mode-assignment MILPs (the paper's DVS shape)
// at deadline tightnesses that need branching.
//
//===----------------------------------------------------------------------===//

#include "../common/RandomMilp.h"
#include "milp/MilpSolver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace cdvs;
using testutil::makeModeAssignment;
using testutil::ModeAssignmentCase;

namespace {

MilpSolution solveCase(const ModeAssignmentCase &C, const MilpOptions &O) {
  MilpSolver S(C.P, C.Integers, O);
  for (const auto &G : C.Groups)
    S.addSos1Group(G);
  return S.solve();
}

void expectAgree(const MilpSolution &A, const MilpSolution &B,
                 const char *What) {
  ASSERT_EQ(A.Status, B.Status)
      << What << ": " << milpStatusName(A.Status) << " vs "
      << milpStatusName(B.Status);
  if (A.Status == MilpStatus::Optimal)
    EXPECT_NEAR(A.Objective, B.Objective,
                1e-7 * (1.0 + std::fabs(A.Objective)))
        << What;
}

TEST(MilpWarmStartInvariance, WarmMatchesColdNodeSolves) {
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    ModeAssignmentCase C = makeModeAssignment(10, 0.10, 900 + Seed);
    MilpOptions Warm;
    MilpOptions Cold = Warm;
    Cold.WarmStart = false;
    MilpSolution A = solveCase(C, Warm);
    MilpSolution B = solveCase(C, Cold);
    expectAgree(A, B, "warm vs cold");
    // On branching-heavy instances the warm path must actually engage.
    if (A.Nodes > 4)
      EXPECT_GT(A.WarmLps, 0);
    EXPECT_EQ(B.WarmLps, 0);
  }
}

TEST(MilpWarmStartInvariance, RoundingDisabledStillAgrees) {
  // Without the rounding heuristic the incumbent arrives late and the
  // tree is larger — more warm re-solves, same answer.
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    ModeAssignmentCase C = makeModeAssignment(9, 0.12, 1300 + Seed);
    MilpOptions Plain;
    MilpOptions NoRound = Plain;
    NoRound.UseRounding = false;
    expectAgree(solveCase(C, Plain), solveCase(C, NoRound),
                "rounding vs none");
  }
}

TEST(MilpSolutionStats, IntrospectionFieldsArePopulated) {
  // The solver's Stats surface: nodes, prunes, pivots, incumbent
  // updates, and wall time must come back self-consistent.
  ModeAssignmentCase C = makeModeAssignment(10, 0.10, 77);
  MilpSolution S = solveCase(C, MilpOptions());
  ASSERT_EQ(S.Status, MilpStatus::Optimal);
  EXPECT_GE(S.Nodes, 1L);
  EXPECT_GE(S.Pruned, 0L);
  EXPECT_LE(S.Pruned, S.Nodes);
  EXPECT_GT(S.LpPivots, 0L);
  EXPECT_GE(S.IncumbentUpdates, 1L); // an optimum implies an incumbent
  EXPECT_GT(S.SolveSeconds, 0.0);
}

} // namespace
