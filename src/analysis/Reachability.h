//===- analysis/Reachability.h - CFG reachability and liveness ----*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward (from the entry block) and backward (to any Ret block)
/// reachability over a Function CFG, plus the structural dead-block and
/// dead-edge classification derived from it. "Dead" here is a static,
/// profile-independent fact: a dead edge cannot be crossed by any
/// terminating execution of the function, so every flow-conserving
/// profile must report a zero count for it. verify::CfgChecker and
/// verify::checkStatic (dvs-lint --static) both consume this single
/// classification so they can never disagree about which edges are dead.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_ANALYSIS_REACHABILITY_H
#define CDVS_ANALYSIS_REACHABILITY_H

#include "ir/Function.h"

#include <vector>

namespace cdvs {
namespace analysis {

/// Why a block is statically dead (or not).
enum class BlockLiveness {
  Live,            ///< Reachable from entry and reaches some Ret.
  DeadUnreachable, ///< Not reachable from the entry block.
  DeadNoExit,      ///< Reachable, but no path from it reaches a Ret.
};

/// Why an edge is statically dead (or not). An edge is live iff its
/// source is reachable from entry and its target can still reach a Ret;
/// only live edges can appear on a complete entry-to-exit path.
enum class EdgeLiveness {
  Live,
  DeadUnreachable, ///< Source block is unreachable from entry.
  DeadNoExit,      ///< Target block cannot reach any Ret block.
};

/// Reachability facts for one Function.
struct Reachability {
  std::vector<char> FromEntry; ///< Block reachable from block 0.
  std::vector<char> ToExit;    ///< Some Ret reachable from block.
  std::vector<BlockLiveness> Blocks;

  bool fromEntry(int B) const { return FromEntry[B] != 0; }
  bool toExit(int B) const { return ToExit[B] != 0; }
  bool live(int B) const { return Blocks[B] == BlockLiveness::Live; }

  /// Classifies a CFG edge of the analyzed function.
  EdgeLiveness classify(const CfgEdge &E) const {
    if (!fromEntry(E.From))
      return EdgeLiveness::DeadUnreachable;
    if (!toExit(E.To))
      return EdgeLiveness::DeadNoExit;
    return EdgeLiveness::Live;
  }

  bool live(const CfgEdge &E) const { return classify(E) == EdgeLiveness::Live; }
};

/// Computes forward/backward reachability for \p Fn.
Reachability computeReachability(const Function &Fn);

} // namespace analysis
} // namespace cdvs

#endif // CDVS_ANALYSIS_REACHABILITY_H
